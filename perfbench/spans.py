"""Spans and counters recorded from outside the program.

``install`` replaces public functions at the module attributes their
callers look them up by (``chainalign.cli.*`` for the names the CLI
imports, plus the few that ``plsa``, ``rigid`` and ``reduction`` call
internally) with wrappers that open a span around the call and update
counters.  Each span records its name, start, end, parent and operation
id; spans stay in memory and are written out when the run ends.  Self time
is a span's duration minus the time its children cover, so by construction
the self times of all spans of an operation add up to its duration.

The one counter that costs real work (valid DP cells) is computed inside
a ``trace.counters`` span, so its cost shows as tracing overhead instead
of inflating a layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from dataclasses import dataclass

import numpy as np

from chainalign import cli, plsa, reduction, rigid
from chainalign.errors import DegenerateTriple, IncompatibleTriple

# span name -> per-layer self-time metric
SELF_METRICS = {
    "cli": "cli.self_s",
    "chainio.parse": "chainio.parse_s",
    "plsa.pair_fast": "plsa.pair_fast_s",
    "plsa.common_chain": "plsa.common_chain_s",
    "plsa.validate": "plsa.validate_self_s",
    "frechet.dfd": "frechet.dfd_s",
    "rigid.search": "rigid.search_s",
    "rigid.candidate_gen": "rigid.candidate_gen_s",
    "geometry.superpose": "geometry.superpose_s",
    "geometry.apply_motion": "geometry.apply_motion_s",
    "reduction.build": "reduction.build_s",
    "reduction.measure": "reduction.measure_s",
    "reduction.solve": "reduction.solve_self_s",
    "reduction.decision": "reduction.decision_s",
    "reduction.mis": "reduction.mis_s",
    "report.emit": "report.emit_s",
    "trace.counters": "trace.counters_s",
}

# counters reported per operation
COUNT_METRICS = (
    "frechet.dfd_calls", "frechet.dfd_cells",
    "plsa.validate_calls",
    "plsa.pair_fast_calls", "plsa.pair_fast_cells",
    "rigid.candidates", "rigid.scored", "rigid.improvements",
    "rigid.stop_budget", "rigid.stop_full", "rigid.stop_exhausted",
    "geometry.superpose_calls", "geometry.superpose_rejected",
    "geometry.apply_motion_calls", "geometry.vertices_moved",
    "reduction.decisions",
    "chainio.parse_calls", "chainio.bytes_in", "report.bytes_out",
)


def _valid_cells(a, b, delta: float) -> int:
    """Number of index pairs (i, j) with vertex i of a within delta of
    vertex j of b."""
    diff = a.as_array()[:, None, :] - b.as_array()[None, :, :]
    return int(np.count_nonzero(np.einsum("ijk,ijk->ij", diff, diff) <= delta * delta))


@dataclass
class _Search:
    best: int | None = None
    candidates: int = 0
    scored: int = 0
    improvements: int = 0


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0.0)
        self.valid_cells = 0
        self.search: _Search | None = None

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """The wrappers are in place only inside this block."""
        saved = install(self)
        try:
            yield
        finally:
            uninstall(saved)

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def check_nesting(self) -> None:
        """Raise unless every span was closed and lies inside its parent,
        in the same operation."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans were never closed")
        a = self.arrays()
        child = np.flatnonzero(a["parent"] >= 0)
        parent = a["parent"][child]
        if (
            (a["end"] < a["start"]).any()
            or (parent >= child).any()
            or (a["start"][child] < a["start"][parent]).any()
            or (a["end"][child] > a["end"][parent]).any()
            or (a["op"][child] != a["op"][parent]).any()
        ):
            raise RuntimeError("a span is unclosed or escapes its parent")

    def self_times(self) -> tuple[dict[str, float], float]:
        """Total self time per span name, and total duration of root spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(a["name"], weights=dur - covered, minlength=len(self.names))
        roots = float(dur[~has_parent].sum())
        return {n: float(own[k]) for k, n in enumerate(self.names)}, roots


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(args, result)
        return result
    return wrapped


def _counters(tracer: Tracer, fn):
    """Run an expensive counter inside its own span."""
    i = tracer.open("trace.counters")
    try:
        fn()
    finally:
        tracer.close(i)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install the wrappers; returns what ``uninstall`` needs to undo them."""
    saved: list[tuple[object, str, object]] = []

    def put(module, attr: str, wrapper) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    add = tracer.add

    def parsed(args, _):
        add("chainio.parse_calls")
        add("chainio.bytes_in", len(args[0]))

    for attr in ("parse_chain_file", "parse_graph_file", "parse_pdb_ca"):
        put(cli, attr, _wrap(tracer, "chainio.parse", getattr(cli, attr), parsed))

    def pair_fast(args, result):
        a, b, delta = args
        add("plsa.pair_fast_calls")
        add("plsa.pair_fast_cells", len(a) * len(b))

        def valid():
            tracer.valid_cells += _valid_cells(a, b, delta)
        _counters(tracer, valid)
        st = tracer.search  # set only while a rigid search runs
        if st is not None:
            if st.best is None:
                st.best = result.value  # the identity floor
            else:
                st.scored += 1
                if result.value > st.best:
                    st.best = result.value
                    st.improvements += 1

    for module in (cli, rigid):
        put(module, "plsa_static_pair_fast",
            _wrap(tracer, "plsa.pair_fast", module.plsa_static_pair_fast, pair_fast))

    put(plsa, "reconstruct_common_chain",
        _wrap(tracer, "plsa.common_chain", plsa.reconstruct_common_chain))
    put(cli, "validate_alignment_result", _wrap(
        tracer, "plsa.validate", cli.validate_alignment_result,
        lambda args, _: add("plsa.validate_calls")))

    def dfd(args, _):
        add("frechet.dfd_calls")
        add("frechet.dfd_cells", len(args[0]) * len(args[1]))

    put(plsa, "discrete_frechet", _wrap(tracer, "frechet.dfd", plsa.discrete_frechet, dfd))

    search_fn = cli.plsa_rigid_pair

    @functools.wraps(search_fn)
    def search(a, b, delta, config):
        st = tracer.search = _Search()
        i = tracer.open("rigid.search")
        try:
            motion, result = search_fn(a, b, delta, config)
        finally:
            tracer.close(i)
            tracer.search = None
        add("rigid.candidates", st.candidates)
        add("rigid.scored", st.scored)
        add("rigid.improvements", st.improvements)
        if result.value == len(a) + len(b):
            add("rigid.stop_full")
        elif st.candidates >= config.budget:
            add("rigid.stop_budget")
        else:
            add("rigid.stop_exhausted")
        return motion, result

    put(cli, "plsa_rigid_pair", search)

    gen_fn = rigid.enumerate_candidate_motions

    @functools.wraps(gen_fn)
    def candidates(*args, **kwargs):
        it = gen_fn(*args, **kwargs)
        while True:
            i = tracer.open("rigid.candidate_gen")
            try:
                motion = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            if tracer.search is not None:
                tracer.search.candidates += 1
            yield motion

    put(rigid, "enumerate_candidate_motions", candidates)

    superpose_fn = rigid.motion_from_triples

    @functools.wraps(superpose_fn)
    def superpose(*args, **kwargs):
        add("geometry.superpose_calls")
        i = tracer.open("geometry.superpose")
        try:
            return superpose_fn(*args, **kwargs)
        except (DegenerateTriple, IncompatibleTriple):
            add("geometry.superpose_rejected")
            raise
        finally:
            tracer.close(i)

    put(rigid, "motion_from_triples", superpose)

    def moved(args, _):
        add("geometry.apply_motion_calls")
        add("geometry.vertices_moved", len(args[1]))

    for module in (cli, rigid):
        put(module, "apply_motion",
            _wrap(tracer, "geometry.apply_motion", module.apply_motion, moved))

    put(cli, "build_reduction", _wrap(tracer, "reduction.build", cli.build_reduction))
    put(cli, "verify_reduction_properties",
        _wrap(tracer, "reduction.measure", cli.verify_reduction_properties))
    put(cli, "solve_reduction_bruteforce",
        _wrap(tracer, "reduction.solve", cli.solve_reduction_bruteforce))
    put(reduction, "subsequence_match_decision", _wrap(
        tracer, "reduction.decision", reduction.subsequence_match_decision,
        lambda args, _: add("reduction.decisions")))
    put(cli, "max_independent_set_bruteforce",
        _wrap(tracer, "reduction.mis", cli.max_independent_set_bruteforce))
    put(cli, "emit_report", _wrap(tracer, "report.emit", cli.emit_report))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer, ops: int, untraced_op_s: float) -> dict[str, float]:
    """Per-operation layer metrics of a traced phase of ``ops`` operations."""
    tracer.check_nesting()
    own, roots = tracer.self_times()
    unknown = set(own) - set(SELF_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    out = {metric: own.get(span, 0.0) / ops for span, metric in SELF_METRICS.items()}
    out.update({k: v / ops for k, v in tracer.counts.items()})
    c = tracer.counts
    out["plsa.pair_fast_valid_frac"] = (
        tracer.valid_cells / c["plsa.pair_fast_cells"] if c["plsa.pair_fast_cells"] else 0.0
    )
    out["rigid.improve_ratio"] = c["rigid.improvements"] / c["rigid.scored"] if c["rigid.scored"] else 0.0
    out["trace.op_s"] = roots / ops
    out["trace.overhead_frac"] = roots / ops / untraced_op_s - 1.0
    return out
