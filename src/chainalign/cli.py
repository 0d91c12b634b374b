"""Command-line entry points.

Exit codes: 0 success, 2 unreadable or unparseable input, 3 violated
precondition (bad sizes, thresholds, or configuration), 4 internal
invariant failure.  Results are printed to stdout as text or JSON.

Chain inputs are chain-format files holding exactly one chain (a file with
several is rejected with exit 2) or PDB files when the path ends in .pdb,
optionally narrowed with --pdb-chain.

plsa aligns two chains with the quadratic prefix-maximum DP, whose values,
walks and tie-breaks equal the quartic reference's.  Its time and memory
follow the candidate cells (those in an x band of width 2 delta around each
vertex, computed row by row where they are sparse and as rectangles of
rows where they are dense) and the valid ones, not the |A| |B| cells,
though with every cell valid they are still quadratic; it refuses more
than plsa.PAIR_CELL_LIMIT cells (exit 3, also for plsa-rigid).  --fast is
accepted and has no effect.  Three or four chains run the multi-chain DP,
one table and O((2^m + m) N) work for m chains of N index tuples, which
refuses more than plsa.MULTI_STATE_LIMIT index tuples (exit 3).  dfd
refuses more than PAIR_CELL_LIMIT cells, and plsa-rigid --mode triples a
chain of more than 5000 vertices, both with exit 3.  These limits, those of
mis and verify-reduction, and gen-hard's reduction.REDUCTION_VERTEX_LIMIT
chain vertices, are all checked by errors.check_size.
plsa-rigid --mode random without --seed draws a seed and reports it.

dfd exits 2, printing nothing to stdout, when the distance overflows floats
(two vertices farther apart than about 1.8e308); the error names the
witness pair, whose distance is the overflowed value.

elapsed_ms times the solve call alone, not loading, validation or output:
discrete_frechet (dfd), the DP (plsa), the search (plsa-rigid), build,
measurement and equivalence check (verify-reduction), the independent-set
solver (mis), and build_reduction without the file writes (gen-hard).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import random
import sys
import time
from pathlib import Path
from typing import Sequence

from .chainio import (
    ChainDocument,
    parse_chain_file,
    parse_graph_file,
    parse_pdb_ca,
    serialize_chain_document,
)
from .errors import InputError, InvariantError, PreconditionError, check_size
from .frechet import discrete_frechet
from .geometry import apply_motion
from .plsa import (
    plsa_static_multi,
    plsa_static_pair_fast,
    validate_alignment_result,
)
from .reduction import (
    MIS_LIMIT,
    build_reduction,
    max_independent_set_bruteforce,
    solve_reduction_bruteforce,
    verify_reduction_properties,
)
from .report import (
    RunReport,
    emit_alignment_svg,
    emit_report,
    json_text,
    parse_report,
    report_chains,
    report_walk,
)
from .rigid import MODES, SearchConfig, plsa_rigid_pair

__all__ = ["main", "build_parser"]

EQUIVALENCE_LIMIT = 12


def _read(path: Path) -> tuple[str, dict[str, str]]:
    """A file's text and its digest."""
    data = path.read_bytes()
    return data.decode("utf-8"), {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _load_chains(paths: Sequence[str], pdb_chain: str | None):
    """The chains of the given files, and their digests."""
    chains, digests = [], []
    for path in map(Path, paths):
        text, digest = _read(path)
        if path.suffix.lower() == ".pdb":
            chains.append(parse_pdb_ca(text, pdb_chain))
        else:
            found = parse_chain_file(text).chains
            if len(found) != 1:
                raise InputError(f"{path} holds {len(found)} chains; a chain file must hold one")
            chains.append(found[0])
        digests.append(digest)
    return tuple(chains), tuple(digests)


def _load_graph(path: str):
    text, digest = _read(Path(path))
    return parse_graph_file(text), digest


def _timed(fn, *args):
    """fn(*args) and its wall time in milliseconds."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1000.0


def _cmd_dfd(args) -> str:
    chains, inputs = _load_chains((args.chain_a, args.chain_b), args.pdb_chain)
    res, ms = _timed(discrete_frechet, *chains)
    if not math.isfinite(res.value):
        i, j = res.witness
        raise InputError(f"the distance overflows floats: vertex {i} of the first chain and "
                         f"vertex {j} of the second are too far apart")
    walk = res.walk.steps if args.walk else None
    report = RunReport("dfd", inputs, None, res.value, ms, walk=walk, witness=res.witness,
                       chains=chains)
    return emit_report(report, args.format)


def _alignment_report(args, inputs, res, ms: float, chains, **fields) -> str:
    """Validate an alignment of the chains, then report it."""
    validate_alignment_result(res, chains, args.delta)
    report = RunReport(args.command, inputs, args.delta, res.value, ms,
                       subsequences=res.subsequences, walk=res.walk.steps, chains=chains, **fields)
    return emit_report(report, args.format)


def _cmd_plsa(args) -> str:
    if len(args.chains) < 2:
        raise InputError("need at least two chain files")
    if args.fast and len(args.chains) != 2:
        raise InputError("--fast applies to exactly two chains")
    chains, inputs = _load_chains(args.chains, args.pdb_chain)
    if len(chains) == 2:
        res, ms = _timed(plsa_static_pair_fast, *chains, args.delta)
    else:
        res, ms = _timed(plsa_static_multi, chains, args.delta)
    return _alignment_report(args, inputs, res, ms, chains)


def _cmd_rigid(args) -> str:
    (a, b), inputs = _load_chains((args.chain_a, args.chain_b), args.pdb_chain)
    seed = args.seed
    if args.mode == "random" and seed is None:
        # reported, so --seed replays the run; any JSON reader holds it exactly
        seed = random.SystemRandom().randrange(2**53)
    config = SearchConfig(mode=args.mode, budget=args.budget, seed=seed,
                          prune_tolerance=args.prune_tolerance)
    (motion, res), ms = _timed(plsa_rigid_pair, a, b, args.delta, config)
    moved = apply_motion(motion, b)
    return _alignment_report(args, inputs, res, ms, (a, moved), motion=motion, seed=seed)


def _cmd_gen_hard(args) -> str:
    graph, dg = _load_graph(args.graph)
    inst, ms = _timed(build_reduction, graph, args.delta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for chain in inst.chains:
        fname = f"{chain.id}.chain"
        text = serialize_chain_document(ChainDocument((chain,)))
        (out / fname).write_text(text, encoding="utf-8")
        entries.append({"name": chain.id, "file": fname, "length": len(chain)})
    manifest = {
        "command": "gen-hard",
        "inputs": [dg],
        "delta": args.delta,
        "graph": {"n_vertices": graph.n_vertices, "edges": [list(e) for e in graph.edges]},
        "chains": entries,
        "elapsed_ms": ms,
    }
    (out / "manifest.json").write_text(json_text(manifest) + "\n", encoding="utf-8")
    return f"{out / 'manifest.json'}\n"


def _cmd_verify(args) -> str:
    graph, dg = _load_graph(args.graph)
    check_size(graph.n_vertices, MIS_LIMIT, "vertices")

    def solve():
        inst = build_reduction(graph, args.delta)
        rep = verify_reduction_properties(inst, args.gap_factor)
        if graph.n_vertices > EQUIVALENCE_LIMIT:
            return rep, None
        solution = solve_reduction_bruteforce(inst)
        k_mis, witness = max_independent_set_bruteforce(graph)
        if solution.k != k_mis:
            raise InvariantError(
                f"alignment maximum {solution.k} != independent set maximum {k_mis}")
        return rep, {"k": solution.k, "independent_set": list(witness),
                     "matched_subset": list(solution.vertices)}

    (rep, eq), ms = _timed(solve)
    props = {
        "min_cross_distance": rep.min_cross_distance,
        "max_same_index_distance": rep.max_same_index_distance,
        "min_quadruple_gap": rep.min_quadruple_gap,
        "min_segment_separation": rep.min_segment_separation,
    }
    # a minimum over an empty set is inf, reported as null
    props = {key: val if math.isfinite(val) else None for key, val in props.items()}
    if args.format == "json":
        return json_text({
            "command": "verify-reduction", "inputs": [dg], "delta": args.delta,
            "gap_factor": args.gap_factor, "properties": props, "equivalence": eq,
            "elapsed_ms": ms,
        }) + "\n"
    lines = [f"vertices: {graph.n_vertices}, chains: {rep.n_chains}"]
    lines += [f"{key.replace('_', ' ')}: {val!r}" for key, val in props.items()]
    if eq is None:
        lines.append(f"equivalence: skipped (more than {EQUIVALENCE_LIMIT} vertices)")
    else:
        vs = " ".join(map(str, eq["independent_set"]))
        lines.append(f"equivalence: k={eq['k']} vertices {vs}")
    return "\n".join(lines) + "\n"


def _cmd_mis(args) -> str:
    graph, dg = _load_graph(args.graph)
    (k, witness), ms = _timed(max_independent_set_bruteforce, graph)
    if args.format == "json":
        return json_text({"command": "mis", "inputs": [dg], "value": k,
                          "vertices": list(witness), "elapsed_ms": ms}) + "\n"
    return f"value: {k}\nvertices: " + " ".join(map(str, witness)) + "\n"


def _cmd_render(args) -> str:
    data = parse_report(Path(args.report).read_text(encoding="utf-8"))
    chains = report_chains(data)
    walk = report_walk(data, len(chains))
    for step in walk:
        for c, idx in enumerate(step):
            if not 1 <= idx <= len(chains[c]):
                raise InputError(f"walk step {step} is out of range for the embedded chains")
    Path(args.out).write_text(emit_alignment_svg(chains, walk), encoding="utf-8")
    return f"{args.out}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainalign",
        description="Local alignment of 3D chains under the discrete Frechet distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_pdb=True):
        if with_pdb:
            p.add_argument("--pdb-chain", default=None, help="chain identifier for .pdb inputs")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("dfd", help="discrete Frechet distance between two chains")
    p.add_argument("chain_a")
    p.add_argument("chain_b")
    p.add_argument("--walk", action="store_true", help="include the optimal coupling")
    add_common(p)
    p.set_defaults(func=_cmd_dfd)

    p = sub.add_parser("plsa", help="best local alignment of chains held fixed")
    p.add_argument("chains", nargs="+", metavar="CHAIN")
    p.add_argument("--delta", type=float, required=True, help="closeness threshold")
    p.add_argument("--fast", action="store_true",
                   help="accepted for two chains and has no effect: they always use the fast path")
    add_common(p)
    p.set_defaults(func=_cmd_plsa)

    p = sub.add_parser("plsa-rigid", help="local alignment over rigid motions of the second chain")
    p.add_argument("chain_a")
    p.add_argument("chain_b")
    p.add_argument("--delta", type=float, required=True, help="closeness threshold")
    p.add_argument("--mode", choices=MODES, default=SearchConfig.mode)
    p.add_argument("--budget", type=int, default=SearchConfig.budget, help="max candidate motions")
    p.add_argument("--seed", type=int, default=None, help="seed for --mode random")
    p.add_argument("--prune-tolerance", type=float, default=None, dest="prune_tolerance",
                   help="triple congruence slack (default 2 * delta)")
    add_common(p)
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("gen-hard", help="build the hard chain family of a graph")
    p.add_argument("graph")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_hard)

    p = sub.add_parser("verify-reduction", help="check instance geometry and solver agreement")
    p.add_argument("graph")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--gap-factor", type=float, default=10.0, dest="gap_factor")
    add_common(p, with_pdb=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mis", help="exact maximum independent set of a graph")
    p.add_argument("graph")
    add_common(p, with_pdb=False)
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("render", help="draw a JSON report as an SVG")
    p.add_argument("report")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    return parser


# main's parser, built on the first call: parsing leaves a parser as it was,
# so one serves every call in the process
_main_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        print(args.func(args), end="")
        return 0
    # UnicodeDecodeError is a ValueError, so exit 2 is decided before exit 3
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
