"""Command-line entry points.

Exit codes: 0 success, 2 unreadable or unparseable input, 3 violated
precondition (bad sizes, thresholds, or configuration), 4 internal
invariant failure.  Results are printed to stdout as text or JSON.

Chain inputs are chain-format files holding exactly one chain (a file with
several is rejected with exit 2) or PDB files when the path ends in .pdb,
optionally narrowed with --pdb-chain.

plsa aligns two chains with the quadratic prefix-maximum DP, whose values,
walks and tie-breaks equal the quartic reference's, and which refuses more
than plsa.PAIR_CELL_LIMIT cells (exit 3, also for plsa-rigid); --fast is
accepted and has no effect.  Three or four chains run the multi-chain DP,
which refuses more than plsa.MULTI_STATE_LIMIT index tuples (exit 3).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
from .errors import InputError, InvariantError, PreconditionError, TooLarge
from .frechet import discrete_frechet
from .geometry import Chain3D, apply_motion
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
    parse_report,
    report_chains,
    report_walk,
)
from .rigid import SearchConfig, plsa_rigid_pair

__all__ = ["main", "build_parser"]

EQUIVALENCE_LIMIT = 12


def _load_chain(path_str: str, pdb_chain: str | None) -> tuple[Chain3D, dict[str, str]]:
    path = Path(path_str)
    data = path.read_bytes()
    digest = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    text = data.decode("utf-8")
    if path.suffix.lower() == ".pdb":
        return parse_pdb_ca(text, pdb_chain), digest
    chains = parse_chain_file(text).chains
    if len(chains) != 1:
        raise InputError(f"{path} holds {len(chains)} chains; a chain file must hold one")
    return chains[0], digest


def _load_graph(path_str: str):
    path = Path(path_str)
    data = path.read_bytes()
    digest = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return parse_graph_file(data.decode("utf-8")), digest


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _cmd_dfd(args) -> int:
    a, da = _load_chain(args.chain_a, args.pdb_chain)
    b, db = _load_chain(args.chain_b, args.pdb_chain)
    t0 = time.perf_counter()
    res = discrete_frechet(a, b)
    ms = (time.perf_counter() - t0) * 1000.0
    report = RunReport(
        command="dfd",
        inputs=(da, db),
        delta=None,
        value=res.value,
        elapsed_ms=ms,
        walk=res.walk.steps if args.walk else None,
        witness=res.witness,
        chains=(a, b),
    )
    print(emit_report(report, args.format), end="")
    return 0


def _cmd_plsa(args) -> int:
    if len(args.chains) < 2:
        raise InputError("need at least two chain files")
    if args.fast and len(args.chains) != 2:
        raise InputError("--fast applies to exactly two chains")
    loaded = [_load_chain(p, args.pdb_chain) for p in args.chains]
    chains = [c for c, _ in loaded]
    t0 = time.perf_counter()
    if len(chains) == 2:
        res = plsa_static_pair_fast(chains[0], chains[1], args.delta)
    else:
        res = plsa_static_multi(chains, args.delta)
    ms = (time.perf_counter() - t0) * 1000.0
    validate_alignment_result(res, chains, args.delta)
    report = RunReport(
        command="plsa",
        inputs=tuple(d for _, d in loaded),
        delta=args.delta,
        value=res.value,
        elapsed_ms=ms,
        subsequences=res.subsequences,
        walk=res.walk.steps,
        chains=tuple(chains),
    )
    print(emit_report(report, args.format), end="")
    return 0


def _cmd_rigid(args) -> int:
    a, da = _load_chain(args.chain_a, args.pdb_chain)
    b, db = _load_chain(args.chain_b, args.pdb_chain)
    config = SearchConfig(
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        prune_tolerance=args.prune_tolerance,
    )
    t0 = time.perf_counter()
    motion, res = plsa_rigid_pair(a, b, args.delta, config)
    ms = (time.perf_counter() - t0) * 1000.0
    moved = apply_motion(motion, b)
    validate_alignment_result(res, (a, moved), args.delta)
    report = RunReport(
        command="plsa-rigid",
        inputs=(da, db),
        delta=args.delta,
        value=res.value,
        elapsed_ms=ms,
        subsequences=res.subsequences,
        walk=res.walk.steps,
        motion=motion,
        seed=args.seed,
        chains=(a, moved),
    )
    print(emit_report(report, args.format), end="")
    return 0


def _cmd_gen_hard(args) -> int:
    graph, dg = _load_graph(args.graph)
    t0 = time.perf_counter()
    inst = build_reduction(graph, args.delta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for chain in inst.chains:
        fname = f"{chain.id}.chain"
        (out / fname).write_text(
            serialize_chain_document(ChainDocument((chain,))), encoding="utf-8"
        )
        entries.append({"name": chain.id, "file": fname, "length": len(chain)})
    manifest = {
        "command": "gen-hard",
        "inputs": [dg],
        "delta": args.delta,
        "graph": {"n_vertices": graph.n_vertices, "edges": [list(e) for e in graph.edges]},
        "chains": entries,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(str(out / "manifest.json"))
    return 0


def _cmd_verify(args) -> int:
    graph, dg = _load_graph(args.graph)
    if graph.n_vertices > MIS_LIMIT:
        raise TooLarge(
            f"{graph.n_vertices} vertices exceed the verification limit of {MIS_LIMIT}"
        )
    t0 = time.perf_counter()
    inst = build_reduction(graph, args.delta)
    rep = verify_reduction_properties(inst, args.gap_factor)
    payload: dict = {
        "command": "verify-reduction",
        "inputs": [dg],
        "delta": args.delta,
        "gap_factor": args.gap_factor,
        "properties": {
            "min_cross_distance": _finite_or_none(rep.min_cross_distance),
            "max_same_index_distance": rep.max_same_index_distance,
            "min_quadruple_gap": _finite_or_none(rep.min_quadruple_gap),
            "min_segment_separation": _finite_or_none(rep.min_segment_separation),
        },
    }
    if graph.n_vertices <= EQUIVALENCE_LIMIT:
        solution = solve_reduction_bruteforce(inst)
        k_mis, witness = max_independent_set_bruteforce(graph)
        if solution.k != k_mis:
            raise InvariantError(
                f"alignment maximum {solution.k} != independent set maximum {k_mis}"
            )
        payload["equivalence"] = {
            "k": solution.k,
            "independent_set": list(witness),
            "matched_subset": list(solution.vertices),
        }
    else:
        payload["equivalence"] = None
    payload["elapsed_ms"] = (time.perf_counter() - t0) * 1000.0
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        props = payload["properties"]
        print(f"vertices: {graph.n_vertices}, chains: {len(inst.chains)}")
        for key, val in props.items():
            print(f"{key.replace('_', ' ')}: {val!r}")
        eq = payload["equivalence"]
        if eq is None:
            print(f"equivalence: skipped (more than {EQUIVALENCE_LIMIT} vertices)")
        else:
            vs = " ".join(map(str, eq["independent_set"]))
            print(f"equivalence: k={eq['k']} vertices {vs}")
    return 0


def _cmd_mis(args) -> int:
    graph, dg = _load_graph(args.graph)
    t0 = time.perf_counter()
    k, witness = max_independent_set_bruteforce(graph)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.format == "json":
        payload = {
            "command": "mis",
            "inputs": [dg],
            "value": k,
            "vertices": list(witness),
            "elapsed_ms": ms,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"value: {k}")
        print("vertices: " + " ".join(map(str, witness)))
    return 0


def _cmd_render(args) -> int:
    data = parse_report(Path(args.report).read_text(encoding="utf-8"))
    chains = report_chains(data)
    walk = report_walk(data, len(chains))
    for step in walk:
        for c, idx in enumerate(step):
            if not 1 <= idx <= len(chains[c]):
                raise InputError(f"walk step {step} is out of range for the embedded chains")
    svg = emit_alignment_svg(chains, walk)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(args.out)
    return 0


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
    p.add_argument("--mode", choices=("triples", "random"), default="triples")
    p.add_argument("--budget", type=int, default=1000, help="max candidate motions")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
