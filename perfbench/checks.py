"""Output checks, run outside the timed region.

Every report is re-parsed with the program's ``parse_report`` and its
claims are re-verified against the instance the benchmark generated:

* static alignments: the embedded chains are the input chains, the walk
  and subsequences pass ``validate_alignment_result``, and, where goldens
  exist for the seed, the value and walk digest equal the recorded ones;
* rigid alignments: the embedded first chain is A, the embedded second
  chain is B moved by the reported motion, the walk validates against it,
  and the value is at least the identity floor computed during set-up;
* reductions: ``equivalence.k`` equals the independent-set size computed
  during set-up, and both reported vertex sets are independent sets of
  that size.

``check`` raises CheckFailed on the first violation and otherwise returns
the report's aligned fraction.
"""

from __future__ import annotations

from chainalign.errors import ChainAlignError
from chainalign.geometry import RigidMotion, apply_motion
from chainalign.plsa import (
    AlignmentResult,
    JointWalk,
    reconstruct_common_chain,
    validate_alignment_result,
)
from chainalign.report import parse_report, report_chains, report_walk

from workloads import Instance, walk_digest


class CheckFailed(Exception):
    """A report disagrees with its instance."""


def _alignment(data: dict, chains, delta: float) -> int:
    if data.get("delta") != delta:
        raise CheckFailed(f"report delta {data.get('delta')!r} != {delta!r}")
    m = len(chains)
    walk = report_walk(data, m)
    subs = data.get("subsequences")
    value = data.get("value")
    if not isinstance(value, int) or not isinstance(subs, list) or len(subs) != m:
        raise CheckFailed("report lacks an integer value or one subsequence per chain")
    joint = JointWalk(walk)
    common = reconstruct_common_chain(joint, chains, delta) if walk else None
    result = AlignmentResult(value, tuple(tuple(int(i) for i in s) for s in subs), joint, common)
    validate_alignment_result(result, chains, delta)
    return value


def _same_points(got, want, what: str) -> None:
    if [p.as_tuple() for p in got.points] != [p.as_tuple() for p in want.points]:
        raise CheckFailed(f"embedded {what} differs from the input")


def _check_static(inst: Instance, data: dict) -> float:
    if data["command"] != "plsa":
        raise CheckFailed(f"unexpected command {data['command']!r}")
    embedded = report_chains(data)
    if len(embedded) != len(inst.inputs):
        raise CheckFailed("report embeds the wrong number of chains")
    for k, (got, want) in enumerate(zip(embedded, inst.inputs)):
        _same_points(got, want, f"chain {k}")
    value = _alignment(data, inst.inputs, inst.delta)
    if "value" in inst.expect:
        if value != inst.expect["value"]:
            raise CheckFailed(f"value {value} != golden {inst.expect['value']}")
        if walk_digest(data["walk"]) != inst.expect["walk"]:
            raise CheckFailed("walk differs from the golden walk")
    return value / inst.size


def _check_rigid(inst: Instance, data: dict) -> float:
    if data["command"] != "plsa-rigid":
        raise CheckFailed(f"unexpected command {data['command']!r}")
    a, b = inst.inputs
    raw = data["motion"]
    motion = RigidMotion(tuple(map(tuple, raw["rotation"])), tuple(raw["translation"]))
    moved = apply_motion(motion, b)
    embedded = report_chains(data)
    if len(embedded) != 2:
        raise CheckFailed("report embeds the wrong number of chains")
    _same_points(embedded[0], a, "chain A")
    _same_points(embedded[1], moved, "moved chain B")
    value = _alignment(data, (a, moved), inst.delta)
    if value < inst.expect["floor"]:
        raise CheckFailed(f"value {value} is below the identity floor {inst.expect['floor']}")
    return value / inst.size


def _independent(graph, vertices) -> bool:
    vs = set(vertices)
    return len(vs) == len(vertices) and all(1 <= v <= graph.n_vertices for v in vs) and not any(
        i in vs and j in vs for i, j in graph.edges
    )


def _check_hard(inst: Instance, data: dict) -> float:
    if data["command"] != "verify-reduction":
        raise CheckFailed(f"unexpected command {data['command']!r}")
    (graph,) = inst.inputs
    eq = data.get("equivalence")
    if not isinstance(eq, dict):
        raise CheckFailed("report carries no equivalence section")
    k = eq.get("k")
    if k != inst.expect["k"]:
        raise CheckFailed(f"k {k!r} != independent-set size {inst.expect['k']}")
    for key in ("independent_set", "matched_subset"):
        vs = eq.get(key)
        if not isinstance(vs, list) or len(vs) != k or not _independent(graph, vs):
            raise CheckFailed(f"{key} {vs!r} is not an independent set of size {k}")
    return k / inst.size


_CHECKS = {"static": _check_static, "rigid": _check_rigid, "hard": _check_hard}


def check(inst: Instance, text: str) -> float:
    """Verify one report; return its aligned fraction or raise CheckFailed."""
    try:
        data = parse_report(text)
        return _CHECKS[inst.kind](inst, data)
    except (ChainAlignError, KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from None
