"""Reference solvers that check the production ones; only tests use them.

Each re-derives a result of `frechet` or `plsa` by a slow, independent and
exact method, and refuses inputs past its limit through errors.check_size.
No production module imports this one.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import check_size, check_threshold
from .frechet import frechet_decision
from .geometry import Chain3D
from .plsa import NEG, AlignmentResult, _empty_result, _finish, star_compatible

__all__ = [
    "brute_force_frechet",
    "brute_force_frechet_segments",
    "plsa_static_pair",
    "plsa_oracle",
    "plsa_oracle_walks",
    "ORACLE_LIMIT",
]

BRUTE_FORCE_LIMIT = 16
SEGMENT_LIMIT = 10
ORACLE_LIMIT = 18
WALK_ORACLE_LIMIT = 16
WALK_ORACLE_STATE_LIMIT = 30


def plsa_static_pair(a: Chain3D, b: Chain3D, delta: float) -> AlignmentResult:
    """Optimal two-chain alignment by the direct dynamic program.

    State (i, j) is the best alignment whose walk ends with a_i coupled to
    b_j; each state scans every predecessor state, so the total work is
    quadratic per state (quartic overall).  Serves as the reference against
    which the prefix-maximum implementation is checked exactly.
    """
    check_threshold(delta)
    pa, pb = a.points, b.points
    n1, n2 = len(pa), len(pb)
    d = math.dist

    # t[i][j]: total vertices of the best walk ending at (i, j); -inf = invalid
    t = [[NEG] * n2 for _ in range(n1)]
    tt = [[NEG] * n1 for _ in range(n2)]  # transposed copy for column scans
    pred: list[list[tuple[int, int] | None]] = [[None] * n2 for _ in range(n1)]
    best_val = 0
    best_cell: tuple[int, int] | None = None

    for i in range(n1):
        ai = pa[i]
        row = t[i]
        for j in range(n2):
            if d(ai, pb[j]) > delta:
                continue
            val = 2
            arg: tuple[int, int] | None = None
            # both chains advance: predecessor anywhere in the open rectangle
            if i and j:
                rect = NEG
                arg_k: tuple[int, int] | None = None
                for k in range(i):
                    rk = max(t[k][:j])
                    if rk > rect:
                        rect = rk
                        arg_k = (k, t[k].index(rk))
                if rect + 2 > val:
                    val = rect + 2
                    arg = arg_k
            # only A advances: predecessor above in the same column
            if i:
                col = tt[j]
                cm = max(col[:i])
                if cm + 1 > val:
                    val = cm + 1
                    arg = (col.index(cm), j)
            # only B advances: predecessor earlier in the same row
            if j:
                rm = max(row[:j])
                if rm + 1 > val:
                    val = rm + 1
                    arg = (i, row.index(rm))
            row[j] = val
            tt[j][i] = val
            pred[i][j] = arg
            if val > best_val:
                best_val = val
                best_cell = (i, j)

    if best_cell is None:
        return _empty_result(2)
    steps: list[tuple[int, ...]] = []
    cur: tuple[int, int] | None = best_cell
    while cur is not None:
        steps.append((cur[0] + 1, cur[1] + 1))
        cur = pred[cur[0]][cur[1]]
    return _finish(steps, best_val, (a, b), delta)


def brute_force_frechet(a: Chain3D, b: Chain3D) -> float:
    """Minimum over all unit-step couplings of the worst pair distance.

    Exponential; guarded to |A| + |B| <= 16.  Used as the independent
    oracle for discrete_frechet.
    """
    pa, pb = a.points, b.points
    n, m = len(pa), len(pb)
    check_size(n + m, BRUTE_FORCE_LIMIT, "vertices in |A| + |B|")
    d = math.dist
    best = math.inf

    def walk(i: int, j: int, worst: float) -> None:
        nonlocal best
        worst = max(worst, d(pa[i], pb[j]))
        if worst >= best:
            return
        if i == n - 1 and j == m - 1:
            best = worst
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, worst)
        if i + 1 < n:
            walk(i + 1, j, worst)
        if j + 1 < m:
            walk(i, j + 1, worst)

    walk(0, 0, 0.0)
    return best


def brute_force_frechet_segments(a: Chain3D, b: Chain3D) -> float:
    """Same distance via the segment-partition form of the definition.

    Both chains are cut into the same number of consecutive runs, where in
    each aligned run pair at least one side is a single vertex; the cost of
    a run pair is its largest cross distance.  Minimizing the walk maximum
    over all partitions must agree with the unit-step form exactly.
    Guarded to |A| + |B| <= 10.
    """
    pa, pb = a.points, b.points
    n, m = len(pa), len(pb)
    check_size(n + m, SEGMENT_LIMIT, "vertices in |A| + |B|")
    d = math.dist
    best = math.inf

    def seg_cost(i0: int, i1: int, j0: int, j1: int) -> float:
        return max(d(pa[i], pb[j]) for i in range(i0, i1) for j in range(j0, j1))

    def go(i: int, j: int, worst: float) -> None:
        nonlocal best
        if worst >= best:
            return
        if i == n and j == m:
            best = worst
            return
        if i == n or j == m:
            return
        # one A vertex against a run of B vertices
        for j2 in range(j + 1, m + 1):
            go(i + 1, j2, max(worst, seg_cost(i, i + 1, j, j2)))
        # a run of at least two A vertices against one B vertex
        for i2 in range(i + 2, n + 1):
            go(i2, j + 1, max(worst, seg_cost(i, i2, j, j + 1)))

    go(0, 0, 0.0)
    return best


def _coupling_feasible(
    polys: list[list[tuple[float, float, float]]], delta: float
) -> bool:
    """Is there a unit-step coupling of these polylines with every coupled
    tuple star-compatible?  Couplings start on the first vertices and end on
    the last."""
    shape = tuple(len(p) for p in polys)
    m = len(polys)
    reach = np.zeros(shape, dtype=bool)
    moves = [mv for mv in itertools.product((0, 1), repeat=m) if any(mv)]
    for s in np.ndindex(shape):
        if not star_compatible([polys[c][s[c]] for c in range(m)], delta):
            continue
        if all(c == 0 for c in s):
            reach[s] = True
            continue
        for mv in moves:
            p = tuple(sc - mc for sc, mc in zip(s, mv))
            if all(c >= 0 for c in p) and reach[p]:
                reach[s] = True
                break
    return bool(reach[tuple(c - 1 for c in shape)])


def plsa_oracle(chains: Sequence[Chain3D], delta: float) -> int:
    """Exhaustive alignment value: try every subsequence tuple, largest
    total first, and accept the first one admitting a delta-compatible
    coupling.  Two chains reuse the frechet module for that test; more
    chains run a direct coupling reachability check.  Guarded to a total
    of ORACLE_LIMIT vertices.
    """
    m = len(chains)
    if m < 2:
        raise ValueError("need at least two chains")
    check_threshold(delta)
    sizes = [len(c) for c in chains]
    check_size(sum(sizes), ORACLE_LIMIT, "vertices in total")
    pts = [c.points for c in chains]
    d = math.dist
    ok2: list[list[bool]] | None = None
    if m == 2:
        ok2 = [[d(p, q) <= delta for q in pts[1]] for p in pts[0]]

    def compositions(total: int) -> list[tuple[int, ...]]:
        out = []
        def go(rest: int, c: int, acc: tuple[int, ...]):
            if c == m - 1:
                if 1 <= rest <= sizes[c]:
                    out.append(acc + (rest,))
                return
            lo = max(1, rest - sum(sizes[c + 1:]))
            for k in range(min(sizes[c], rest - (m - 1 - c)), lo - 1, -1):
                go(rest - k, c + 1, acc + (k,))
        go(total, 0, ())
        return out

    for total in range(sum(sizes), m - 1, -1):
        for comp in compositions(total):
            pools = [itertools.combinations(range(sizes[c]), comp[c]) for c in range(m)]
            for picks in itertools.product(*pools):
                # a coupling pins first to first and last to last, so those
                # tuples must be compatible; cheap filter before the full test
                if ok2 is not None:
                    if not (ok2[picks[0][0]][picks[1][0]] and ok2[picks[0][-1]][picks[1][-1]]):
                        continue
                    ca = Chain3D("a", tuple(chains[0].points[i] for i in picks[0]))
                    cb = Chain3D("b", tuple(chains[1].points[i] for i in picks[1]))
                    feasible = frechet_decision(ca, cb, delta)
                else:
                    firsts = [pts[c][picks[c][0]] for c in range(m)]
                    lasts = [pts[c][picks[c][-1]] for c in range(m)]
                    if not star_compatible(firsts, delta) or not star_compatible(lasts, delta):
                        continue
                    polys = [[pts[c][i] for i in picks[c]] for c in range(m)]
                    feasible = _coupling_feasible(polys, delta)
                if feasible:
                    return total
    return 0


def plsa_oracle_walks(chains: Sequence[Chain3D], delta: float) -> int:
    """Second, independently ordered enumeration: depth-first over every
    monotone lattice walk of delta-compatible index tuples, counting
    distinct indices per chain.  Exponential; guarded tighter than
    plsa_oracle and used only to cross-check it.
    """
    m = len(chains)
    if m < 2:
        raise ValueError("need at least two chains")
    check_threshold(delta)
    sizes = [len(c) for c in chains]
    check_size(sum(sizes), WALK_ORACLE_LIMIT, "vertices in total")
    pts = [c.points for c in chains]
    valid = [
        s for s in np.ndindex(*sizes)
        if star_compatible([pts[c][s[c]] for c in range(m)], delta)
    ]
    # the walk count is exponential in the number of compatible tuples, not
    # in the chain lengths, so the second guard is on that count
    check_size(len(valid), WALK_ORACLE_STATE_LIMIT, "compatible tuples")
    best = 0

    def extend(s: tuple[int, ...], used: list[set[int]]) -> None:
        nonlocal best
        total = sum(len(u) for u in used)
        if total > best:
            best = total
        for nxt in valid:
            if nxt == s or any(nc < sc for nc, sc in zip(nxt, s)):
                continue
            extend(nxt, [u | {c} for u, c in zip(used, nxt)])

    for s in valid:
        extend(s, [{c} for c in s])
    return best
