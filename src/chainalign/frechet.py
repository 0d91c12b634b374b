"""Discrete Frechet distance between polygonal chains.

The distance is the smallest worst vertex-pair distance achievable by a
coupling: a monotone walk of two pointers that starts on the first vertices,
ends on the last, and advances one chain or both by one vertex per step.
The quadratic dynamic program computes it exactly, with an optimal coupling,
and a reachability sweep decides "distance <= delta" exactly without building
the table.  The brute-force enumerators these are checked against live in
chainalign.oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_size, check_threshold
from .geometry import Chain3D

__all__ = [
    "PairedWalk",
    "FrechetResult",
    "discrete_frechet",
    "frechet_decision",
    "validate_paired_walk",
    "PAIR_CELL_LIMIT",
]

# the most cells a table indexed by two chains' vertices may hold; the
# distance table here peaks at about 16 bytes per cell, so 5000 x 5000
# cells take about 0.4 GB, and plsa's fast pair DP at most about 12 bytes
# per valid cell
PAIR_CELL_LIMIT = 25_000_000


@dataclass(frozen=True)
class PairedWalk:
    """A coupling as 1-based index pairs, from (1, 1) to (|A|, |B|)."""

    steps: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FrechetResult:
    value: float
    walk: PairedWalk
    witness: tuple[int, int]


def validate_paired_walk(walk: PairedWalk, n_a: int, n_b: int) -> None:
    """Raise ValueError unless the walk is a well-formed coupling."""
    steps = walk.steps
    if not steps:
        raise ValueError("empty walk")
    if steps[0] != (1, 1):
        raise ValueError(f"walk must start at (1, 1), got {steps[0]}")
    if steps[-1] != (n_a, n_b):
        raise ValueError(f"walk must end at ({n_a}, {n_b}), got {steps[-1]}")
    for (i0, j0), (i1, j1) in zip(steps, steps[1:]):
        di, dj = i1 - i0, j1 - j0
        if di not in (0, 1) or dj not in (0, 1) or (di, dj) == (0, 0):
            raise ValueError(f"illegal step ({i0},{j0}) -> ({i1},{j1})")


def discrete_frechet(a: Chain3D, b: Chain3D) -> FrechetResult:
    """Exact discrete Frechet distance with an optimal coupling.

    dp[i][j] is the best achievable worst pair over couplings of the
    prefixes ending at (i, j).  Walk reconstruction prefers, on ties,
    advancing both chains, then chain A, then chain B.  More than
    PAIR_CELL_LIMIT cells get TooLarge before the table exists.
    """
    pa, pb = a.points, b.points
    n, m = len(pa), len(pb)
    check_size(n * m, PAIR_CELL_LIMIT, f"cells ({n} x {m})")
    d = math.dist
    inf = math.inf

    dp = [[0.0] * m for _ in range(n)]
    for i in range(n):
        ai = pa[i]
        row = dp[i]
        prev = dp[i - 1] if i else None
        for j in range(m):
            cost = d(ai, pb[j])
            if i == 0 and j == 0:
                best = cost
            elif i == 0:
                best = max(row[j - 1], cost)
            elif j == 0:
                best = max(prev[0], cost)
            else:
                best = max(min(prev[j - 1], prev[j], row[j - 1]), cost)
            row[j] = best

    steps = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        if i == 0:
            i, j = 0, j - 1
        elif j == 0:
            i, j = i - 1, 0
        else:
            best = min(dp[i - 1][j - 1], dp[i - 1][j], dp[i][j - 1])
            if dp[i - 1][j - 1] == best:
                i, j = i - 1, j - 1
            elif dp[i - 1][j] == best:
                i, j = i - 1, j
            else:
                i, j = i, j - 1
        steps.append((i, j))
    steps.reverse()

    value = dp[n - 1][m - 1]
    witness = next((i + 1, j + 1) for i, j in steps if d(pa[i], pb[j]) == value)
    walk = PairedWalk(tuple((i + 1, j + 1) for i, j in steps))
    return FrechetResult(value, walk, witness)


def frechet_decision(a: Chain3D, b: Chain3D, delta: float) -> bool:
    """True iff the discrete Frechet distance is at most delta (closed).

    Exact: the answer equals discrete_frechet(a, b).value <= delta bit for
    bit, because it tests the same math.dist values with the same closed
    comparison, and a coupling has worst pair <= delta exactly when every
    cell on it is within delta.

    A reachability sweep with no traceback: row i of A keeps the columns of
    B reachable from (0, 0) as sorted runs (lo, hi).  The next row is seeded
    by the free cells in [lo, hi + 1] of each run, and each seed extends
    right while the next cell is free.  Returns early when either endpoint
    pair is farther than delta or a row has no reachable cell.  The cost is
    proportional to the cells next to the reachable region, O(|A| |B|) in
    the worst case.
    """
    check_threshold(delta)
    pa, pb = a.points, b.points
    m = len(pb)
    d = math.dist
    if d(pa[0], pb[0]) > delta or d(pa[-1], pb[-1]) > delta:
        return False
    runs = [(0, -1)]  # an empty run left of column 0 seeds exactly (0, 0)
    for ai in pa:
        nxt_runs = []
        j = 0  # first column of this row not yet examined
        for lo, hi in runs:
            if j < lo:
                j = lo
            stop = min(hi + 1, m - 1)
            while j <= stop:
                if d(ai, pb[j]) <= delta:
                    k = j + 1
                    while k < m and d(ai, pb[k]) <= delta:
                        k += 1
                    nxt_runs.append((j, k - 1))
                    j = k + 1  # column k is blocked or past the end
                else:
                    j += 1
        if not nxt_runs:
            return False
        runs = nxt_runs
    return runs[-1][1] == m - 1
