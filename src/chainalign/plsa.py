"""Local structure alignment of 3D chains under the discrete Frechet distance.

Pick a subsequence from each chain, then walk all subsequences jointly: one
step couples one vertex per chain, and every consecutive step advances at
least one chain to its next chosen vertex while the others hold position.
A step is admissible when some chain's vertex in the tuple (the star center)
is within delta of the others.  For two chains that is exactly "the coupled
pair is within delta", so an alignment is a subsequence pair whose polylines
have discrete Frechet distance at most delta.

The objective is the total number of chain vertices used, counting each
vertex once even when the walk holds it across several steps.  The dynamic
programs track one counter per chain: a step advancing a set of chains adds
one per advanced chain and nothing for chains that stay, so the optimized
table value is exactly the sum of those counters.

States whose end tuple is out of range never carry a value (they are kept
at -inf and never extended); 0 is reserved for the empty alignment, which
is reported when no vertex tuple is within delta at all.  All threshold
comparisons are closed (<=) with no tolerance.

Ties are broken deterministically: the end state is the first optimum in
lexicographic index order, and each traceback step prefers the predecessor
advancing the most chains, then the lexicographically smallest index tuple.
Everything here is pure and immutable, so results are safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    IncompatibleWalk,
    InvariantError,
    TooLarge,
    UnsupportedArity,
    check_threshold,
)
from .frechet import discrete_frechet, frechet_decision
from .geometry import Chain3D

__all__ = [
    "JointWalk",
    "AlignmentResult",
    "plsa_static_pair",
    "plsa_static_pair_fast",
    "plsa_static_multi",
    "plsa_oracle",
    "plsa_oracle_walks",
    "reconstruct_common_chain",
    "star_compatible",
    "validate_joint_walk",
    "validate_alignment_result",
    "ORACLE_LIMIT",
    "MAX_ARITY",
    "MULTI_STATE_LIMIT",
    "PAIR_CELL_LIMIT",
]

ORACLE_LIMIT = 18
WALK_ORACLE_LIMIT = 16
WALK_ORACLE_STATE_LIMIT = 30
MAX_ARITY = 4
# plsa_static_multi compares every pair of index tuples: 3 chains of 18
# vertices (5832 tuples) take about 20 s when every tuple is compatible
MULTI_STATE_LIMIT = 6000
# plsa_static_pair_fast holds about 16 bytes per cell at its peak, so
# 5000 x 5000 cells take about 0.4 GB
PAIR_CELL_LIMIT = 25_000_000
# numpy's sqrt of the summed squares and math.dist both take the norm of the
# same rounded coordinate differences, each within 3 ulps of the exact norm
# unless a square underflows; DIST_REL_SLACK covers both with room to spare,
# and DIST_ABS_SLACK covers the sqrt(3 * 2**-1074) ~ 4e-162 absolute error of
# underflowed squares
DIST_REL_SLACK = 16 * np.finfo(float).eps
DIST_ABS_SLACK = 1e-150

NEG = float("-inf")


@dataclass(frozen=True)
class JointWalk:
    """Steps of 1-based vertex indices, one per chain.

    Per chain the index sequence is non-decreasing; every consecutive step
    strictly advances at least one chain.  A strict increase moves that chain
    to its next selected vertex (skipped vertices are simply not part of the
    alignment), so no chain ever advances by more than one selected vertex
    per step.
    """

    steps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AlignmentResult:
    """value = total vertices used = sum of per-chain subsequence lengths.

    subsequences holds the 1-based selected indices per chain (strictly
    increasing).  common_chain is a chain built from the walk's star centers;
    it is None exactly for the empty alignment (value 0).
    """

    value: int
    subsequences: tuple[tuple[int, ...], ...]
    walk: JointWalk
    common_chain: Chain3D | None


def _star_center(points: Sequence[tuple[float, float, float]], delta: float) -> int | None:
    d = math.dist
    for c, cand in enumerate(points):
        if all(d(cand, p) <= delta for p in points):
            return c
    return None


def star_compatible(points: Sequence[tuple[float, float, float]], delta: float) -> bool:
    """True iff some member is within delta (closed) of all the others."""
    return _star_center(points, delta) is not None


def _empty_result(m: int) -> AlignmentResult:
    return AlignmentResult(0, tuple(() for _ in range(m)), JointWalk(()), None)


def _subsequences_from_walk(steps: Sequence[tuple[int, ...]], m: int) -> tuple[tuple[int, ...], ...]:
    subs: list[list[int]] = [[] for _ in range(m)]
    for step in steps:
        for c in range(m):
            if not subs[c] or subs[c][-1] != step[c]:
                subs[c].append(step[c])
    return tuple(tuple(s) for s in subs)


def _finish(
    rev_steps: list[tuple[int, ...]], value: int, chains: Sequence[Chain3D], delta: float
) -> AlignmentResult:
    """The result of a non-empty DP optimum from its 1-based traceback,
    which lists the walk's steps end first."""
    rev_steps.reverse()
    walk = JointWalk(tuple(rev_steps))
    subs = _subsequences_from_walk(rev_steps, len(chains))
    if value != sum(len(s) for s in subs):
        raise InvariantError("alignment value disagrees with its walk")
    return AlignmentResult(value, subs, walk, reconstruct_common_chain(walk, chains, delta))


def reconstruct_common_chain(
    walk: JointWalk, chains: Sequence[Chain3D], delta: float
) -> Chain3D | None:
    """Common chain formed by each step's star center, repeats collapsed.

    The center of a step is the lowest-index chain whose vertex is within
    delta of every other vertex in the tuple; consecutive steps that pick
    the same vertex contribute it once.  By construction the result is
    within discrete Frechet distance delta of every selected subsequence.
    Raises IncompatibleWalk if any step has no center.  Returns None for
    the empty walk.
    """
    if not walk.steps:
        return None
    pts = [c.points for c in chains]
    picked: list[tuple[int, int]] = []
    for step in walk.steps:
        tup = [pts[c][idx - 1] for c, idx in enumerate(step)]
        center = _star_center(tup, delta)
        if center is None:
            raise IncompatibleWalk(f"step {step} has no vertex within {delta} of the others")
        choice = (center, step[center])
        if not picked or picked[-1] != choice:
            picked.append(choice)
    return Chain3D("common", tuple(chains[c].points[idx - 1] for c, idx in picked))


def validate_joint_walk(walk: JointWalk, chains: Sequence[Chain3D], delta: float) -> None:
    """Raise InvariantError unless the walk is well-formed and delta-compatible."""
    m = len(chains)
    pts = [c.points for c in chains]
    for step in walk.steps:
        if len(step) != m:
            raise InvariantError(f"step arity {len(step)} != {m}")
        for c, idx in enumerate(step):
            if not 1 <= idx <= len(pts[c]):
                raise InvariantError(f"index {idx} out of range for chain {c}")
        if not star_compatible([pts[c][idx - 1] for c, idx in enumerate(step)], delta):
            raise InvariantError(f"step {step} is not delta-compatible")
    for prev, cur in zip(walk.steps, walk.steps[1:]):
        if any(c < p for p, c in zip(prev, cur)):
            raise InvariantError(f"walk not monotone at {prev} -> {cur}")
        if all(c == p for p, c in zip(prev, cur)):
            raise InvariantError(f"walk stalls at {prev}")


def validate_alignment_result(
    result: AlignmentResult,
    chains: Sequence[Chain3D],
    delta: float,
    tol: float = 1e-9,
) -> None:
    """Check every documented invariant of an AlignmentResult.

    Raises InvariantError on the first violation.  The common-chain check
    decides d_F(common, subsequence polyline) <= delta + tol with the
    frechet module's reachability sweep, i.e. independently of how the
    result was produced; only when it fails is the full distance computed,
    to report it.
    """
    check_threshold(delta)
    m = len(chains)
    if len(result.subsequences) != m:
        raise InvariantError("one subsequence per chain is required")
    if result.value != sum(len(s) for s in result.subsequences):
        raise InvariantError(f"value {result.value} != total subsequence length")
    for c, sub in enumerate(result.subsequences):
        if any(b <= a for a, b in zip(sub, sub[1:])):
            raise InvariantError(f"subsequence for chain {c} is not strictly increasing")
        if any(not 1 <= i <= len(chains[c]) for i in sub):
            raise InvariantError(f"subsequence for chain {c} has out-of-range indices")
    if result.value == 0:
        if result.walk.steps or result.common_chain is not None:
            raise InvariantError("empty alignment must have an empty walk and no common chain")
        return
    validate_joint_walk(result.walk, chains, delta)
    if _subsequences_from_walk(result.walk.steps, m) != result.subsequences:
        raise InvariantError("walk does not induce the reported subsequences")
    if result.common_chain is None:
        raise InvariantError("non-empty alignment must carry a common chain")
    for c, sub in enumerate(result.subsequences):
        poly = Chain3D("sub", tuple(chains[c].points[i - 1] for i in sub))
        if not frechet_decision(result.common_chain, poly, delta + tol):
            got = discrete_frechet(result.common_chain, poly).value
            raise InvariantError(
                f"common chain is {got} from chain {c} subsequence, beyond {delta} + {tol}"
            )


# ---------------------------------------------------------------------------
# reference quadratic-transitions-per-state dynamic program (two chains)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# prefix-maximum dynamic program (two chains, quadratic total work)
# ---------------------------------------------------------------------------

def _within_delta(a: Chain3D, b: Chain3D, delta: float) -> np.ndarray:
    """The (|A|, |B|) matrix of math.dist(a_i, b_j) <= delta, bit for bit.

    numpy computes every distance; the cells it places within rounding
    slack of delta, or at inf (an overflowed square), are re-decided with
    math.dist as the reference does.
    """
    pa, pb = a.as_array(), b.as_array()
    dmat = np.zeros((len(pa), len(pb)))
    diff = np.empty_like(dmat)
    with np.errstate(over="ignore"):  # an overflowed square is re-decided
        for k in range(3):
            np.subtract.outer(pa[:, k], pb[:, k], out=diff)
            np.multiply(diff, diff, out=diff)
            dmat += diff
    del diff
    np.sqrt(dmat, out=dmat)
    valid = dmat <= delta
    slack = DIST_REL_SLACK * delta + DIST_ABS_SLACK
    unsure = (dmat >= delta - slack) & ((dmat <= delta + slack) | (dmat == np.inf))
    pa, pb = a.points, b.points
    for i, j in zip(*np.nonzero(unsure)):
        valid[i, j] = math.dist(pa[i], pb[j]) <= delta
    return valid


def plsa_static_pair_fast(a: Chain3D, b: Chain3D, delta: float) -> AlignmentResult:
    """Same contract and tie-breaking as plsa_static_pair in O(|A| |B|).

    The three predecessor scans collapse into running maxima: a rectangle
    prefix maximum for both-advances, and for A- and B-advances the
    previous valid cell of the current column or row (values increase
    strictly along the valid cells of a row or column, so that cell is the
    unique maximum).  Values agree with the reference exactly.  More than
    PAIR_CELL_LIMIT cells raise TooLarge before any allocation.
    """
    check_threshold(delta)
    n1, n2 = len(a), len(b)
    if n1 * n2 > PAIR_CELL_LIMIT:
        raise TooLarge(
            f"{n1 * n2} cells ({n1} x {n2}) exceed the pair limit of {PAIR_CELL_LIMIT}"
        )
    valid = _within_delta(a, b, delta)
    # pred[i, j]: flat index k * n2 + l of the step before (i, j) on the
    # cell's optimal walk; -1 where that walk starts
    pred = np.full((n1, n2), -1, dtype=np.int64)

    col_val = np.full(n2, NEG)  # last valid cell above row i in column j
    col_arg = np.full(n2, -1, dtype=np.int64)
    rect_val = np.full(n2, NEG)  # max over rows < i, cols < j
    rect_arg = np.full(n2, -1, dtype=np.int64)
    row = np.empty(n2)
    cols = np.arange(n2)

    best_val = 0
    best = -1

    for i in range(n1):
        vc = np.flatnonzero(valid[i])
        if not vc.size:
            continue
        both = rect_val[vc] + 2.0
        up = col_val[vc] + 1.0
        base = np.maximum(2.0, np.maximum(both, up))
        pos = cols[: vc.size]
        x = pos + np.maximum.accumulate(base - pos)
        flat = i * n2 + vc
        pred[i, vc] = np.where(
            x > base, np.concatenate(([-1], flat[:-1])),
            np.where(both == x, rect_arg[vc], np.where(up == x, col_arg[vc], -1)),
        )
        if x[-1] > best_val:
            best_val, best = int(x[-1]), int(flat[-1])

        col_val[vc] = x
        col_arg[vc] = flat
        row.fill(NEG)
        row[vc] = x
        prefix = np.maximum.accumulate(row)[:-1]
        last = np.maximum.accumulate(np.where(valid[i], cols, -1))[:-1]
        better = prefix > rect_val[1:]
        rect_val[1:][better] = prefix[better]
        rect_arg[1:][better] = i * n2 + last[better]

    if best < 0:
        return _empty_result(2)
    steps: list[tuple[int, ...]] = []
    while best >= 0:
        i, j = divmod(best, n2)
        steps.append((i + 1, j + 1))
        best = int(pred.flat[best])
    return _finish(steps, best_val, (a, b), delta)


# ---------------------------------------------------------------------------
# multi-chain dynamic program (star compatibility per step)
# ---------------------------------------------------------------------------

def plsa_static_multi(chains: Sequence[Chain3D], delta: float) -> AlignmentResult:
    """Optimal alignment of 2..4 chains under per-step star compatibility.

    The state space is every index tuple; each state scans all componentwise
    smaller states, so this is for desk-scale chains: more than
    MULTI_STATE_LIMIT index tuples raise TooLarge before any work.  With two
    chains the star condition degenerates to the pair condition and the
    result matches plsa_static_pair exactly.
    """
    m = len(chains)
    if m < 2:
        raise ValueError("need at least two chains")
    if m > MAX_ARITY:
        raise UnsupportedArity(f"{m} chains exceed the supported maximum of {MAX_ARITY}")
    check_threshold(delta)
    shape = tuple(len(c) for c in chains)
    if math.prod(shape) > MULTI_STATE_LIMIT:
        raise TooLarge(
            f"{math.prod(shape)} index tuples ({' x '.join(map(str, shape))}) exceed "
            f"the multi-chain limit of {MULTI_STATE_LIMIT}"
        )
    pts = [c.points for c in chains]

    states = list(np.ndindex(shape))
    ok = {
        s: star_compatible([pts[c][s[c]] for c in range(m)], delta) for s in states
    }
    val: dict[tuple[int, ...], int] = {}
    pred: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    best_val = 0
    best_state: tuple[int, ...] | None = None

    for s in states:
        if not ok[s]:
            continue
        v, adv_best, arg = m, 0, None
        for p in states:
            if p not in val or any(pc > sc for pc, sc in zip(p, s)):
                continue
            adv = sum(pc < sc for pc, sc in zip(p, s))
            if adv == 0:
                continue
            cand = val[p] + adv
            if cand > v or (cand == v and adv > adv_best):
                v, adv_best, arg = cand, adv, p
        val[s] = v
        pred[s] = arg
        if v > best_val:
            best_val = v
            best_state = s

    if best_state is None:
        return _empty_result(m)
    steps: list[tuple[int, ...]] = []
    cur: tuple[int, ...] | None = best_state
    while cur is not None:
        steps.append(tuple(c + 1 for c in cur))
        cur = pred[cur]
    return _finish(steps, best_val, chains, delta)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

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
    if sum(sizes) > ORACLE_LIMIT:
        raise TooLarge(f"total vertex count {sum(sizes)} exceeds {ORACLE_LIMIT}")
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
    if sum(sizes) > WALK_ORACLE_LIMIT:
        raise TooLarge(f"total vertex count {sum(sizes)} exceeds {WALK_ORACLE_LIMIT}")
    pts = [c.points for c in chains]
    valid = [
        s for s in np.ndindex(*sizes)
        if star_compatible([pts[c][s[c]] for c in range(m)], delta)
    ]
    # the walk count is exponential in the number of compatible tuples, not
    # in the chain lengths, so the second guard is on that count
    if len(valid) > WALK_ORACLE_STATE_LIMIT:
        raise TooLarge(f"{len(valid)} compatible tuples exceed {WALK_ORACLE_STATE_LIMIT}")
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
