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
threads.  The reference solvers that check these DPs are in chainalign.oracles.
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
    UnsupportedArity,
    check_size,
    check_threshold,
)
from .frechet import PAIR_CELL_LIMIT, discrete_frechet, frechet_decision
from .geometry import Chain3D

__all__ = [
    "JointWalk",
    "AlignmentResult",
    "plsa_static_pair_fast",
    "plsa_static_multi",
    "reconstruct_common_chain",
    "star_compatible",
    "validate_joint_walk",
    "validate_alignment_result",
    "MAX_ARITY",
    "MULTI_STATE_LIMIT",
    "PAIR_CELL_LIMIT",
]

MAX_ARITY = 4
# plsa_static_multi fills one table over the index tuples: 4 chains at the
# limit (18 x 18 x 18 x 17) take about 1 s and 5 MB when all compatible
MULTI_STATE_LIMIT = 100_000
# common-chain check slack of validate_alignment_result
VALIDATE_TOL = 1e-9
# numpy's sqrt of the summed squares and math.dist both take the norm of the
# same rounded coordinate differences, each within 3 ulps of the exact norm
# unless a square underflows; DIST_REL_SLACK covers both with room to spare,
# and DIST_ABS_SLACK covers the sqrt(3 * 2**-1074) ~ 4e-162 absolute error of
# underflowed squares
DIST_REL_SLACK = 16 * np.finfo(float).eps
DIST_ABS_SLACK = 1e-150
# flat cell indices i * |B| + j, and positions in a list of cells, fit in
# int32 below 2**31 cells
CELL_INDEX = np.int32 if PAIR_CELL_LIMIT < 2**31 else np.int64
# _valid_cells computes a row block as a rectangle of at most BLOCK_CELLS
# cells or as its rows' x runs, about BLOCK_CELLS // 4 cells, which bounds
# its distance temporaries
BLOCK_CELLS = 1 << 16

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
) -> None:
    """Check every documented invariant of an AlignmentResult.

    Raises InvariantError on the first violation.  The common-chain check
    decides d_F(common, subsequence polyline) <= delta + VALIDATE_TOL with
    the frechet module's reachability sweep, i.e. independently of how the
    result was produced; only when it fails is the full distance computed,
    to report it, and only when its table is within PAIR_CELL_LIMIT.
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
        if not frechet_decision(result.common_chain, poly, delta + VALIDATE_TOL):
            got = "too far"
            if len(result.common_chain) * len(poly) <= PAIR_CELL_LIMIT:
                got = discrete_frechet(result.common_chain, poly).value
            raise InvariantError(
                f"common chain is {got} from chain {c} subsequence, "
                f"beyond {delta} + {VALIDATE_TOL}"
            )


# ---------------------------------------------------------------------------
# prefix-maximum dynamic program (two chains, quadratic total work)
# ---------------------------------------------------------------------------

def _valid_cells(pa: np.ndarray, pb: np.ndarray, delta: float) -> np.ndarray:
    """The cells (i, j) with math.dist(a_i, b_j) <= delta, bit for bit, as
    ascending flat indices i * |B| + j, from the (n, 3) coordinate arrays
    of the two chains.

    A valid cell's x gap is within delta + slack, so the candidates of a_i
    are its run of B sorted by x, bounded by two binary searches.  The run
    holds exactly the points whose x lies within reach of a_i's, so neither
    it nor the output depends on how B's x ties are sorted.  Rows of A are
    taken in index order, in blocks whose runs hold about BLOCK_CELLS // 4
    cells.  A block whose rows by the union of their runs make at most
    twice its runs' cells, and at most BLOCK_CELLS, is computed as that
    rectangle, with its columns put back in index order, so its valid cells
    come out ascending.  Any other block computes only its rows' runs, as
    (row, column) pairs, and sorts its valid cells.  Each distance is
    numpy's sqrt of the squared differences summed over x, y and z.  Those
    it places within rounding slack of delta, or at inf (an overflowed
    square), are re-decided with math.dist on the rows' floats, which are
    those of the chains' Point3s.
    """
    n2 = len(pb)
    order = np.argsort(pb[:, 0])
    sb = np.ascontiguousarray(pb.take(order, axis=0).T)  # (3, |B|), sorted by x
    found = [np.empty(0, dtype=CELL_INDEX)]
    # a bound at inf holds every larger float, and an overflowed square is
    # re-decided
    with np.errstate(over="ignore"):
        slack = DIST_REL_SLACK * delta + DIST_ABS_SLACK
        # numpy's distances in [unsure_lo, unsure_hi] are re-decided
        unsure_lo, unsure_hi = delta - slack, delta + slack
        # a cell numpy or math.dist puts within delta has a rounded x gap
        # within delta + slack; the second slack covers the rounding of that
        # gap and of the band's ends
        reach = delta + 2 * slack
        lo = np.searchsorted(sb[0], pa[:, 0] - reach, side="left")
        hi = np.searchsorted(sb[0], pa[:, 0] + reach, side="right")
        own = hi - lo
        # a block starts where the runs' cells above a row pass a multiple
        # of BLOCK_CELLS // 4
        firsts = np.flatnonzero(np.diff((np.cumsum(own) - own) // max(1, BLOCK_CELLS // 4),
                                        prepend=-1))
        lasts = np.append(firsts[1:], len(pa))
        cells = np.add.reduceat(own, firsts)
        c0 = np.minimum.reduceat(lo, firsts)
        c1 = np.maximum.reduceat(hi, firsts)
        rect = (lasts - firsts) * (c1 - c0)
        dense = rect <= np.minimum(2 * cells, BLOCK_CELLS)
        buf = np.empty((2, rect[dense].max(initial=0)))

        def decide(dist, pair):
            # the flat positions of the valid cells of a block, from its
            # squared distances; pair(f) is the (i, j) of position f
            np.sqrt(dist, out=dist)
            valid = dist <= delta
            unsure = (dist >= unsure_lo) & ((dist <= unsure_hi) | (dist == np.inf))
            flat = valid.reshape(-1)
            for f in np.flatnonzero(unsure).tolist():
                i, j = pair(f)
                flat[f] = math.dist(pa[i].tolist(), pb[j].tolist()) <= delta
            return np.flatnonzero(flat)

        blocks = zip(*(v.tolist() for v in (firsts, lasts, cells, c0, c1, dense)))
        for r0, r1, m, s0, s1, is_dense in blocks:
            if m == 0:
                continue
            if is_dense:
                cols = np.sort(order[s0:s1])
                qb = pb.take(cols, axis=0)
                w = cols.size
                dist = buf[0, : (r1 - r0) * w].reshape(r1 - r0, w)
                diff = buf[1, : (r1 - r0) * w].reshape(r1 - r0, w)
                np.subtract.outer(pa[r0:r1, 0], qb[:, 0], out=dist)
                np.multiply(dist, dist, out=dist)
                for k in (1, 2):
                    np.subtract.outer(pa[r0:r1, k], qb[:, k], out=diff)
                    np.multiply(diff, diff, out=diff)
                    dist += diff
                f = decide(dist, lambda f: (r0 + f // w, cols[f % w]))
                if w < n2:  # the block's column c is B's column cols[c]
                    r, c = np.divmod(f, w)
                    f = r * n2 + cols[c]
                found.append((f + r0 * n2).astype(CELL_INDEX))
            else:
                runs = own[r0:r1]
                ends = np.cumsum(runs)
                # the block's t-th cell is at lo + t - (the cells of the rows
                # above it) in its row's run
                pos = (lo[r0:r1] - ends + runs).repeat(runs)
                pos += np.arange(m)
                dist = pa[r0:r1, 0].repeat(runs)
                dist -= sb[0].take(pos)
                np.multiply(dist, dist, out=dist)
                for k in (1, 2):
                    diff = pa[r0:r1, k].repeat(runs)
                    diff -= sb[k].take(pos)
                    np.multiply(diff, diff, out=diff)
                    dist += diff

                def pair(f):
                    return r0 + np.searchsorted(ends, f, side="right"), order[pos[f]]

                i, j = pair(decide(dist, pair))
                found.append(np.sort(i * n2 + j).astype(CELL_INDEX))
    return np.concatenate(found)


def _pair_kernel(cells: np.ndarray, n1: int, n2: int) -> tuple[int, int, np.ndarray]:
    """The prefix-maximum DP over the valid cells of an (n1, n2) grid,
    given as ascending flat indices i * n2 + j (those of _valid_cells).

    The three predecessor scans collapse into running maxima.  box_val[t]
    is the best value over the rows above and the columns left of t, with
    its first cell in box_arg[t]; both-advances read it at j, A-advances at
    j + 1.  Where the box over columns <= j beats column j alone, its
    maximum is the both-advances rectangle's, whose candidate is one
    larger, so the A-advance neither wins nor ties there.  B-advances take
    the previous valid cell of the row (values increase strictly along the
    valid cells of a row or column, so that cell is the unique maximum).
    A row without a valid cell changes neither the running maxima nor the
    best, so only the row groups of the list are visited.

    The running maximum never decreases along the columns: box_val[t + 1]
    covers every cell box_val[t] covers.  So when a row holds one valid
    cell, at column j, the columns whose maximum its value x strictly beats
    are one run starting at j, found by a binary search of box_val[j + 1:].
    Such a row reads box_val[j] and box_val[j + 1] as scalars, picks x and
    the predecessor with the vector pass's rule and tie order, and writes
    that run: O(log n2) steps, against the vector pass's O(n2) array
    operations from the row's first cell on, which rows with more cells
    still take.

    Cells are named by their position in the list.  Returns the best value,
    the position of its first cell (-1 when no cell is valid) and pred,
    which holds per valid cell the position of the step before it on its
    optimal walk, -1 where that walk starts.
    """
    pred = np.full(cells.size, -1, dtype=CELL_INDEX)
    box_val = np.full(n2 + 1, NEG)  # box_val[t]: max over rows < i, cols < t
    box_arg = np.full(n2 + 1, -1, dtype=CELL_INDEX)  # and its first cell
    # views of box_*[j + 1], so reading them costs no index arithmetic
    incl_val, incl_arg = box_val[1:], box_arg[1:]
    row = np.empty(n2)  # the row's values, then their running maximum
    held = np.empty(n2, dtype=CELL_INDEX)  # the row's last cell at or left
    cols = np.arange(n2)
    # row i's cells are cells[starts[i]:starts[i + 1]]
    starts = np.searchsorted(cells, np.arange(n1 + 1, dtype=CELL_INDEX) * n2)
    rows = np.flatnonzero(starts[1:] != starts[:-1]).tolist()
    starts = starts.tolist()

    best_val = 0
    best = -1

    for i in rows:
        s, e = starts[i], starts[i + 1]
        if e - s == 1:
            j = int(cells[s]) - i * n2
            lo, hi = box_val[j : j + 2].tolist()
            both, up = lo + 2.0, hi + 1.0
            x = max(2.0, both, up)
            pred[s] = box_arg[j] if both == x else incl_arg[j] if up == x else -1
            if x > best_val:
                best_val, best = int(x), s
            end = j + int(np.searchsorted(incl_val[j:], x))
            incl_val[j:end] = x
            incl_arg[j:end] = s
            continue
        vc = np.subtract(cells[s:e], i * n2, dtype=np.intp)
        both = box_val[vc] + 2.0
        up = incl_val[vc] + 1.0
        base = np.maximum(2.0, np.maximum(both, up))
        pos = cols[: vc.size]
        x = pos + np.maximum.accumulate(base - pos)
        at = np.arange(s, e)
        pred[s:e] = np.where(
            x > base, at - 1,
            np.where(both == x, box_arg[vc], np.where(up == x, incl_arg[vc], -1)),
        )
        if x[-1] > best_val:
            best_val, best = int(x[-1]), e - 1

        # columns left of the row's first cell keep their running maxima
        j0 = int(vc[0])
        prefix, last = row[j0:], held[j0:]
        prefix.fill(NEG)
        row[vc] = x
        np.maximum.accumulate(prefix, out=prefix)
        last.fill(-1)
        held[vc] = at
        np.maximum.accumulate(last, out=last)
        better = prefix > incl_val[j0:]
        incl_val[j0:][better] = prefix[better]
        incl_arg[j0:][better] = last[better]
    return best_val, best, pred


def plsa_static_pair_fast(a: Chain3D, b: Chain3D, delta: float) -> AlignmentResult:
    """Same contract and tie-breaking as oracles.plsa_static_pair in O(|A| |B|).

    _valid_cells lists the cells within delta, computing distances only
    for the candidates in an x band of each vertex of A, and _pair_kernel
    fills the DP over that list; the walk is read back one step at a time
    from its per-cell predecessors.  Values, walks and ties agree with the
    reference exactly.  Time and memory follow the candidate and valid
    cells, so a sparse 3000 x 3000 input peaks near 0.6 MB; with every cell
    valid they are still O(|A| |B|).  More than PAIR_CELL_LIMIT cells
    get TooLarge before any allocation.
    """
    check_threshold(delta)
    n1, n2 = len(a), len(b)
    check_size(n1 * n2, PAIR_CELL_LIMIT, f"cells ({n1} x {n2})")
    cells = _valid_cells(a.as_array(), b.as_array(), delta)
    best_val, best, pred = _pair_kernel(cells, n1, n2)
    if best < 0:
        return _empty_result(2)
    steps: list[tuple[int, ...]] = []
    while best >= 0:
        i, j = divmod(int(cells[best]), n2)
        steps.append((i + 1, j + 1))
        best = int(pred[best])
    return _finish(steps, best_val, (a, b), delta)


# ---------------------------------------------------------------------------
# multi-chain dynamic program (star compatibility per step)
# ---------------------------------------------------------------------------

def plsa_static_multi(chains: Sequence[Chain3D], delta: float) -> AlignmentResult:
    """Optimal alignment of 2..4 chains under per-step star compatibility.

    Visits index tuples s in lexicographic order.  box[s] keys the best
    valid p <= s on every chain as val * N + (N - 1 - flat): one max keeps
    the larger value, then the smaller state.  Advancing the non-empty set
    S of chains, the best predecessor is read at box[s - 1_S].  A state
    there that also advances chains outside S is undercounted through S and
    counted exactly through its own set, so the best value is unchanged;
    and a predecessor that attains it advances exactly S, so ties still go
    to the most chains advanced, then the smallest state.  Work is
    O((2^m + m) N) for N index tuples; more than MULTI_STATE_LIMIT raise
    TooLarge before the table exists.  With two chains the result matches
    the reference oracles.plsa_static_pair exactly.
    """
    m = len(chains)
    if m < 2:
        raise ValueError("need at least two chains")
    if m > MAX_ARITY:
        raise UnsupportedArity(f"{m} chains exceed the supported maximum of {MAX_ARITY}")
    check_threshold(delta)
    shape = tuple(len(c) for c in chains)
    check_size(math.prod(shape), MULTI_STATE_LIMIT, f"index tuples ({' x '.join(map(str, shape))})")
    pts = [c.points for c in chains]
    # tables run over 1-based tuples; index 0 of every chain pads the border
    dims = [n + 1 for n in shape]
    size = math.prod(dims)
    strides = [math.prod(dims[c + 1:]) for c in range(m)]
    # per advance set S: |S| and the flat offset of s - 1_S
    sets = [
        (len(S), sum(strides[c] for c in S))
        for k in range(1, m + 1) for S in itertools.combinations(range(m), k)
    ]
    box = [-1] * size  # key of the best valid p <= s on every chain
    pred = [-1] * size  # key of the step before s on its optimal walk
    best = -1
    for f, s in enumerate(itertools.product(*map(range, dims))):
        if 0 in s:
            continue
        key = -1
        if star_compatible([p[i - 1] for p, i in zip(pts, s)], delta):
            # largest value, then most chains advanced, then smallest state
            val, _, pred[f] = max(
                ((b // size + k, k, b) for k, back in sets if (b := box[f - back]) >= 0),
                default=(m, 0, -1),
            )
            key = val * size + size - 1 - f
            best = max(best, key)
        box[f] = max(key, *[box[f - st] for st in strides])

    if best < 0:
        return _empty_result(m)
    steps: list[tuple[int, ...]] = []
    key = best
    while key >= 0:
        f = size - 1 - key % size
        steps.append(tuple(f // st % d for st, d in zip(strides, dims)))
        key = pred[f]
    return _finish(steps, best // size, chains, delta)
