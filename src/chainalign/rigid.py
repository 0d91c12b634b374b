"""Alignment of two chains under an unknown rigid motion.

The second chain is moved by candidate rotations+translations and each moved
copy is scored with the static two-chain alignment; the best-scoring motion
wins.  Two candidate generators are provided: an exhaustive scan over vertex
triples (a congruent triple pair determines the motion up to reflection) and
a seeded random sampler over rotations and vertex-anchored translations.

The identity motion is always scored first, so the result is never worse
than the static alignment of the chains as given.  Ties keep the earlier
candidate, which makes the search deterministic for a fixed configuration.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import check_size, check_threshold
from .frechet import PAIR_CELL_LIMIT
from .geometry import (
    DEGENERATE_AREA_TOL,
    Chain3D,
    RigidMotion,
    apply_motion,
    move_array_stack,
    superpose,
    triangle_area,
)
# not called here, but perfbench/spans.py wraps rigid.motion_from_triples
# when a traced run starts
from .geometry import motion_from_triples  # noqa: F401
from .plsa import AlignmentResult, _pair_kernel, _valid_cells, plsa_static_pair_fast

__all__ = [
    "SearchConfig",
    "enumerate_candidate_motions",
    "plsa_rigid_pair",
]

MODES = ("triples", "random")
# cells scored per _valid_cells call: plsa_rigid_pair moves
# SCORE_CELLS // (|a| |b|) candidates' copies of b at a time; at most
# PAIR_CELL_LIMIT, so the flat cell indices fit CELL_INDEX
SCORE_CELLS = 1 << 20
# and at most SCORE_MOTIONS candidates, which bounds the motions held and,
# when a candidate reaches the ceiling, those built for nothing; the triples
# scan superposes a slice of at most |b| hits in one call, so up to |b| - 1
# more of its superpositions may go unused
SCORE_MOTIONS = 128


@dataclass(frozen=True)
class SearchConfig:
    """How candidate motions are generated.

    mode "triples" scans vertex triples of both chains in lexicographic
    order; mode "random" draws uniformly random rotations with vertex-pair
    anchored translations from a seeded generator.  budget caps how many
    candidates are produced.  prune_tolerance is the congruence slack for
    the triples mode; None means 2 * delta at search time.  budget must be
    an int >= 1 (a bool is rejected).
    """

    mode: str = "triples"
    budget: int = 1000
    seed: int | None = None
    prune_tolerance: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 1:
            raise ValueError(f"budget must be an int >= 1, got {self.budget!r}")
        if self.prune_tolerance is not None:
            check_threshold(self.prune_tolerance, "prune_tolerance")


def _rotation_from_quaternion(
    w: float, x: float, y: float, z: float
) -> tuple[tuple[float, float, float], ...]:
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    rot = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )
    return rot


def _random_rotation(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    # uniform over rotations: subgroup-algorithm quaternion sampling
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    t2, t3 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    return _rotation_from_quaternion(
        b * math.cos(t3), a * math.sin(t2), a * math.cos(t2), b * math.sin(t3)
    )


def enumerate_candidate_motions(
    a: Chain3D, b: Chain3D, delta: float, config: SearchConfig
) -> Iterator[RigidMotion]:
    """Yield up to config.budget motions that map chain b onto chain a.

    Triples mode pairs each vertex triple of a with each triple of b
    (both in lexicographic index order), skips pairs whose three pairwise
    distances differ by more than the prune tolerance or whose b-triple is
    degenerate, and yields the least-squares superposition of the b-triple
    onto the a-triple, with the floats of motion_from_triples.  Random mode
    yields rotations drawn uniformly with a translation matching a random
    b-vertex to a random a-vertex.

    The triples scan computes a's math.dist edge lengths as it reads them
    and keeps b's, the same floats, in one array of its edges j < k.  It
    tests all b-triples of one a-triple with numpy, in buffers it allocates
    once, so its memory is O(len(b)**2) and the stream is the one a pair-by-
    pair loop over both lexicographic triple lists would produce.  With a
    chain of fewer than 3 vertices it yields nothing and allocates nothing;
    a chain of n vertices with n * n over PAIR_CELL_LIMIT raises TooLarge
    before anything is allocated.  The hits of one a-triple are taken len(b)
    at a time; those whose b-triple is not degenerate, at most as many as
    the budget still needs, are superposed in one geometry.superpose call,
    and one whose superposition overflows is skipped like a degenerate one.

    The stream is deterministic for a fixed (a, b, delta, config).
    """
    check_threshold(delta)
    tol = config.prune_tolerance if config.prune_tolerance is not None else 2.0 * delta

    if config.mode == "random":
        rng = random.Random(config.seed)
        pa, pb = a.as_array(), b.as_array()
        for _ in range(config.budget):
            rot = _random_rotation(rng)
            i = rng.randrange(len(pa))
            j = rng.randrange(len(pb))
            moved = np.asarray(rot) @ pb[j]
            t = tuple(float(v) for v in (pa[i] - moved))
            yield RigidMotion(rot, t)
        return

    pa, pb = a.points, b.points
    if min(len(pa), len(pb)) < 3:
        return
    for n in (len(pa), len(pb)):
        check_size(n * n, PAIR_CELL_LIMIT, f"vertex pairs ({n} vertices)")
    upper = np.triu(np.ones((len(pb), len(pb)), dtype=bool), 1)
    # the b-edges (j < k) in row-major order, and near()'s buffers: one
    # difference and one test over those edges, and one (n, n) mask per test
    # that is live at once, False below the diagonal; a call allocates nothing
    eb = _edge_lengths(pb)
    diff = np.empty_like(eb)
    hit = np.empty(eb.shape, dtype=bool)
    first, near02, near12 = (np.zeros_like(upper) for _ in range(3))

    def near(x: float, out: np.ndarray) -> np.ndarray:
        # b-edges (j < k) not farther than tol from x, with the floats of the
        # pair loop's abs(x - y) > tol (negating a difference is exact); a
        # NaN difference (inf - inf) is not "far" there either
        with np.errstate(invalid="ignore"):
            np.subtract(eb, x, out=diff)
        np.abs(diff, out=diff)
        np.greater(diff, tol, out=hit)
        np.logical_not(hit, out=hit)
        out[upper] = hit
        return out

    arr_a, arr_b = a.as_array(), b.as_array()
    produced = 0
    # a-triples (i0, i1, i2) in lexicographic order; the b-pairs (j0, j1)
    # that match the first edge are shared by every i2
    for i0, i1 in itertools.combinations(range(len(pa)), 2):
        j0, j1 = np.nonzero(near(math.dist(pa[i0], pa[i1]), first))
        if not len(j0):
            continue
        for i2 in range(i1 + 1, len(pa)):
            near(math.dist(pa[i0], pa[i2]), near02)
            near(math.dist(pa[i1], pa[i2]), near12)
            # len(pb) b-pairs at a time, so a block is no larger than a mask,
            # and its hits made Python ints len(pb) at a time, so a budget
            # stop converts only the slice it reads
            for s in range(0, len(j0), len(pb)):
                b0, b1 = j0[s:s + len(pb)], j1[s:s + len(pb)]
                rows, j2 = np.nonzero(near02[b0] & near12[b1])
                for h in range(0, len(rows), len(pb)):
                    r, c = rows[h:h + len(pb)], j2[h:h + len(pb)]
                    # near() decided abs(x - y) > tol on the math.dist floats
                    # motion_from_triples compares, for all three edges, so
                    # its congruence test passes every hit and only the
                    # b-triple's degeneracy is left to test; like its
                    # area <= tol, a NaN area (inf - inf in the cross
                    # product) is not degenerate
                    live = [
                        k for k in zip(b0[r].tolist(), b1[r].tolist(), c.tolist())
                        if not triangle_area(pb[k[0]], pb[k[1]], pb[k[2]]) <= DEGENERATE_AREA_TOL
                    ]
                    while live:
                        need = config.budget - produced
                        # an integer (m, 3) index array gives the (m, 3, 3)
                        # stack on every numpy (a list of tuples may not)
                        rot, t = superpose(arr_b[np.array(live[:need])], arr_a[[i0, i1, i2]][None])
                        live = live[need:]
                        # a superposition that overflows is skipped like a
                        # degenerate triple
                        ok = np.isfinite(t).all(axis=1)
                        for rc, tc in zip(rot[ok].tolist(), t[ok].tolist()):
                            produced += 1
                            yield RigidMotion(rc, tc)
                        if produced >= config.budget:
                            return


def _edge_lengths(points: tuple) -> np.ndarray:
    """math.dist(points[j], points[k]) for every j < k, in row-major order
    (the order of an (n, n) table's upper triangle), one row at a time."""
    n = len(points)
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for j, p in enumerate(points):
        out[start:start + n - 1 - j] = [math.dist(p, q) for q in points[j + 1:]]
        start += n - 1 - j
    return out


def plsa_rigid_pair(
    a: Chain3D, b: Chain3D, delta: float, config: SearchConfig
) -> tuple[RigidMotion, AlignmentResult]:
    """Best (motion, alignment) over the identity plus the candidate stream.

    Each candidate is scored with the value of the static pair alignment of
    (a, moved b); strictly larger values replace the incumbent, so ties keep
    the earliest candidate and the identity is the floor.  The incumbent is
    a value and a motion; only the winner is moved with apply_motion, whose
    floats are the scored ones, and aligned in full, so a search runs the
    full alignment once for the identity and at most once more.  Stops
    early when a candidate aligns every vertex of both chains.  The returned
    alignment indexes the original chains; its polylines refer to b after
    the motion.

    Candidates are scored in chunks of k motions taken from the stream in
    order, k = SCORE_CELLS // (|a| |b|) clamped to [1, SCORE_MOTIONS].  One
    product moves b's array by all k motions (move_array_stack; move_array,
    under apply_motion, is its stack of one), the k moved copies are put side by side, and one
    _valid_cells call lists the cells of all of them;
    a stable sort by candidate splits that list into each candidate's
    ascending cells.  A walk through c valid cells uses at most 2c vertices,
    so a candidate with 2c not above the incumbent's value cannot beat it
    and skips the DP.  Stopping at the ceiling inside a chunk leaves the
    rest of it superposed but unscored, at most SCORE_MOTIONS - 1 motions.
    Two 100-vertex chains give chunks of 104, over which _valid_cells' two
    distance buffers take their full BLOCK_CELLS size, about 1 MB.
    """
    n1, n2 = len(a), len(b)
    ceiling = n1 + n2
    identity = plsa_static_pair_fast(a, b, delta)
    best, winner = identity.value, None
    pa, pb = a.as_array(), b.as_array()
    k = max(1, min(SCORE_MOTIONS, SCORE_CELLS // (n1 * n2)))
    stream = enumerate_candidate_motions(a, b, delta, config)
    while best < ceiling and (chunk := list(itertools.islice(stream, k))):
        cells, bounds = _chunk_cells(pa, pb, chunk, delta)
        for c, motion in enumerate(chunk):
            s, e = bounds[c], bounds[c + 1]
            if 2 * (e - s) <= best:
                continue
            value = _pair_kernel(cells[s:e], n1, n2)[0]
            if value > best:
                best, winner = value, motion
                if best == ceiling:
                    break
    if winner is None:
        return RigidMotion.identity(), identity
    return winner, plsa_static_pair_fast(a, apply_motion(winner, b), delta)


def _chunk_cells(
    pa: np.ndarray, pb: np.ndarray, motions: list[RigidMotion], delta: float
) -> tuple[np.ndarray, list[int]]:
    """The valid cells of (a, b moved by each motion), from one _valid_cells
    call on the moved copies of b side by side, which one move_array_stack
    product makes.

    Returns (cells, bounds): the c-th motion's cells, as the ascending flat
    indices i * |b| + j that _valid_cells gives for that copy alone, are
    cells[bounds[c]:bounds[c + 1]].
    """
    n2, k = len(pb), len(motions)
    rotations = np.array([m.rotation for m in motions])
    translations = np.array([m.translation for m in motions])
    moved = move_array_stack(rotations, translations, pb).reshape(k * n2, 3)
    flat = _valid_cells(pa, moved, delta)
    i, col = np.divmod(flat, k * n2)
    cand, j = np.divmod(col, n2)
    # a stable sort keeps each candidate's cells in their ascending order
    order = np.argsort(cand, kind="stable")
    cells = (i * n2 + j)[order]
    bounds = np.searchsorted(cand[order], np.arange(k + 1)).tolist()
    return cells, bounds
