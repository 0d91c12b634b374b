"""Alignment of two chains under an unknown rigid motion.

The second chain is moved by candidate rotations+translations and each moved
copy is scored with the static two-chain alignment; the best-scoring motion
wins.  Two candidate generators are provided: an exhaustive scan over vertex
triples (a congruent triple pair determines the motion up to reflection) and
a seeded random sampler over rotations and vertex-anchored translations.

The identity motion is always scored first, like every candidate, so the
result is never worse than the static alignment of the chains as given.
Ties keep the earlier motion, which makes the search deterministic.
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
    check_motions,
    move_array_stack,
    superpose,
    triangle_areas,
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

    The motions are the rows of the (rotations, translations) blocks that
    plsa_rigid_pair reads (_motion_blocks), one RigidMotion each, so each is
    checked as it is built.  The stream is deterministic for a fixed
    (a, b, delta, config).
    """
    for rotations, translations in _candidate_arrays(a, b, delta, config, 1):
        for r, t in zip(rotations.tolist(), translations.tolist()):
            yield RigidMotion(r, t)


def _motion_blocks(
    a: Chain3D, b: Chain3D, delta: float, config: SearchConfig, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The candidate stream as checked (k, 3, 3) rotation and (k, 3)
    translation blocks of exactly size motions, in stream order; only the
    last block may hold fewer.

    Each block passes geometry.check_motions, once, before it is yielded,
    so a row that is not a proper rigid motion raises the error its
    RigidMotion would raise, before any motion of its block is read.
    """
    rotations, translations = np.empty((0, 3, 3)), np.empty((0, 3))
    for rot, t in _candidate_arrays(a, b, delta, config, size):
        rotations = np.concatenate((rotations, rot))
        translations = np.concatenate((translations, t))
        while len(rotations) >= size:
            block = rotations[:size], translations[:size]
            check_motions(*block)
            yield block
            rotations, translations = rotations[size:], translations[size:]
    if len(rotations):
        check_motions(rotations, translations)
        yield rotations, translations


def _candidate_arrays(
    a: Chain3D, b: Chain3D, delta: float, config: SearchConfig, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The candidate stream as unchecked (rotations, translations) blocks.

    Random mode draws size motions per block, each as rotation, a-vertex,
    b-vertex from one random.Random, and moves b's vertices by the stacked
    rotations.  The triples scan yields the finite rows of each superpose
    call.

    The triples scan computes a's math.dist edge lengths as it reads them
    and keeps b's, the same floats, in one array of its edges j < k.  It
    tests all b-triples of one a-triple with numpy, in buffers it allocates
    once, so its memory is O(len(b)**2) and the stream is the one a pair-by-
    pair loop over both lexicographic triple lists would produce.  With a
    chain of fewer than 3 vertices it yields nothing and allocates nothing;
    a chain of n vertices with n * n over PAIR_CELL_LIMIT raises TooLarge
    before anything is allocated.  The hits of one a-triple are taken len(b)
    at a time and tested for degeneracy (geometry.triangle_areas); those
    that are not degenerate, at most as many as the budget still needs, are
    superposed in one geometry.superpose call, and one whose superposition
    overflows is skipped like a degenerate one.
    """
    check_threshold(delta)
    tol = config.prune_tolerance if config.prune_tolerance is not None else 2.0 * delta

    if config.mode == "random":
        rng = random.Random(config.seed)
        pa, pb = a.as_array(), b.as_array()
        for start in range(0, config.budget, size):
            rots, ia, jb = [], [], []
            for _ in range(min(size, config.budget - start)):
                rots.append(_random_rotation(rng))
                ia.append(rng.randrange(len(pa)))
                jb.append(rng.randrange(len(pb)))
            rotations = np.array(rots)
            # each row is the (3, 3) @ (3,) product of one draw
            yield rotations, pa[ia] - (rotations @ pb[jb][:, :, None])[:, :, 0]
        return

    pa, pb = a.points, b.points
    if min(len(pa), len(pb)) < 3:
        return
    for n in (len(pa), len(pb)):
        check_size(n * n, PAIR_CELL_LIMIT, f"vertex pairs ({n} vertices)")
    n = len(pb)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    # the b-edges (j < k) in row-major order, read off the pair iterator with
    # no list of them, and near()'s buffers: one difference and one test over
    # those edges, and one (n, n) mask per test that is live at once, False
    # below the diagonal; a call allocates nothing
    eb = np.fromiter(itertools.starmap(math.dist, itertools.combinations(pb, 2)), float,
                     n * (n - 1) // 2)
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
            # and its hits tested len(pb) at a time
            for s in range(0, len(j0), len(pb)):
                b0, b1 = j0[s:s + len(pb)], j1[s:s + len(pb)]
                rows, j2 = np.nonzero(near02[b0] & near12[b1])
                for h in range(0, len(rows), len(pb)):
                    r = rows[h:h + len(pb)]
                    # near() decided abs(x - y) > tol on the math.dist floats
                    # motion_from_triples compares, for all three edges, so
                    # its congruence test passes every hit and only the
                    # b-triple's degeneracy is left to test
                    hits = np.stack((b0[r], b1[r], j2[h:h + len(pb)]), axis=1)
                    # a NaN area is not <= the tolerance, so it is kept
                    live = hits[~(triangle_areas(arr_b[hits]) <= DEGENERATE_AREA_TOL)]
                    while len(live):
                        need = config.budget - produced
                        rot, t = superpose(arr_b[live[:need]], arr_a[[i0, i1, i2]][None])
                        live = live[need:]
                        # a superposition that overflows is skipped like a
                        # degenerate triple
                        ok = np.isfinite(t).all(axis=1)
                        produced += int(ok.sum())
                        yield rot[ok], t[ok]
                        if produced >= config.budget:
                            return


def plsa_rigid_pair(
    a: Chain3D, b: Chain3D, delta: float, config: SearchConfig
) -> tuple[RigidMotion, AlignmentResult]:
    """Best (motion, alignment) over the identity plus the candidate stream.

    The identity, scored first in a chunk of its own, and each candidate are
    scored with the value of the static pair alignment of (a, moved b);
    strictly larger values replace the incumbent, so ties keep the earliest
    motion and the identity is the floor.  The incumbent is a value and a
    row of a chunk's arrays; only the winner becomes a RigidMotion, built
    from that row's floats, and is moved with apply_motion, whose floats are
    the scored ones, and aligned in full, once per search.  Stops early when
    a motion aligns every vertex of both chains, so an identity that does
    never advances the stream.  The returned alignment indexes the original
    chains; its polylines refer to b after the motion.

    Candidates are scored in chunks of k motions, the checked
    (rotations, translations) blocks of _motion_blocks in stream order,
    k = SCORE_CELLS // (|a| |b|) clamped to [1, SCORE_MOTIONS].  One
    move_array_stack product moves b's array by all k motions, the k moved
    copies are put side by side, and one _valid_cells call lists the cells
    of all of them; a stable sort by candidate splits that list into each
    candidate's ascending cells.  A walk through c valid cells uses at most
    2c vertices, so a candidate with 2c not above the incumbent's value
    cannot beat it and skips the DP.  Stopping at the ceiling inside a chunk
    leaves the rest of it superposed but unscored, at most SCORE_MOTIONS - 1
    motions.  Two 100-vertex chains give chunks of 104, over which
    _valid_cells' two distance buffers take their full BLOCK_CELLS size,
    about 1 MB.
    """
    check_threshold(delta)
    n1, n2 = len(a), len(b)
    check_size(n1 * n2, PAIR_CELL_LIMIT, f"cells ({n1} x {n2})")
    ceiling = n1 + n2
    best, winner = -1, None
    pa, pb = a.as_array(), b.as_array()
    k = max(1, min(SCORE_MOTIONS, SCORE_CELLS // (n1 * n2)))
    # the identity alone, then the stream k motions at a time
    chunks = itertools.chain(
        [(np.eye(3)[None], np.zeros((1, 3)))], _motion_blocks(a, b, delta, config, k)
    )
    while best < ceiling and (chunk := next(chunks, None)) is not None:
        rotations, translations = chunk
        cells, bounds = _chunk_cells(pa, pb, rotations, translations, delta)
        for c in range(len(rotations)):
            s, e = bounds[c], bounds[c + 1]
            if 2 * (e - s) <= best:
                continue
            value = _pair_kernel(cells[s:e], n1, n2)[0]
            if value > best:
                best, winner = value, (rotations[c], translations[c])
                if best == ceiling:
                    break
    motion = RigidMotion(winner[0].tolist(), winner[1].tolist())
    return motion, plsa_static_pair_fast(a, apply_motion(motion, b), delta)


def _chunk_cells(
    pa: np.ndarray, pb: np.ndarray, rotations: np.ndarray, translations: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, list[int]]:
    """The valid cells of (a, b moved by each of k motions), from one
    _valid_cells call on the moved copies of b side by side, which one
    move_array_stack product of the (k, 3, 3) rotations and (k, 3)
    translations makes.

    Returns (cells, bounds): the c-th motion's cells, as the ascending flat
    indices i * |b| + j that _valid_cells gives for that copy alone, are
    cells[bounds[c]:bounds[c + 1]].
    """
    n2, k = len(pb), len(rotations)
    moved = move_array_stack(rotations, translations, pb).reshape(k * n2, 3)
    flat = _valid_cells(pa, moved, delta)
    i, col = np.divmod(flat, k * n2)
    cand, j = np.divmod(col, n2)
    # a stable sort keeps each candidate's cells in their ascending order
    order = np.argsort(cand, kind="stable")
    cells = (i * n2 + j)[order]
    bounds = np.searchsorted(cand[order], np.arange(k + 1)).tolist()
    return cells, bounds
