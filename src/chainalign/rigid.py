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

from .errors import DegenerateTriple, IncompatibleTriple, TooLarge, check_threshold
from .frechet import PAIR_CELL_LIMIT
from .geometry import Chain3D, RigidMotion, apply_motion, motion_from_triples, move_array
from .plsa import AlignmentResult, _pair_kernel, _valid_cells, plsa_static_pair_fast

__all__ = [
    "SearchConfig",
    "enumerate_candidate_motions",
    "plsa_rigid_pair",
]

MODES = ("triples", "random")


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
    onto the a-triple.  Random mode yields rotations drawn uniformly with a
    translation matching a random b-vertex to a random a-vertex.

    The triples scan computes a's math.dist edge lengths as it reads them
    and keeps b's, the same floats, in one array of its edges j < k.  It
    tests all b-triples of one a-triple with numpy, in buffers it allocates
    once, so its memory is O(len(b)**2) and the stream is the one a pair-by-
    pair loop over both lexicographic triple lists would produce.  With a
    chain of fewer than 3 vertices it yields nothing and allocates nothing;
    a chain of n vertices with n * n over PAIR_CELL_LIMIT raises TooLarge
    before anything is allocated.

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
        if n * n > PAIR_CELL_LIMIT:
            raise TooLarge(f"{n} vertices give {n * n} vertex pairs, over {PAIR_CELL_LIMIT}")
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
            dst = (pa[i0], pa[i1], pa[i2])
            # len(pb) b-pairs at a time, so a block is no larger than a mask
            for s in range(0, len(j0), len(pb)):
                b0, b1 = j0[s:s + len(pb)], j1[s:s + len(pb)]
                rows, j2 = np.nonzero(near02[b0] & near12[b1])
                for k0, k1, k2 in zip(b0[rows].tolist(), b1[rows].tolist(), j2.tolist()):
                    try:
                        motion = motion_from_triples(
                            (pb[k0], pb[k1], pb[k2]), dst, tolerance=tol
                        )
                    except (DegenerateTriple, IncompatibleTriple):
                        continue
                    produced += 1
                    yield motion
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

    Each candidate moves b's coordinate array and is scored with the value
    of the static pair alignment of (a, moved b); strictly larger values
    replace the incumbent, so ties keep the earliest candidate and the
    identity is the floor.  Only a new incumbent is moved with apply_motion,
    whose floats are the scored ones, and aligned in full.  Stops early when
    a candidate aligns every vertex of both chains.  The returned alignment
    indexes the original chains; its polylines refer to b after the motion.
    """
    ceiling = len(a) + len(b)
    best_motion = RigidMotion.identity()
    best = plsa_static_pair_fast(a, b, delta)
    if best.value == ceiling:
        return best_motion, best
    pa, pb = a.as_array(), b.as_array()
    for motion in enumerate_candidate_motions(a, b, delta, config):
        cells = _valid_cells(pa, move_array(motion, pb), delta)
        value = _pair_kernel(cells, len(a), len(b))[0]
        if value > best.value:
            best_motion, best = motion, plsa_static_pair_fast(a, apply_motion(motion, b), delta)
            if best.value == ceiling:
                break
    return best_motion, best
