"""Points, polygonal chains and proper rigid motions in R^3."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateTriple, IncompatibleTriple

__all__ = [
    "Point3",
    "Chain3D",
    "RigidMotion",
    "apply_motion",
    "move_array",
    "move_array_stack",
    "motion_from_triples",
    "superpose",
    "triangle_area",
    "ORTHONORMAL_TOL",
    "DEGENERATE_AREA_TOL",
]

# Geometric predicates share one absolute tolerance.
ORTHONORMAL_TOL = 1e-9
DEGENERATE_AREA_TOL = 1e-9

Vec3 = tuple[float, float, float]

_EYE3 = np.eye(3)


class Point3(tuple):
    """A point in R^3 with finite coordinates.

    The point is the ``(x, y, z)`` tuple itself, so ``math.dist`` and numpy
    read it without conversion, and it compares equal to that tuple.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> "Point3":
        for c in (x, y, z):
            if not isinstance(c, (int, float)) or not math.isfinite(c):
                raise ValueError(f"non-finite coordinate: {c!r}")
        return tuple.__new__(cls, (x, y, z))

    def __getnewargs__(self) -> Vec3:
        # copy and pickle rebuild through __new__, which takes three coordinates
        return tuple(self)

    x = property(itemgetter(0))
    y = property(itemgetter(1))
    z = property(itemgetter(2))

    def as_tuple(self) -> Vec3:
        return tuple(self)


@dataclass(frozen=True)
class Chain3D:
    """An ordered, non-empty sequence of vertices with a text label."""

    id: str
    points: tuple[Point3, ...]

    def __post_init__(self):
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) == 0:
            raise ValueError("chain must contain at least one vertex")
        for p in self.points:
            if not isinstance(p, Point3):
                raise ValueError(f"chain vertex is not a Point3: {p!r}")

    def __len__(self) -> int:
        return len(self.points)

    def __getstate__(self) -> dict:
        # copies and pickles carry the fields only; the array is rebuilt
        return {"id": self.id, "points": self.points}

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.array(self.points, dtype=float)
        arr.flags.writeable = False
        return arr

    def as_array(self) -> np.ndarray:
        """Vertices as a read-only (n, 3) float array, built once per chain."""
        return self._array


def chain_from_coords(id: str, coords: Iterable[Sequence[float]]) -> Chain3D:
    """Build a Chain3D from an iterable of (x, y, z) coordinate triples."""
    return Chain3D(id, tuple(Point3(float(x), float(y), float(z)) for x, y, z in coords))


@dataclass(frozen=True)
class RigidMotion:
    """A proper rigid motion x -> R x + t.

    rotation is a 3x3 row-major matrix, orthonormal with determinant +1
    (checked at construction within ORTHONORMAL_TOL).
    """

    rotation: tuple[tuple[float, float, float], ...]
    translation: Vec3

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        # stored as plain nested tuples so instances hash/compare cleanly;
        # tolist() gives the floats float(v) would
        rotation, translation = tuple(map(tuple, r.tolist())), tuple(t.tolist())
        if not all(map(math.isfinite, itertools.chain(*rotation, translation))):
            raise ValueError("rigid motion components must be finite")
        if np.abs(r @ r.T - _EYE3).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise ValueError("rotation determinant is not +1 (improper motion)")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity() -> "RigidMotion":
        return RigidMotion(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0))

    def matrix(self) -> np.ndarray:
        return np.asarray(self.rotation, dtype=float)

    def offset(self) -> np.ndarray:
        return np.asarray(self.translation, dtype=float)


def move_array(motion: RigidMotion, arr: np.ndarray) -> np.ndarray:
    """Rows of an (n, 3) coordinate array moved by ``motion``: the stack of
    one of move_array_stack."""
    return move_array_stack(motion.matrix()[None], motion.offset()[None], arr)[0]


def move_array_stack(
    rotations: np.ndarray, translations: np.ndarray, arr: np.ndarray
) -> np.ndarray:
    """An (n, 3) coordinate array moved by each of k motions, in one product.

    rotations is (k, 3, 3) and translations (k, 3); copy c of the (k, n, 3)
    is arr @ rotations[c].T + translations[c].
    """
    return arr @ np.swapaxes(rotations, 1, 2) + translations[:, None]


def apply_motion(motion: RigidMotion, chain: Chain3D) -> Chain3D:
    """Return a copy of the chain moved by ``motion`` (same id, same order),
    with the floats of move_array(motion, chain.as_array())."""
    moved = move_array(motion, chain.as_array())
    return Chain3D(chain.id, tuple(Point3(x, y, z) for x, y, z in moved.tolist()))


def triangle_area(a: Point3, b: Point3, c: Point3) -> float:
    """Area of the triangle spanned by three points.

    The cross product of b - a and c - a is formed in Python, component by
    component in the order np.cross forms them, so the area has the floats
    of np.cross without its per-call array handling.  Integer coordinates
    stay exact integers up to the final conversion to float.
    """
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    u0, u1, u2 = bx - ax, by - ay, bz - az
    v0, v1, v2 = cx - ax, cy - ay, cz - az
    cross = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    return 0.5 * float(np.linalg.norm(np.array(cross, dtype=float)))


def motion_from_triples(
    src: Sequence[Point3],
    dst: Sequence[Point3],
    tolerance: float = 1e-6,
) -> RigidMotion:
    """Proper rigid motion that best superposes ``src`` onto ``dst``.

    Uses the SVD solution of the least-squares superposition problem with a
    determinant correction so the result is always a proper rotation.  When
    the two triples are exactly congruent the returned motion maps src onto
    dst to within 1e-9 per vertex.

    The motion is superpose's for a stack of one.  Raises DegenerateTriple
    when src is collinear (triangle area <= DEGENERATE_AREA_TOL) or the
    superposition overflows, and IncompatibleTriple when corresponding
    pairwise distances of src and dst disagree by more than ``tolerance``.
    """
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("motion_from_triples expects exactly three points per side")
    if triangle_area(*src) <= DEGENERATE_AREA_TOL:
        raise DegenerateTriple(f"source triple is collinear: {list(src)}")
    for i in range(3):
        for j in range(i + 1, 3):
            ds = math.dist(src[i], src[j])
            dd = math.dist(dst[i], dst[j])
            if abs(ds - dd) > tolerance:
                raise IncompatibleTriple(
                    f"pairwise distance mismatch at ({i}, {j}): |{ds} - {dd}| > {tolerance}"
                )

    r, t = superpose(np.array(src, dtype=float)[None], np.array(dst, dtype=float)[None])
    if not np.isfinite(t).all():
        raise DegenerateTriple(f"superposition overflows: {list(src)} onto {list(dst)}")
    return RigidMotion(r[0].tolist(), t[0].tolist())


def superpose(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares superpositions of a stack of point sets onto another.

    src is a (k, p, 3) stack and dst a (k, p, 3) or (1, p, 3) one, broadcast
    over src.  Returns (k, 3, 3) rotations r and (k, 3) translations t such
    that x -> r[c] x + t[c] best maps src[c] onto dst[c]: the SVD solution
    with a determinant correction, so every rotation is proper.  Each step
    runs on the whole stack, with the floats one (p, 3) pair would give
    alone.  A row whose cross-covariance or translation is not finite (the
    points overflow) is NaN in both outputs; it is masked before the SVD,
    and no floating-point warning is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ca = src.mean(axis=1)
        cb = dst.mean(axis=1)
        h = np.swapaxes(src - ca[:, None], 1, 2) @ (dst - cb[:, None])
        bad = ~np.isfinite(h).all(axis=(1, 2))
        h[bad] = _EYE3  # any finite matrix: the SVD fails on inf and NaN
        u, _, vt = np.linalg.svd(h)
        v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
        fix = np.zeros_like(h)
        fix[:, 0, 0] = fix[:, 1, 1] = 1.0
        fix[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
        r = v @ fix @ ut
        t = cb - (r @ ca[:, :, None])[:, :, 0]
        bad |= ~np.isfinite(t).all(axis=1)
    r[bad] = np.nan
    t[bad] = np.nan
    return r, t
