import copy
import itertools
import math
import pickle
import random
import warnings
from decimal import Decimal, getcontext
from math import dist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign.errors import DegenerateTriple, IncompatibleTriple
from chainalign.geometry import (
    Chain3D,
    Point3,
    RigidMotion,
    apply_motion,
    chain_from_coords,
    motion_from_triples,
    move_array,
    move_array_stack,
    superpose,
    triangle_area,
)
from chainalign.oracles import superpose_one


def decimal_dist(p, q):
    # independent oracle: exact decimal arithmetic, 50 digits
    getcontext().prec = 50
    total = sum((Decimal(a) - Decimal(b)) ** 2 for a, b in zip(p, q))
    return float(total.sqrt())


def rodrigues(axis, angle):
    # reference rotation built here, independently of the library
    ux, uy, uz = axis
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / n, uy / n, uz / n
    c, s = math.cos(angle), math.sin(angle)
    return (
        (c + ux * ux * (1 - c), ux * uy * (1 - c) - uz * s, ux * uz * (1 - c) + uy * s),
        (uy * ux * (1 - c) + uz * s, c + uy * uy * (1 - c), uy * uz * (1 - c) - ux * s),
        (uz * ux * (1 - c) - uy * s, uz * uy * (1 - c) + ux * s, c + uz * uz * (1 - c)),
    )


def random_motion(rng):
    rot = rodrigues(
        (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.1, 1)),
        rng.uniform(0, 2 * math.pi),
    )
    return RigidMotion(rot, (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)))


def test_dist_matches_decimal_oracle():
    rng = random.Random(7)
    cases = [((1.0, 1.0, 0.0), (2.0, 4.0, 0.05))]
    for _ in range(100):
        cases.append(
            (
                (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
                (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)),
            )
        )
    for p, q in cases:
        got = dist(Point3(*p), Point3(*q))
        want = decimal_dist(p, q)
        assert abs(got - want) <= 1e-9, (p, q, got, want)


def test_dist_single_axis_offset_is_exact():
    # points differing in one coordinate: sqrt of a single square is exact
    assert dist(Point3(3.0, 9.0, 0.0), Point3(3.0, 9.0, 0.05)) == 0.05
    assert dist(Point3(1.0, 1.0, 0.0), Point3(1.0, 1.0, 0.007)) == 0.007
    assert dist(Point3(0.0, 0.0, 0.0), Point3(2.5, 0.0, 0.0)) == 2.5


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Point3(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        Point3(0.0, 0.0, "1")


def test_point_is_its_coordinate_tuple():
    p = Point3(x=1.5, y=-2.0, z=0.25)
    assert p == (1.5, -2.0, 0.25)
    assert (p.x, p.y, p.z) == tuple(p) == p.as_tuple()
    assert type(p.as_tuple()) is tuple
    assert hash(p) == hash((1.5, -2.0, 0.25))
    with pytest.raises(AttributeError):
        p.x = 3.0
    # copies and pickles rebuild through the checked constructor
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is Point3 and twin == p


def test_chain_basics():
    with pytest.raises(ValueError):
        Chain3D("e", ())
    c = chain_from_coords("abc", [(0, 0, 0), (1, 2, 3)])
    assert len(c) == 2
    assert c.id == "abc"
    arr = c.as_array()
    assert arr.shape == (2, 3)
    assert arr[1, 2] == 3.0


def test_chain_array_is_built_once_and_read_only():
    c = chain_from_coords("abc", [(0, 0, 0), (1, 2, 3)])
    arr = c.as_array()
    assert c.as_array() is arr
    with pytest.raises(ValueError):
        arr[0, 0] = 7.0
    assert c.points[0] == (0.0, 0.0, 0.0)


def test_chain_array_leaves_equality_hash_and_copies_alone():
    c = chain_from_coords("abc", [(0, 0, 0), (1, 2, 3)])
    fresh = chain_from_coords("abc", [(0, 0, 0), (1, 2, 3)])
    c.as_array()
    assert c == fresh and hash(c) == hash(fresh)
    assert c != chain_from_coords("abd", [(0, 0, 0), (1, 2, 3)])
    assert len({c, fresh}) == 1
    # copies and pickles carry the fields, and build their own array
    for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(twin) is Chain3D and twin == c and hash(twin) == hash(c)
        assert "_array" not in vars(twin)
        assert twin.as_array() is not c.as_array()
        assert twin.as_array().tobytes() == c.as_array().tobytes()
        assert not twin.as_array().flags.writeable


def test_apply_motion_floats_equal_the_moved_array():
    # the rigid search scores move_array's floats and reports apply_motion's
    rng = random.Random(23)
    chains = [
        Chain3D("ints", (Point3(0, 0, 0), Point3(3, -1, 2), Point3(-7, 5, 11))),
        Chain3D("mixed", (Point3(1, 2.5, -3), Point3(0.1, 0, 9))),
    ]
    for _ in range(10):
        chains.append(chain_from_coords(
            "c", [(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(7)]
        ))
    for c in chains:
        for motion in (RigidMotion.identity(), random_motion(rng)):
            moved = apply_motion(motion, c)
            assert moved.as_array().tobytes() == move_array(motion, c.as_array()).tobytes()


def test_rigid_motion_validation():
    RigidMotion.identity()
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rejected = [
        (((1, 0, 0), (0, 1, 0)), (0, 0, 0), "rotation must be a 3x3 matrix"),
        ((1, 0, 0), (0, 0, 0), "rotation must be a 3x3 matrix"),
        (eye, (0, 0), "translation must be a 3-vector"),
        (eye, ((0, 0, 0),), "translation must be a 3-vector"),
        (((1, 0, 0), (0, math.nan, 0), (0, 0, 1)), (0, 0, 0), "components must be finite"),
        (eye, (0, math.inf, 0), "components must be finite"),
        (eye, (0, 0, -math.inf), "components must be finite"),
        # a shape error is reported before a non-finite component
        (((math.nan, 0, 0), (0, 1, 0)), (0, 0, 0), "rotation must be a 3x3 matrix"),
        (((1, 0, 0), (0, 1, 0), (0, 0, 2)), (0, 0, 0), "rotation is not orthonormal"),
        (((1, 1e-8, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0), "rotation is not orthonormal"),
        # reflection: orthonormal but determinant -1
        (((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0), r"determinant is not \+1"),
        (((0, 1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0), r"determinant is not \+1"),
    ]
    for rotation, translation, message in rejected:
        with pytest.raises(ValueError, match=message):
            RigidMotion(rotation, translation)
    # within ORTHONORMAL_TOL of a rotation is accepted
    RigidMotion(((1, 1e-10, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)), st.floats(0, 2 * math.pi),
    st.tuples(*[st.integers(-10**6, 10**6)] * 3), st.tuples(*[st.floats(-1e300, 1e300)] * 3),
    st.lists(st.sampled_from([float, np.float64]), min_size=12, max_size=12),
)
@example((0, 0, 1), 0.0, (1, -2, 3), (0.5, -0.0, 1e300), [float] * 12)
def test_rigid_motion_stores_plain_floats(axis, angle, ints, floats, kinds):
    # int, float and np.float64 components are stored as float(v), in
    # nested tuples of plain floats; angle 0 gives the identity in ints
    kinds = iter(kinds)
    if angle:
        rotation = tuple(tuple(next(kinds)(v) for v in row) for row in rodrigues(axis, angle))
    else:
        rotation = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for translation in (ints, tuple(next(kinds)(v) for v in floats)):
        motion = RigidMotion(rotation, translation)
        assert motion.rotation == tuple(tuple(float(v) for v in row) for row in rotation)
        assert motion.translation == tuple(float(v) for v in translation)
        stored = [*itertools.chain(*motion.rotation), *motion.translation]
        inputs = [*itertools.chain(*rotation), *translation]
        assert all(type(v) is float for v in stored)
        # the signs of zeros too
        assert [math.copysign(1, v) for v in stored] == [math.copysign(1, v) for v in inputs]


def test_apply_motion_preserves_pairwise_distances():
    rng = random.Random(21)
    for _ in range(25):
        chain = chain_from_coords(
            "c", [(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(6)]
        )
        moved = apply_motion(random_motion(rng), chain)
        for i in range(6):
            for j in range(i + 1, 6):
                before = dist(chain.points[i], chain.points[j])
                after = dist(moved.points[i], moved.points[j])
                assert abs(before - after) <= 1e-9


def test_motion_from_triples_recovers_planted():
    rng = random.Random(33)
    for _ in range(25):
        src = None
        while src is None:
            cand = [
                Point3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
                for _ in range(3)
            ]
            if triangle_area(*cand) > 0.1:
                src = tuple(cand)
        planted = random_motion(rng)
        dst = tuple(apply_motion(planted, Chain3D("t", src)).points)
        got = motion_from_triples(src, dst, tolerance=1e-6)
        mapped = apply_motion(got, Chain3D("t", src))
        for p, q in zip(mapped.points, dst):
            assert dist(p, q) <= 1e-9
        assert np.max(np.abs(got.matrix() - planted.matrix())) <= 1e-9


def test_motion_from_triples_errors():
    line = (Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0))
    spread = (Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0))
    with pytest.raises(DegenerateTriple):
        motion_from_triples(line, spread)
    stretched = (Point3(0, 0, 0), Point3(2, 0, 0), Point3(0, 2, 0))
    with pytest.raises(IncompatibleTriple):
        motion_from_triples(spread, stretched, tolerance=1e-6)
    with pytest.raises(ValueError):
        motion_from_triples(spread[:2], spread[:2])
    # the edges to h are inf on both sides, which no congruence test calls
    # far, and the triangle's area is inf; its cross-covariance overflows
    h = Point3(1.5e308, 1.5e308, 1.5e308)
    huge = (Point3(0, 0, 0), Point3(2, 0, 0), h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTriple):
            motion_from_triples(huge, huge)


def test_triangle_area_known_values():
    assert triangle_area(Point3(0, 0, 0), Point3(3, 0, 0), Point3(0, 4, 0)) == pytest.approx(6.0)
    assert triangle_area(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)) == pytest.approx(0.5)
    assert triangle_area(Point3(0, 0, 0), Point3(1, 1, 1), Point3(2, 2, 2)) == pytest.approx(0.0)


def cross_area(a, b, c):
    # oracle: the area as np.cross gives it
    u = np.subtract(b, a)
    v = np.subtract(c, a)
    return 0.5 * float(np.linalg.norm(np.cross(u, v)))


coords = st.floats(-1e3, 1e3)
# the third point near the line through the first two, off by a tiny step
near_collinear = st.builds(
    lambda p, d, s, e: (p, tuple(x + y for x, y in zip(p, d)),
                        tuple(x + s * y + z for x, y, z in zip(p, d, e))),
    st.tuples(*[coords] * 3),
    st.tuples(*[st.floats(-10, 10)] * 3),
    st.floats(-3, 3),
    st.tuples(*[st.sampled_from([0.0, 1e-12, -1e-9, 5e-7])] * 3),
)
triples = st.one_of(
    st.tuples(*[st.tuples(*[coords] * 3)] * 3),
    near_collinear,
    st.tuples(*[st.tuples(*[st.integers(-10**6, 10**6)] * 3)] * 3),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(triples)
@example(((0, 0, 0), (3, 0, 0), (0, 4, 0)))
@example(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)))
@example(((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9)))
def test_triangle_area_equals_cross_product_area(pts):
    a, b, c = (Point3(*p) for p in pts)
    assert triangle_area(a, b, c) == cross_area(a, b, c)


motions = st.builds(
    lambda axis, angle, t: RigidMotion(rodrigues(axis, angle), t),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
    st.floats(0, 2 * math.pi),
    st.tuples(*[st.floats(-5, 5)] * 3),
)


def seeded_round_trips(test):
    # the ten cases of random.Random(55) as explicit examples
    rng = random.Random(55)
    for _ in range(10):
        motion = random_motion(rng)
        coords = [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        test = example(motion, coords)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(motions, st.lists(st.tuples(*[st.floats(-2, 2)] * 3), min_size=1, max_size=5))
@seeded_round_trips
def test_motion_inverse_round_trip(motion, coords):
    rot = np.asarray(motion.rotation)
    inv_rot = rot.T
    inv_t = -inv_rot @ np.asarray(motion.translation)
    inverse = RigidMotion(tuple(map(tuple, inv_rot)), tuple(inv_t))
    chain = chain_from_coords("c", coords)
    back = apply_motion(inverse, apply_motion(motion, chain))
    for p, q in zip(back.points, chain.points):
        assert dist(p, q) <= 1e-9


coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
stack_coords = {
    "random": coord,
    "integer": st.integers(-5, 5).map(float),
    "3-decimal": st.integers(-10_000, 10_000).map(lambda v: v / 1000),
}


@st.composite
def point_set(draw, kind, p):
    if kind == "near-collinear":
        # p points on a line, each off it by at most 1e-6 per coordinate
        base, step = draw(st.tuples(coord, coord, coord)), draw(st.tuples(coord, coord, coord))
        off = st.floats(-1e-6, 1e-6)
        return [[b + t * d + draw(off) for b, d in zip(base, step)]
                for t in draw(st.lists(coord, min_size=p, max_size=p))]
    c = stack_coords[kind]
    return draw(st.lists(st.tuples(c, c, c), min_size=p, max_size=p))


def point_stacks(kind, k, p):
    return st.lists(point_set(kind, p), min_size=k, max_size=k).map(
        lambda sets: np.array(sets, dtype=float)
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(list(stack_coords) + ["near-collinear"]),
    st.integers(1, 6),
    st.sampled_from([3, 8]),
    st.sampled_from(["stacked", "broadcast", "moved", "mirrored"]),
    st.data(),
)
def test_superpose_equals_one_pair_at_a_time(kind, k, p, target, data):
    # dst is drawn like src, or one set shared by the stack, or src under a
    # proper motion (det +1) or under a reflection, which the sign fix
    # turns (det -1); stacking leaves every float as one pair alone gives it
    src = data.draw(point_stacks(kind, k, p))
    if target == "stacked":
        dst = data.draw(point_stacks(kind, k, p))
    elif target == "broadcast":
        dst = data.draw(point_stacks(kind, 1, p))
    else:
        motion = random_motion(random.Random(data.draw(st.integers(0, 2**32))))
        dst = move_array(motion, src.reshape(-1, 3)).reshape(src.shape)
        if target == "mirrored":
            dst[..., 0] *= -1.0
    r, t = superpose(src, dst)
    assert r.shape == (k, 3, 3) and t.shape == (k, 3)
    for c in range(k):
        one_r, one_t = superpose_one(src[c], dst[c % len(dst)])
        assert r[c].tobytes() == one_r.tobytes()
        assert t[c].tobytes() == one_t.tobytes()


def test_superpose_marks_overflowing_rows_nan():
    # row 1's cross-covariance overflows; row 2's is zero (2 vanishes
    # beside 1e308) but its translation overflows; rows 0 and 3 are finite
    # and keep the floats they have alone
    tri = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]
    src = np.array([tri, tri[:2] + [[1.5e308] * 3], [[1e308] * 3, [1e308 + 2.0] * 3, [1e308] * 3],
                    tri])
    dst = src.copy()
    dst[2] *= -1.0
    dst[3] += 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, t = superpose(src, dst)
    for c in (1, 2):
        assert np.isnan(r[c]).all() and np.isnan(t[c]).all()
    for c in (0, 3):
        one_r, one_t = superpose_one(src[c], dst[c])
        assert r[c].tobytes() == one_r.tobytes() and t[c].tobytes() == one_t.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 128), st.integers(3, 300), st.integers(0, 2**32))
def test_move_array_stack_equals_move_array(k, n, seed):
    # the rigid search scores b moved by a chunk's k motions in one product
    # and reports the winner moved by a stack of one (move_array)
    rng = random.Random(seed)
    motions = [random_motion(rng) for _ in range(k)]
    arr = np.array([[rng.uniform(-50, 50) for _ in range(3)] for _ in range(n)])
    moved = move_array_stack(
        np.array([m.rotation for m in motions]), np.array([m.translation for m in motions]), arr
    )
    assert moved.shape == (k, n, 3)
    for c, motion in enumerate(motions):
        assert moved[c].tobytes() == move_array(motion, arr).tobytes()
