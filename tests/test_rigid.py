import contextlib
import itertools
import math
import random
import tracemalloc
import warnings
from math import dist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign import rigid
from chainalign.errors import InvalidThreshold, NegativeDelta, TooLarge
from chainalign.geometry import (
    DEGENERATE_AREA_TOL, Chain3D, Point3, RigidMotion, apply_motion, chain_from_coords,
    check_motions, superpose, triangle_area, triangle_areas,
)
from chainalign.oracles import superpose_one
from chainalign.plsa import PAIR_CELL_LIMIT, _pair_kernel, _valid_cells, plsa_static_pair_fast
from chainalign.reduction import PRIME, Graph, ReductionInstance, measure_reduction_properties
from chainalign.rigid import SearchConfig, enumerate_candidate_motions, plsa_rigid_pair
from test_geometry import fixed_order_area, random_motion
from test_reduction import report_fields

# fixed examples, so a run is reproducible and leaves no example database
fixed_examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def rodrigues(axis, angle):
    ux, uy, uz = axis
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / n, uy / n, uz / n
    c, s = math.cos(angle), math.sin(angle)
    return (
        (c + ux * ux * (1 - c), ux * uy * (1 - c) - uz * s, ux * uz * (1 - c) + uy * s),
        (uy * ux * (1 - c) + uz * s, c + uy * uy * (1 - c), uy * uz * (1 - c) - ux * s),
        (uz * ux * (1 - c) - uy * s, uz * uy * (1 - c) + ux * s, c + uz * uz * (1 - c)),
    )


def rand_chain(rng, name, n, hi=8.0):
    return chain_from_coords(
        name, [(rng.uniform(0, hi), rng.uniform(0, hi), rng.uniform(0, hi)) for _ in range(n)]
    )


def planted_pair(rng, n):
    a = rand_chain(rng, "a", n)
    motion = RigidMotion(
        rodrigues((rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1)),
                  rng.uniform(0, 2 * math.pi)),
        (rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)),
    )
    moved = apply_motion(motion, a)
    return a, chain_from_coords("b", [p.as_tuple() for p in moved.points])


def test_planted_copy_is_fully_recovered():
    rng = random.Random(83)
    for _ in range(5):
        a, b = planted_pair(rng, 8)
        config = SearchConfig(mode="triples", budget=10000)
        motion, res = plsa_rigid_pair(a, b, 1e-6, config)
        assert res.value == 16
        moved = apply_motion(motion, b)
        assert max(dist(p, q) for p, q in zip(a.points, moved.points)) <= 1e-6


def test_identity_floor():
    rng = random.Random(89)
    for trial in range(20):
        a = rand_chain(rng, "a", 6, hi=3.0)
        b = rand_chain(rng, "b", 6, hi=3.0)
        static = plsa_static_pair_fast(a, b, 0.8).value
        for mode in ("triples", "random"):
            config = SearchConfig(mode=mode, budget=20, seed=trial)
            _, res = plsa_rigid_pair(a, b, 0.8, config)
            assert res.value >= static


def test_budget_caps_the_stream():
    rng = random.Random(97)
    a = rand_chain(rng, "a", 6, hi=2.0)
    b = rand_chain(rng, "b", 6, hi=2.0)
    for mode in ("triples", "random"):
        config = SearchConfig(mode=mode, budget=7, seed=0, prune_tolerance=1e9)
        stream = list(enumerate_candidate_motions(a, b, 1.0, config))
        assert len(stream) == 7


def test_triples_stream_is_exhaustive_without_pruning():
    rng = random.Random(101)
    a = rand_chain(rng, "a", 5)
    b = rand_chain(rng, "b", 5)
    config = SearchConfig(mode="triples", budget=10**6, prune_tolerance=1e9)
    stream = list(enumerate_candidate_motions(a, b, 1.0, config))
    # every pair of vertex triples, none degenerate for random points
    expected = len(list(itertools.combinations(range(5), 3))) ** 2
    assert len(stream) == expected


def test_stream_members_are_valid_motions():
    rng = random.Random(103)
    a = rand_chain(rng, "a", 5)
    b = rand_chain(rng, "b", 5)
    config = SearchConfig(mode="random", budget=15, seed=9)
    for motion in enumerate_candidate_motions(a, b, 1.0, config):
        moved = apply_motion(motion, b)  # RigidMotion validated on construction
        d_before = dist(b.points[0], b.points[4])
        d_after = dist(moved.points[0], moved.points[4])
        assert abs(d_before - d_after) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="sideways")
    for bad in (0, -3, 2.5, 1.0, True, "3", None):
        with pytest.raises(ValueError):
            SearchConfig(budget=bad)
    with pytest.raises(ValueError):
        SearchConfig(prune_tolerance=-1.0)
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(InvalidThreshold):
            SearchConfig(prune_tolerance=bad)
    for bad in (-10**400, -10**5000):
        with pytest.raises(NegativeDelta):
            SearchConfig(prune_tolerance=bad)
    assert SearchConfig(prune_tolerance=10**300).prune_tolerance == 10**300


def oracle_triples_stream(a, b, tol, budget):
    """The pair-by-pair loop over both lexicographic triple lists, which
    superposes one pair per call (oracles.superpose_one).

    Returns the motions and the (src, dst) triples that survive its
    congruence and degeneracy checks, in order; a superposition that
    overflows yields no motion.
    """
    motions, superposed = [], []
    d = math.dist
    pa, pb = a.points, b.points
    for ia in itertools.combinations(range(len(a)), 3):
        da = [d(pa[ia[0]], pa[ia[1]]), d(pa[ia[0]], pa[ia[2]]), d(pa[ia[1]], pa[ia[2]])]
        for ib in itertools.combinations(range(len(b)), 3):
            if len(motions) >= budget:
                return motions, superposed
            db = [d(pb[ib[0]], pb[ib[1]]), d(pb[ib[0]], pb[ib[2]]), d(pb[ib[1]], pb[ib[2]])]
            if any(abs(x - y) > tol for x, y in zip(da, db)):
                continue
            src = tuple(pb[k] for k in ib)
            dst = tuple(pa[k] for k in ia)
            if triangle_area(*src) <= DEGENERATE_AREA_TOL:
                continue
            superposed.append((src, dst))
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    r, t = superpose_one(src, dst)
            except np.linalg.LinAlgError:  # a cross-covariance that overflows
                continue
            if np.isfinite(r).all() and np.isfinite(t).all():
                motions.append(RigidMotion(r.tolist(), t.tolist()))
    return motions, superposed


def point_triples(stack):
    return [tuple(map(tuple, triple)) for triple in stack.tolist()]


def triples_stream(a, b, tol, budget):
    """enumerate_candidate_motions in triples mode, with the (src, dst)
    triples it passes to the stacked superposition, in order."""
    superposed = []

    def recorded(src, dst):
        superposed.extend(zip(point_triples(src), point_triples(np.broadcast_to(dst, src.shape))))
        return superpose(src, dst)

    config = SearchConfig(mode="triples", budget=budget, prune_tolerance=tol)
    with mock.patch.object(rigid, "superpose", recorded):
        motions = list(enumerate_candidate_motions(a, b, 1.0, config))
    return motions, superposed


def motion_bits(motions):
    # float.hex tells -0.0 from 0.0, which == does not
    return [tuple(map(float.hex, itertools.chain(*m.rotation, m.translation))) for m in motions]


def block_bits(a, b, delta, config, size):
    # the search's checked blocks, flattened: every block but the last holds
    # exactly size motions
    blocks = list(rigid._motion_blocks(a, b, delta, config, size))
    assert all(len(r) == len(t) == size for r, t in blocks[:-1])
    assert all(0 < len(r) == len(t) <= size for r, t in blocks[-1:])
    return [
        tuple(map(float.hex, itertools.chain(*r, t)))
        for rotations, translations in blocks
        for r, t in zip(rotations.tolist(), translations.tolist())
    ]


def stream_equals_oracle(a, b, tol, budget):
    # the same triples superposed, and the same motions, bit for bit, as
    # RigidMotions and as the search's blocks
    motions, superposed = triples_stream(a, b, tol, budget)
    expected, expected_superposed = oracle_triples_stream(a, b, tol, budget)
    assert superposed == expected_superposed
    assert motion_bits(motions) == motion_bits(expected)
    config = SearchConfig(mode="triples", budget=budget, prune_tolerance=tol)
    for size in (1, 7, rigid.SCORE_MOTIONS):
        assert block_bits(a, b, 1.0, config, size) == motion_bits(expected)
    return motions, superposed


def edge_lengths(chain):
    return [math.dist(p, q) for p, q in itertools.combinations(chain.points, 2)]


grid_coord = st.integers(-2, 2).map(float)
real_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def chains(coord):
    # a Chain3D has at least one vertex
    return st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=9).map(
        lambda pts: chain_from_coords("c", pts)
    )


def seeded_chains(seed, n):
    rng = random.Random(seed)
    return rand_chain(rng, "a", n), rand_chain(rng, "b", n)


@fixed_examples
@given(chains(real_coord), chains(real_coord), st.integers(0, 2**64), st.integers(1, 12))
@example(*seeded_chains(107, 5), 5, 10)
def test_random_mode_is_seed_deterministic(a, b, seed, budget):
    def stream(s):
        return list(enumerate_candidate_motions(a, b, 0.5, SearchConfig("random", budget, s)))

    assert stream(seed) == stream(seed)
    assert stream(seed) != stream(seed + 1)


@settings(fixed_examples, max_examples=40)
@given(
    chains(grid_coord), chains(grid_coord), st.sampled_from([1e-6, 0.5, 1.0]),
    st.sampled_from(["triples", "random"]), st.integers(1, 60), st.integers(0, 2**64),
)
@example(*planted_pair(random.Random(109), 6), 1e-6, "triples", 10**6, None)
def test_search_is_deterministic(a, b, delta, mode, budget, seed):
    config = SearchConfig(mode, budget, seed)
    motion1, res1 = plsa_rigid_pair(a, b, delta, config)
    motion2, res2 = plsa_rigid_pair(a, b, delta, config)
    assert motion1 == motion2
    assert res1 == res2


def oracle_rigid_pair(a, b, delta, config):
    """The search loop that aligns every candidate's moved chain in full."""
    ceiling = len(a) + len(b)
    best_motion, best = RigidMotion.identity(), plsa_static_pair_fast(a, b, delta)
    if best.value == ceiling:
        return best_motion, best
    for motion in enumerate_candidate_motions(a, b, delta, config):
        res = plsa_static_pair_fast(a, apply_motion(motion, b), delta)
        if res.value > best.value:
            best_motion, best = motion, res
            if best.value == ceiling:
                break
    return best_motion, best


def oracle_random_stream(a, b, config):
    """Random mode one draw at a time: a rotation, an a-vertex and a
    b-vertex, and the translation of that one (3, 3) @ (3,) product."""
    rng = random.Random(config.seed)
    pa, pb = a.as_array(), b.as_array()
    motions = []
    for _ in range(config.budget):
        rot = rigid._random_rotation(rng)
        i, j = rng.randrange(len(pa)), rng.randrange(len(pb))
        t = pa[i] - np.asarray(rot) @ pb[j]
        motions.append(RigidMotion(rot, tuple(float(v) for v in t)))
    return motions


def assert_search_equals_oracle(a, b, delta, config):
    # the stream as RigidMotions and as the search's blocks, bit for bit;
    # then the search with the default chunks, one candidate per chunk
    # (SCORE_CELLS of 1 and of |A| |B| cells), and chunks of 7, which
    # budgets and ceiling stops end mid-chunk
    stream = motion_bits(enumerate_candidate_motions(a, b, delta, config))
    if config.mode == "random":
        assert stream == motion_bits(oracle_random_stream(a, b, config))
    for size in (1, 7, rigid.SCORE_MOTIONS):
        assert block_bits(a, b, delta, config, size) == stream
    expected = oracle_rigid_pair(a, b, delta, config)
    assert plsa_rigid_pair(a, b, delta, config) == expected
    cells = len(a) * len(b)
    for score_cells in (1, cells, 7 * cells + 1):
        with mock.patch.object(rigid, "SCORE_CELLS", score_cells):
            assert plsa_rigid_pair(a, b, delta, config) == expected
    return expected


def protein_like_pair(rng, n):
    # a persistent random walk with 3.8 A steps, like a C-alpha trace, and
    # a noisy copy of it under a random rotation and shift
    pts, p, d = [], (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    for _ in range(n):
        pts.append(p)
        d = tuple(c + rng.gauss(0.0, 0.5) for c in d)
        norm = math.hypot(*d)
        p = tuple(c + 3.8 * e / norm for c, e in zip(p, d))
    a = chain_from_coords("a", pts)
    motion = RigidMotion(
        rodrigues((rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0), rng.uniform(0, 2 * math.pi)),
        (5.0, -5.0, 5.0),
    )
    moved = apply_motion(motion, a).points
    return a, chain_from_coords("b", [tuple(c + rng.gauss(0.0, 0.5) for c in q) for q in moved])


def test_search_equals_oracle_at_protein_scale():
    a, b = protein_like_pair(random.Random(131), 100)
    config = SearchConfig(mode="triples", budget=300)
    motion, result = assert_search_equals_oracle(a, b, 1.5, config)
    # the search moved b: the scored candidates decided the result
    assert result.value > plsa_static_pair_fast(a, b, 1.5).value


search_configs = st.builds(
    SearchConfig, st.sampled_from(["triples", "random"]), st.integers(1, 40),
    st.integers(0, 2**64),
)


@fixed_examples
@given(chains(grid_coord), chains(grid_coord), st.sampled_from([0.0, 0.5, 1.0, 1.5]),
       search_configs)
@example(*planted_pair(random.Random(127), 6), 1e-6, SearchConfig("triples", 40))
@example(
    chain_from_coords("a", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1), (-2, 2, 2)]),
    chain_from_coords("b", [(-0.0, -0.0, 0), (1, -0.0, -0.0), (2, 1, -0.0), (-2, -2, -0.0),
                            (0, -1, 2)]),
    0.5, SearchConfig("triples", 40),
)
def test_search_equals_oracle_on_grid_chains(a, b, delta, config):
    # grid chains have many equal-valued candidates, of which the earliest
    # wins; in the second example b holds -0.0 coordinates, which moving by
    # the identity turns into 0.0, and the identity wins over 10 candidates
    # with the alignment of the chains as given
    assert_search_equals_oracle(a, b, delta, config)


@fixed_examples
@given(chains(real_coord), chains(real_coord), st.floats(0.0, 8.0), search_configs)
def test_search_equals_oracle_on_continuous_chains(a, b, delta, config):
    assert_search_equals_oracle(a, b, delta, config)


@contextlib.contextmanager
def recorded_moves():
    # the motions plsa_rigid_pair moves b's array by, in order: the rows of
    # the rotation and translation arrays each chunk stacks
    moved = []
    chunk_cells = rigid._chunk_cells

    def recorded(pa, pb, rotations, translations, delta):
        moved.extend(map(RigidMotion, rotations.tolist(), translations.tolist()))
        return chunk_cells(pa, pb, rotations, translations, delta)

    with mock.patch.object(rigid, "_chunk_cells", recorded):
        yield moved


def test_ceiling_stop_mid_chunk():
    # a's first triple is collinear, so b's first triple is degenerate and,
    # with no pruning, every other triple of b meets a's first triple with a
    # wrong motion before the planted motion reaches the ceiling
    rng = random.Random(139)
    a = chain_from_coords(
        "a", [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        + [(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(5)],
    )
    motion = RigidMotion(rodrigues((1, 2, 3), 1.0), (4.0, -3.0, 2.0))
    b = chain_from_coords("b", [p.as_tuple() for p in apply_motion(motion, a).points])
    delta, ceiling = 1e-6, len(a) + len(b)
    config = SearchConfig(mode="triples", budget=10**6, prune_tolerance=1e9)
    stream = list(enumerate_candidate_motions(a, b, delta, config))
    values = [plsa_static_pair_fast(a, apply_motion(m, b), delta).value for m in stream]
    p = values.index(ceiling)
    assert p > 0 and len(stream) > p + 2
    for k in (p + 2, p // 2 + 2):
        assert 0 < p % k < k - 1  # the winner is neither first nor last of its chunk
        with mock.patch.object(rigid, "SCORE_CELLS", k * len(a) * len(b)), \
                recorded_moves() as moved:
            found, result = plsa_rigid_pair(a, b, delta, config)
        assert (found, result) == oracle_rigid_pair(a, b, delta, config)
        assert found == stream[p] and result.value == ceiling
        # the identity alone, then the chunk holding the winner was moved,
        # and nothing after it
        assert moved == [RigidMotion.identity(), *stream[:(p // k + 1) * k]]


def test_ceiling_stop_superposes_at_most_one_chunk_of_small_chains():
    # one vertex each: the first random motion maps b's vertex onto a's and
    # reaches the ceiling; SCORE_CELLS alone would allow chunks of 2**20
    a = chain_from_coords("a", [(0.0, 0.0, 0.0)])
    b = chain_from_coords("b", [(5.0, 5.0, 5.0)])
    config = SearchConfig(mode="random", budget=10**4, seed=3)
    with recorded_moves() as moved:
        motion, result = plsa_rigid_pair(a, b, 0.5, config)
    assert (motion, result) == oracle_rigid_pair(a, b, 0.5, config)
    assert result.value == 2
    assert moved[0] == RigidMotion.identity()
    assert len(moved) - 1 == rigid.SCORE_MOTIONS < config.budget
    assert moved[1:] == list(enumerate_candidate_motions(a, b, 0.5, config))[:len(moved) - 1]
    # b's vertex within delta of a's: the identity reaches the ceiling, and
    # the stream is never read
    b = chain_from_coords("b", [(0.0, 0.25, 0.0)])

    def unread(*args):
        raise AssertionError("the stream was read")
        yield

    with recorded_moves() as moved, mock.patch.object(rigid, "_motion_blocks", unread):
        found = plsa_rigid_pair(a, b, 0.5, config)
    assert found == (RigidMotion.identity(), plsa_static_pair_fast(a, b, 0.5))
    assert found[1].value == 2 and moved == [RigidMotion.identity()]


def seeded_kernel_inputs(test):
    # the diagonal of a chain against itself gives exactly 2 |cells|
    line = chain_from_coords("l", [(float(i), 0.0, 0.0) for i in range(6)])
    return example(line, line, 0.5)(example(*seeded_chains(149, 9), 8.0)(test))


@fixed_examples
@given(
    st.one_of(chains(grid_coord), chains(real_coord)),
    st.one_of(chains(grid_coord), chains(real_coord)),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 8.0]),
)
@seeded_kernel_inputs
def test_pair_value_is_at_most_twice_the_valid_cells(a, b, delta):
    # the bound plsa_rigid_pair skips candidates by: a walk through c valid
    # cells uses at most 2c vertices
    cells = _valid_cells(a.as_array(), b.as_array(), delta)
    value = _pair_kernel(cells, len(a), len(b))[0]
    assert value <= 2 * cells.size
    assert value == plsa_static_pair_fast(a, b, delta).value


@fixed_examples
@given(chains(grid_coord), chains(grid_coord), st.sampled_from([0.0, 0.5, 1.0, 1.5]),
       search_configs)
@example(*planted_pair(random.Random(127), 6), 1e-6, SearchConfig("triples", 40))
def test_no_dp_for_a_candidate_that_cannot_win(a, b, delta, config):
    # the DP runs only for candidates with 2 |cells| above the incumbent's
    # value, and the incumbent moves exactly on the DP's strict gains
    values = []

    def kernel(cells, n1, n2):
        out = _pair_kernel(cells, n1, n2)
        values.append((cells.size, out[0]))
        return out

    with mock.patch.object(rigid, "_pair_kernel", kernel):
        _, result = plsa_rigid_pair(a, b, delta, config)
    # the first DP is the identity's, which always runs
    assert values[0] == (_valid_cells(a.as_array(), b.as_array(), delta).size,
                         plsa_static_pair_fast(a, b, delta).value)
    best = -1
    for size, value in values:
        assert 2 * size > best
        best = max(best, value)
    assert result.value == best


def counted_search(a, b, delta, config):
    # the search's result, its DP values in order, and its calls of the full
    # alignment and of apply_motion
    values = []

    def kernel(cells, n1, n2):
        out = _pair_kernel(cells, n1, n2)
        values.append(out[0])
        return out

    with mock.patch.object(rigid, "_pair_kernel", kernel), \
            mock.patch.object(rigid, "plsa_static_pair_fast", wraps=plsa_static_pair_fast) as full, \
            mock.patch.object(rigid, "apply_motion", wraps=apply_motion) as move:
        found = plsa_rigid_pair(a, b, delta, config)
    return found, values, (full.call_count, move.call_count)


def test_only_the_winner_is_aligned_in_full():
    # the identity is scored by the DP like every candidate; after two strict
    # gains over it, the winner alone is moved and aligned in full
    a, b = protein_like_pair(random.Random(131), 100)
    config = SearchConfig(mode="triples", budget=300)
    found, values, calls = counted_search(a, b, 1.5, config)
    assert values[0] == plsa_static_pair_fast(a, b, 1.5).value
    best, gains = values[0], 0
    for value in values[1:]:
        if value > best:
            best, gains = value, gains + 1
    assert gains >= 2 and found[1].value == best
    assert calls == (1, 1)
    # candidates scored, and some tie the identity, but none beats it: the
    # identity wins, and is moved and aligned in full once
    rng = random.Random(38)
    a, b = rand_chain(rng, "a", 8, hi=3.0), rand_chain(rng, "b", 8, hi=3.0)
    config = SearchConfig(mode="triples", budget=20)
    found, values, calls = counted_search(a, b, 0.8, config)
    identity = plsa_static_pair_fast(a, b, 0.8)
    assert found == (RigidMotion.identity(), identity)
    assert values[0] == max(values) == identity.value < len(a) + len(b)
    assert values.count(identity.value) > 1
    assert calls == (1, 1)


def assert_scan_equals_oracle(a, b, data):
    # tolerances at the instance's own edge-length differences, where
    # abs(x - y) > tol is decided at equality
    diffs = [abs(x - y) for x in edge_lengths(a) for y in edge_lengths(b)]
    tol = data.draw(st.sampled_from([0.0, 1e9, *diffs]))
    budget = data.draw(st.one_of(st.integers(1, 40), st.just(10**9)))
    stream_equals_oracle(a, b, tol, budget)


@fixed_examples
@given(chains(grid_coord), chains(grid_coord), st.data())
def test_triples_scan_equals_oracle_on_grid_chains(a, b, data):
    assert_scan_equals_oracle(a, b, data)


@fixed_examples
@given(chains(real_coord), chains(real_coord), st.data())
def test_triples_scan_equals_oracle_on_continuous_chains(a, b, data):
    assert_scan_equals_oracle(a, b, data)


def test_triples_scan_equals_oracle_with_overflowing_edges():
    # h is more than the largest float away from the origin, so math.dist
    # gives inf and an a-edge minus a b-edge is inf - inf = nan, which is not
    # "far".  (0, 0, 0), (c, c, c) and h are collinear: that survivor is
    # rejected as degenerate (c * 1.5e308 is still finite), so it is not
    # superposed.  The finite (2, 3, sqrt(13)) triangles match.
    h = (1.5e308, 1.5e308, 1.5e308)
    c = 2.0 / math.sqrt(3.0)
    a = chain_from_coords("a", [(0, 0, 0), (2, 0, 0), (0, 3, 0), h])
    b = chain_from_coords("b", [(0, 0, 0), (c, c, c), h, (9, 0, 0), (11, 0, 0), (9, 3, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        motions, superposed = stream_equals_oracle(a, b, 0.5, 10**9)
    assert triangle_area(*b.points[:3]) <= DEGENERATE_AREA_TOL
    assert (b.points[:3], a.points[:2] + a.points[3:]) not in superposed
    assert motions


def test_random_search_equals_oracle_at_protein_scale():
    # the stacked draws move b's vertices by the one-draw floats
    a, b = protein_like_pair(random.Random(131), 100)
    assert_search_equals_oracle(a, b, 1.5, SearchConfig(mode="random", budget=300, seed=7))


def test_a_triples_search_builds_one_rigid_motion():
    # candidates are rows of checked arrays; only the winner is a RigidMotion
    built = []
    post_init = RigidMotion.__post_init__

    def counted(motion):
        built.append(motion)
        post_init(motion)

    a, b = protein_like_pair(random.Random(131), 100)
    with mock.patch.object(RigidMotion, "__post_init__", counted):
        motion, result = plsa_rigid_pair(a, b, 1.5, SearchConfig(mode="triples", budget=300))
    assert built == [motion] and built[0] is motion
    assert result.value > plsa_static_pair_fast(a, b, 1.5).value


def test_triples_scan_equals_oracle_with_a_nan_area():
    # e * e overflows, so the cross product of the b-triple's edges is
    # inf - inf = nan and so is its area.  NaN is not <= the degeneracy
    # tolerance, so the triple is kept, as the one-pair-per-call loop keeps
    # it; its cross-covariance (about 1.3e308) and translation are finite.
    e = 1.4e154
    a = chain_from_coords("a", [(0, 0, 0), (0, e, e), (0, e, e)])
    b = chain_from_coords("b", [(0, 0, 0), (0, e, e), (0, e, e)])
    assert math.isnan(triangle_area(*b.points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        motions, superposed = stream_equals_oracle(a, b, 0.5, 10**9)
    assert superposed == [(b.points, a.points)]
    assert len(motions) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_search_equals_oracle(a, b, 0.5, SearchConfig("triples", 10))


int_coord = st.integers(-2**60, 2**60)
int_points = st.lists(st.tuples(int_coord, int_coord, int_coord), min_size=3, max_size=6)


def test_scan_and_search_equal_oracle_with_int_coordinates():
    # b's first three vertices are collinear in exact integers but not once
    # rounded to floats: 2**53 + 1 becomes 2**53 and 3 * (2**53 + 1) becomes
    # 3 * 2**53 + 4, an area of 2. Point3 stores the floats, so the scan
    # superposes that triple like any other.
    big = 2**53 + 1
    b = Chain3D("b", (Point3(0, 0, 0), Point3(big, 1, 0), Point3(3 * big, 3, 0), Point3(1, 2, 3)))
    a = chain_from_coords("a", [(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 5)])
    assert b.points[1] == (2.0**53, 1.0, 0.0)
    assert triangle_area(*b.points[:3]) == 2.0
    assert triangle_areas(b.as_array()[None, :3])[0] == 2.0
    motions, superposed = stream_equals_oracle(a, b, 1e300, 10**9)
    assert any(src == b.points[:3] for src, _ in superposed)
    assert_search_equals_oracle(a, b, 0.5, SearchConfig("triples", 100, prune_tolerance=1e300))


@fixed_examples
@given(int_points, int_points)
@example([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 5)],
         [(0, 0, 0), (2**53 + 1, 1, 0), (3 * (2**53 + 1), 3, 0), (1, 2, 3)])
def test_int_coordinates_are_the_floats_they_round_to(pa, pb):
    # a chain of int points is its float twin: the same points and array,
    # the same triples stream and the same reduction measurement
    a, b = (Chain3D(n, tuple(Point3(*p) for p in pts)) for n, pts in (("a", pa), ("b", pb)))
    assert all(type(c) is float for chain in (a, b) for p in chain.points for c in p)
    twins = (chain_from_coords("a", pa), chain_from_coords("b", pb))
    assert (a, b) == twins
    assert [c.as_array().tobytes() for c in (a, b)] == [c.as_array().tobytes() for c in twins]
    motions, _ = stream_equals_oracle(a, b, 1e300, 200)
    assert motion_bits(motions) == motion_bits(triples_stream(*twins, 1e300, 200)[0])
    labels = tuple(tuple((i, PRIME) for i in range(1, len(c) + 1)) for c in (a, b))
    reports = [
        measure_reduction_properties(ReductionInstance(Graph(6), 0.05, chains, labels))
        for chains in ((a, b), twins)
    ]
    assert report_fields(reports[0]) == report_fields(reports[1])


def tolerance_triangles():
    # a tilted triangle scaled to the degeneracy tolerance: the last scale
    # whose triangle_area is not above it, and the next float, whose area
    # is; one ulp apart, so the order in which the squares of the cross
    # product are summed decides them
    base = np.array([[0.0, 0.0, 0.0], [-0.2, 0.7, -0.8], [-0.6, 0.3, 0.9]])
    scale = math.sqrt(DEGENERATE_AREA_TOL / triangle_area(*base.tolist()))

    def area(x):
        return triangle_area(*(base * x).tolist())

    while area(scale) > DEGENERATE_AREA_TOL:
        scale = math.nextafter(scale, 0.0)
    while area(math.nextafter(scale, 1.0)) <= DEGENERATE_AREA_TOL:
        scale = math.nextafter(scale, 1.0)
    return base * scale, base * math.nextafter(scale, 1.0)


def test_scan_and_search_equal_oracle_at_the_degeneracy_tolerance():
    # right triangles of legs 1 and y, whose area is y / 2 exactly: one ulp
    # below, at and one ulp above the tolerance; and tilted triangles one
    # ulp either side of it, whose cross products have three components
    y = 2 * DEGENERATE_AREA_TOL
    right = [(0, 0, 0), (1, 0, 0)] + [(0, v, 0) for v in
                                      (math.nextafter(y, 0), y, math.nextafter(y, 1))]
    tilted = [tuple(p) for t in tolerance_triangles() for p in t.tolist()[1:]]
    for b in (chain_from_coords("b", right), chain_from_coords("b", [(0, 0, 0), *tilted])):
        kept = [not triangle_area(*t) <= DEGENERATE_AREA_TOL
                for t in itertools.combinations(b.points, 3)]
        assert any(kept) and not all(kept)
        a = chain_from_coords("a", [(0, 0, 0), (0, 1, 0), (0, 0, 1e-9), (0, 3e-9, 0), (4, 4, 4)])
        stream_equals_oracle(a, b, 1e9, 10**9)
        assert_search_equals_oracle(a, b, 0.5, SearchConfig("triples", 40, prune_tolerance=1e9))


@fixed_examples
@given(st.lists(st.tuples(real_coord, real_coord, real_coord), min_size=3, max_size=3),
       st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 1.0]))
def test_not_degenerate_equals_triangle_area(points, scale):
    # the scan's stacked areas are the fixed-order oracle's floats, so they
    # decide degeneracy as one triangle at a time does, also one ulp either
    # side of the tolerance
    stack = np.array([points, *tolerance_triangles()]) * np.array([scale, 1.0, 1.0])[:, None, None]
    areas = triangle_areas(stack).tolist()
    assert [x.hex() for x in areas] == [fixed_order_area(*t).hex() for t in stack.tolist()]
    expected = [not x <= DEGENERATE_AREA_TOL for x in areas]
    assert expected[1:] == [False, True]


def test_search_skips_an_overflowing_superposition():
    # B's (0, 0, 0), (2, 0, 0), h meets A's: the edges to h are inf on both
    # sides, so the pair passes the scan's tests, and the triangle's area is
    # inf, so it is not degenerate; its cross-covariance overflows.  That
    # hit is skipped like a degenerate triple, with no warning.
    h = (1.5e308, 1.5e308, 1.5e308)
    c = 2.0 / math.sqrt(3.0)
    a = chain_from_coords("a", [(0, 0, 0), (2, 0, 0), (0, 3, 0), h])
    b = chain_from_coords("b", [(0, 0, 0), (c, c, c), (2, 0, 0), (0, 3, 0), h])
    config = SearchConfig(mode="triples", budget=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        motions, superposed = stream_equals_oracle(a, b, 0.5, config.budget)
        _, result = plsa_rigid_pair(a, b, 0.25, config)
    assert ((b.points[0], b.points[2], b.points[4]), (a.points[0], a.points[1], a.points[3])) in superposed
    assert len(motions) < len(superposed)
    assert result.value >= plsa_static_pair_fast(a, b, 0.25).value


@pytest.mark.parametrize("bad", [None, 17, 20])
def test_motion_blocks_regroup_pieces_of_any_length(bad):
    # empty pieces, one shorter than a block, one that ends a block and one
    # spanning three: 21 motions in blocks of 5, 5, 5, 5, 1, each checked
    # once and before it is yielded; a non-orthonormal row in the fourth
    # block, or in the short last one, raises after every earlier block
    size, lengths = 5, [0, 1, 4, 5, 11, 0]
    rng = random.Random(151)
    motions = [random_motion(rng) for _ in range(sum(lengths))]
    rotations = np.array([m.rotation for m in motions])
    translations = np.array([m.translation for m in motions])
    if bad is not None:
        rotations[bad, 0, 1] += 1e-3
    ends = list(itertools.accumulate(lengths, initial=0))
    pieces = [(rotations[s:e], translations[s:e]) for s, e in zip(ends, ends[1:])]
    events, fails = [], pytest.raises(ValueError, match="not orthonormal")

    def checked(r, t):
        events.append(("check", r.tolist(), t.tolist()))
        check_motions(r, t)

    with mock.patch.object(rigid, "_candidate_arrays", lambda *args: iter(pieces)), \
            mock.patch.object(rigid, "check_motions", checked):
        blocks = rigid._motion_blocks(None, None, 1.0, SearchConfig(), size)
        with contextlib.nullcontext() if bad is None else fails as raised:
            for r, t in blocks:
                events.append(("yield", r.tolist(), t.tolist()))
    shown = len(motions) if bad is None else bad - bad % size
    expected = []
    for s in range(0, len(motions), size):
        block = rotations[s:s + size].tolist(), translations[s:s + size].tolist()
        expected.append(("check", *block))
        if s >= shown:
            break
        expected.append(("yield", *block))
    assert events == expected
    if bad is None:
        assert [len(r) for kind, r, _ in events if kind == "yield"] == [5, 5, 5, 5, 1]
    else:
        # the error the bad row's RigidMotion raises
        with pytest.raises(ValueError) as alone:
            RigidMotion(rotations[bad].tolist(), translations[bad].tolist())
        assert str(raised.value) == str(alone.value)


def test_first_triples_candidate_needs_little_memory():
    # the scan keeps per-chain edge tables, not lists of all triples
    # (189.5 MB traced for two pools of C(200, 3) triples)
    rng = random.Random(113)
    a = rand_chain(rng, "a", 200)
    b = rand_chain(rng, "b", 200)
    tracemalloc.start()
    try:
        next(enumerate_candidate_motions(a, b, 0.5, SearchConfig(mode="triples")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000


def test_triples_scan_allocates_no_table_sized_temporaries():
    # the b table of edges j < k (4 MB) and near()'s buffers stay, nothing
    # table-sized is allocated per test, and a block's hits are tested |B|
    # at a time: 15.6 MB traced, against 19.0 MB when all 33 231 hits of the
    # first block were made Python ints at once and 35.0 MB when every test
    # built |B| x |B| temporaries beside both chains' (n, n) tables
    rng = random.Random(137)
    a = rand_chain(rng, "a", 1000)
    b = rand_chain(rng, "b", 1000)
    tracemalloc.start()
    try:
        next(enumerate_candidate_motions(a, b, 0.5, SearchConfig(mode="triples")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17_000_000


def test_edge_table_over_the_cell_limit_raises_before_it_is_built():
    wide = chain_from_coords("wide", [(float(i), 0, 0) for i in range(5001)])
    tri = chain_from_coords("tri", [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert 5001 * 5001 > PAIR_CELL_LIMIT
    for a, b in ((wide, tri), (tri, wide)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                plsa_rigid_pair(a, b, 1.0, SearchConfig(mode="triples"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the table would take about 0.2 GB


def test_chain_without_a_triple_builds_no_edge_table():
    wide = chain_from_coords("wide", [(float(i), 0, 0) for i in range(5001)])
    two = chain_from_coords("two", [(0, 0, 0), (1, 0, 0)])
    config = SearchConfig(mode="triples")
    for a, b in ((wide, two), (two, wide)):
        tracemalloc.start()
        try:
            assert list(enumerate_candidate_motions(a, b, 1.0, config)) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        identity = (RigidMotion.identity(), plsa_static_pair_fast(a, b, 1.0))
        assert plsa_rigid_pair(a, b, 1.0, config) == identity
