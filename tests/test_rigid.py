import itertools
import math
import random

import pytest

from chainalign.errors import InvalidThreshold
from chainalign.geometry import RigidMotion, apply_motion, chain_from_coords, dist
from chainalign.plsa import plsa_static_pair_fast
from chainalign.rigid import SearchConfig, enumerate_candidate_motions, plsa_rigid_pair


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


def test_random_mode_is_seed_deterministic():
    rng = random.Random(107)
    a = rand_chain(rng, "a", 5)
    b = rand_chain(rng, "b", 5)
    one = list(enumerate_candidate_motions(a, b, 0.5, SearchConfig("random", 10, 5)))
    two = list(enumerate_candidate_motions(a, b, 0.5, SearchConfig("random", 10, 5)))
    other = list(enumerate_candidate_motions(a, b, 0.5, SearchConfig("random", 10, 6)))
    assert one == two
    assert one != other


def test_search_is_deterministic():
    rng = random.Random(109)
    a, b = planted_pair(rng, 6)
    config = SearchConfig(mode="triples", budget=10**6)
    motion1, res1 = plsa_rigid_pair(a, b, 1e-6, config)
    motion2, res2 = plsa_rigid_pair(a, b, 1e-6, config)
    assert motion1 == motion2
    assert res1 == res2


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="sideways")
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(prune_tolerance=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidThreshold):
            SearchConfig(prune_tolerance=bad)
