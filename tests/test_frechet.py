import math
import random
import tracemalloc
from math import dist

import pytest

from chainalign.errors import NegativeDelta, TooLarge
from chainalign.frechet import (
    PAIR_CELL_LIMIT,
    PairedWalk,
    discrete_frechet,
    frechet_decision,
    validate_paired_walk,
)
from chainalign.oracles import brute_force_frechet, brute_force_frechet_segments
from chainalign.geometry import chain_from_coords


def rand_chain(rng, name, n, lo=0.0, hi=10.0):
    return chain_from_coords(
        name, [(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
    )


def test_matches_exhaustive_couplings():
    rng = random.Random(17)
    for _ in range(60):
        a = rand_chain(rng, "a", rng.randint(1, 6))
        b = rand_chain(rng, "b", rng.randint(1, 6))
        assert abs(discrete_frechet(a, b).value - brute_force_frechet(a, b)) <= 1e-12


def test_matches_segment_partition_enumeration():
    rng = random.Random(19)
    for _ in range(40):
        na = rng.randint(1, 5)
        a = rand_chain(rng, "a", na)
        b = rand_chain(rng, "b", rng.randint(1, 10 - na))
        u = brute_force_frechet(a, b)
        s = brute_force_frechet_segments(a, b)
        assert abs(u - s) <= 1e-12, (u, s)


def test_known_values():
    a = chain_from_coords("a", [(0, 0, 0), (1, 0, 0)])
    assert discrete_frechet(a, a).value == 0.0
    b = chain_from_coords("b", [(0, 0, 0), (5, 0, 0)])
    single = chain_from_coords("s", [(0, 0, 0)])
    assert discrete_frechet(single, b).value == 5.0
    # one chain must wait at a far vertex while the other passes by
    zig = chain_from_coords("z", [(0, 0, 0), (2, 3, 0), (4, 0, 0)])
    flat = chain_from_coords("f", [(0, 0, 0), (4, 0, 0)])
    got = discrete_frechet(zig, flat).value
    # (2,3) pairs with one endpoint at best: sqrt(2^2 + 3^2)
    assert got == pytest.approx(math.sqrt(13), abs=1e-12)


def test_symmetry_and_reversal():
    rng = random.Random(23)
    for _ in range(30):
        a = rand_chain(rng, "a", rng.randint(1, 6))
        b = rand_chain(rng, "b", rng.randint(1, 6))
        v = discrete_frechet(a, b).value
        assert discrete_frechet(b, a).value == pytest.approx(v, abs=1e-12)
        ra = chain_from_coords("ra", [p.as_tuple() for p in reversed(a.points)])
        rb = chain_from_coords("rb", [p.as_tuple() for p in reversed(b.points)])
        assert discrete_frechet(ra, rb).value == pytest.approx(v, abs=1e-12)


def test_duplicating_a_vertex_changes_nothing():
    rng = random.Random(29)
    for _ in range(30):
        a = rand_chain(rng, "a", rng.randint(1, 5))
        b = rand_chain(rng, "b", rng.randint(1, 5))
        v = discrete_frechet(a, b).value
        k = rng.randrange(len(a))
        doubled = [p.as_tuple() for p in a.points]
        doubled.insert(k, doubled[k])
        a2 = chain_from_coords("a2", doubled)
        assert discrete_frechet(a2, b).value == pytest.approx(v, abs=1e-12)


def test_walk_and_witness_are_consistent():
    rng = random.Random(31)
    for _ in range(40):
        a = rand_chain(rng, "a", rng.randint(1, 7))
        b = rand_chain(rng, "b", rng.randint(1, 7))
        res = discrete_frechet(a, b)
        validate_paired_walk(res.walk, len(a), len(b))
        worst = max(
            dist(a.points[i - 1], b.points[j - 1]) for i, j in res.walk.steps
        )
        assert worst == pytest.approx(res.value, abs=1e-12)
        wi, wj = res.witness
        assert dist(a.points[wi - 1], b.points[wj - 1]) == pytest.approx(res.value, abs=1e-12)
        assert res.witness in res.walk.steps


def test_decision_threshold():
    rng = random.Random(37)
    for _ in range(25):
        a = rand_chain(rng, "a", rng.randint(1, 5))
        b = rand_chain(rng, "b", rng.randint(1, 5))
        v = discrete_frechet(a, b).value
        assert frechet_decision(a, b, v)
        assert frechet_decision(a, b, v * 1.01 + 1e-9)
        if v > 0:
            assert not frechet_decision(a, b, v * 0.99 - 1e-9)
    with pytest.raises(NegativeDelta):
        frechet_decision(a, b, -0.5)


def test_validate_paired_walk_rejects_bad_walks():
    with pytest.raises(ValueError):
        validate_paired_walk(PairedWalk(()), 2, 2)
    with pytest.raises(ValueError):
        validate_paired_walk(PairedWalk(((2, 1), (2, 2))), 2, 2)  # bad start
    with pytest.raises(ValueError):
        validate_paired_walk(PairedWalk(((1, 1),)), 2, 2)  # bad end
    with pytest.raises(ValueError):
        validate_paired_walk(PairedWalk(((1, 1), (1, 1), (2, 2))), 2, 2)  # stall
    with pytest.raises(ValueError):
        validate_paired_walk(PairedWalk(((1, 1), (3, 2), (2, 2))), 3, 2)  # jump and backtrack


def test_brute_force_guards():
    rng = random.Random(41)
    big = rand_chain(rng, "a", 9)
    other = rand_chain(rng, "b", 9)
    with pytest.raises(TooLarge):
        brute_force_frechet(big, other)
    with pytest.raises(TooLarge):
        brute_force_frechet_segments(big, chain_from_coords("c", [(0, 0, 0)] * 2))


def test_over_the_cell_limit_raises_before_the_table():
    wide = chain_from_coords("wide", [(float(i), 0, 0) for i in range(5001)])
    assert 5001 * 5001 > PAIR_CELL_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            discrete_frechet(wide, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the table would take about 0.4 GB
