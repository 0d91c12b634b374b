import math
import random
import sys
import tracemalloc

import pytest

from chainalign.errors import (
    IncompatibleWalk,
    InvalidThreshold,
    InvariantError,
    NegativeDelta,
    TooLarge,
    UnsupportedArity,
)
from chainalign.frechet import discrete_frechet
from chainalign.geometry import Chain3D, Point3, chain_from_coords
from chainalign.oracles import plsa_oracle, plsa_oracle_walks, plsa_static_pair
from chainalign.plsa import (
    MULTI_STATE_LIMIT,
    PAIR_CELL_LIMIT,
    AlignmentResult,
    JointWalk,
    plsa_static_multi,
    plsa_static_pair_fast,
    reconstruct_common_chain,
    star_compatible,
    validate_alignment_result,
)


def rand_chain(rng, name, n, hi=4.0):
    return chain_from_coords(
        name, [(rng.uniform(0, hi), rng.uniform(0, hi), rng.uniform(0, hi)) for _ in range(n)]
    )


def test_pair_matches_subset_oracle():
    rng = random.Random(43)
    for _ in range(80):
        a = rand_chain(rng, "a", rng.randint(1, 6))
        b = rand_chain(rng, "b", rng.randint(1, 6))
        delta = rng.choice([0.5, 1.0, 2.0])
        res = plsa_static_pair(a, b, delta)
        assert res.value == plsa_oracle((a, b), delta)
        if res.value:
            validate_alignment_result(res, (a, b), delta)


def test_oracles_agree_with_each_other():
    # two independently ordered enumerations: subsets outside in, walks inside out
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        a = rand_chain(rng, "a", rng.randint(1, 5))
        b = rand_chain(rng, "b", rng.randint(1, 5))
        delta = rng.choice([0.4, 0.8, 1.5])
        try:
            walks_value = plsa_oracle_walks((a, b), delta)
        except TooLarge:
            continue
        assert walks_value == plsa_oracle((a, b), delta)
        checked += 1
    assert checked >= 30


def test_fast_equals_reference_everywhere():
    rng = random.Random(53)
    for _ in range(80):
        a = rand_chain(rng, "a", rng.randint(1, 14))
        b = rand_chain(rng, "b", rng.randint(1, 14))
        delta = rng.choice([0.3, 0.7, 1.2, 2.5, 50.0])
        r = plsa_static_pair(a, b, delta)
        f = plsa_static_pair_fast(a, b, delta)
        assert (r.value, r.subsequences, r.walk) == (f.value, f.subsequences, f.walk)
        if r.common_chain is None:
            assert f.common_chain is None
        else:
            assert r.common_chain.points == f.common_chain.points


def test_fast_equals_reference_with_empty_rows():
    # valid cells sit in a few rows of A, with rows holding none between
    # them and at both ends; grid coordinates make many walks tie
    far = [(100.0 + 10 * k, 0.0, 0.0) for k in range(20)]
    cases = [(
        chain_from_coords("a", [far[0], (0.5, 0, 0), far[1], far[2], (2.5, 0, 0), far[3],
                                (4.5, 0, 0), far[4]]),
        chain_from_coords("b", [(float(k), 0, 0) for k in range(6)]),
        0.5,
    )]
    rng = random.Random(59)
    for _ in range(60):
        n1 = rng.randint(5, 14)
        kept = set(rng.sample(range(1, n1 - 1), rng.randint(1, max(1, (n1 - 2) // 2))))
        a = chain_from_coords("a", [
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)) if i in kept else far[i]
            for i in range(n1)
        ])
        pb = [(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
              for _ in range(rng.randint(0, 9))]
        # one vertex of B repeats a kept vertex of A, so some row is valid
        pb.insert(rng.randint(0, len(pb)), a.points[rng.choice(sorted(kept))])
        b = chain_from_coords("b", pb)
        cases.append((a, b, rng.choice([0.0, 1.0, math.sqrt(2), 2.0])))
    for a, b, delta in cases:
        rows = [i for i, p in enumerate(a.points) if any(math.dist(p, q) <= delta for q in b.points)]
        assert rows and rows[0] > 0 and rows[-1] < len(a) - 1
        assert plsa_static_pair_fast(a, b, delta) == plsa_static_pair(a, b, delta)
    r = plsa_static_pair_fast(*cases[0])
    assert r.value == 9 and r.subsequences == ((2, 5, 7), (1, 2, 3, 4, 5, 6))


def single_cell_rows(cols, n2):
    # B's vertices lie 10 apart on the x axis; row i of A sits on B's vertex
    # cols[i], so at delta 1 it holds that one valid cell, or none for None
    a = chain_from_coords("a", [
        (10.0 * j, 0.0, 0.0) if j is not None else (10.0 * i, 50.0, 0.0)
        for i, j in enumerate(cols)
    ])
    return a, chain_from_coords("b", [(10.0 * j, 0.0, 0.0) for j in range(n2)]), 1.0


def test_fast_equals_reference_with_single_cell_rows():
    cases = [
        # row 3's both-advance from (2, 0) and A-advance from (1, 1) both
        # give 5; the tie goes to the both-advance
        single_cell_rows([0, 1, 0, 1], 2),
        # cells at the first and last column, and left of earlier rows' cells
        single_cell_rows([None, 4, 0, 2, None, 4, 1, 0, 3, None], 5),
    ]
    rng = random.Random(61)
    for _ in range(100):
        n2 = rng.randint(1, 7)
        cols = [rng.choice([None, *range(n2)]) for _ in range(rng.randint(1, 14))]
        cols[rng.randrange(len(cols))] = rng.randrange(n2)
        cases.append(single_cell_rows(cols, n2))
    for a, b, delta in cases:
        for p in a.points:
            assert sum(math.dist(p, q) <= delta for q in b.points) in (0, 1)
        assert plsa_static_pair_fast(a, b, delta) == plsa_static_pair(a, b, delta)
    r = plsa_static_pair_fast(*cases[0])
    assert r.value == 5 and r.walk.steps == ((1, 1), (3, 1), (4, 2))
    r = plsa_static_pair_fast(*cases[1])
    assert r.value == 6 and r.subsequences == ((3, 4, 6), (1, 3, 5))


@pytest.mark.parametrize("p, q, delta, value", [
    # numpy's sqrt(einsum) rounds this distance one ulp above math.dist
    ((4.8, 3.7, -2.1), (4.6, 0.4, 1.8), 5.112729212465687, 2),
    # and this one one ulp below, at a delta equal to numpy's value
    ((-0.9, -2.6, 0.9), (3.3, -0.4, -0.8), 5.036864103785211, 0),
    # numpy's square overflows to inf, math.dist stays finite
    ((1e200, 0.0, 0.0), (-1e200, 0.0, 0.0), 2e200, 2),
    # numpy's square underflows to 0, math.dist does not
    ((1e-300, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0),
    # the x gap is exactly delta, at the end of the candidate band
    ((1e6 + 0.25, 0.0, 0.0), (1e6 + 0.75, 0.0, 0.0), 0.5, 2),
    # and one ulp above it
    ((1e6 + 0.25, 0.0, 0.0), (1e6 + 0.75, 0.0, 0.0), math.nextafter(0.5, 0.0), 0),
    # the rounded x gap is delta, but a_x + delta rounds below b_x
    ((-0.9088184001853248, 0.0, 0.0), (0.0025935401432800767, 0.0, 0.0),
     0.9114119403286048, 2),
    # the x gap overflows to inf, and so do the band's ends
    ((1.5e308, 0.0, 0.0), (-1.5e308, 0.0, 0.0), 1.5e308, 0),
    ((1.5e308, 0.0, 0.0), (-1.5e308, 0.0, 0.0), sys.float_info.max, 0),
])
def test_fast_equals_reference_at_the_threshold(p, q, delta, value):
    a, b = chain_from_coords("a", [p]), chain_from_coords("b", [q])
    r = plsa_static_pair(a, b, delta)
    f = plsa_static_pair_fast(a, b, delta)
    assert r.value == f.value == value
    assert (r.walk, r.subsequences, r.common_chain) == (f.walk, f.subsequences, f.common_chain)


def test_multi_with_two_chains_equals_pair():
    rng = random.Random(59)
    for _ in range(40):
        a = rand_chain(rng, "a", rng.randint(1, 7))
        b = rand_chain(rng, "b", rng.randint(1, 7))
        delta = rng.choice([0.4, 0.9, 1.6])
        r = plsa_static_pair(a, b, delta)
        m = plsa_static_multi((a, b), delta)
        assert r.value == m.value
        assert r.walk.steps == m.walk.steps
        assert r.subsequences == m.subsequences


def test_multi_three_chains_matches_oracle():
    rng = random.Random(61)
    for _ in range(25):
        chains = [rand_chain(rng, f"c{i}", rng.randint(1, 4), hi=2.5) for i in range(3)]
        delta = rng.choice([0.6, 1.2])
        m = plsa_static_multi(chains, delta)
        assert m.value == plsa_oracle(chains, delta)
        if m.value:
            validate_alignment_result(m, chains, delta)


def test_counters_are_maximized_jointly():
    # compatible pairs: (1,1), (1,2), (2,1), (3,3).  Per-chain counters
    # maximized separately would claim 3 + 3 = 6; the best joint walk is
    # (1,1) -> (1,2) -> (3,3) using 2 + 3 = 5 vertices.
    a = chain_from_coords("a", [(0.0, 0, 0), (1.4, 0, 0), (10.0, 0, 0)])
    b = chain_from_coords("b", [(0.5, 0, 0), (-0.5, 0, 0), (10.5, 0, 0)])
    delta = 1.0
    for fn in (plsa_static_pair, plsa_static_pair_fast):
        res = fn(a, b, delta)
        assert res.value == 5, res
        assert res.subsequences == ((1, 3), (1, 2, 3))
    assert plsa_oracle((a, b), delta) == 5
    assert plsa_oracle_walks((a, b), delta) == 5


def test_no_compatible_pair_gives_empty_result():
    a = chain_from_coords("a", [(0, 0, 0), (1, 0, 0)])
    b = chain_from_coords("b", [(100, 0, 0), (101, 0, 0)])
    for fn in (plsa_static_pair, plsa_static_pair_fast):
        res = fn(a, b, 0.5)
        assert res.value == 0
        assert res.subsequences == ((), ())
        assert res.walk.steps == ()
        assert res.common_chain is None
        validate_alignment_result(res, (a, b), 0.5)
    assert plsa_oracle((a, b), 0.5) == 0


def test_value_monotone_in_delta():
    rng = random.Random(67)
    for _ in range(30):
        a = rand_chain(rng, "a", rng.randint(1, 6))
        b = rand_chain(rng, "b", rng.randint(1, 6))
        delta = rng.uniform(0.2, 1.5)
        small = plsa_static_pair(a, b, delta).value
        large = plsa_static_pair(a, b, 2 * delta).value
        assert large >= small


def test_concatenation_never_loses_value():
    rng = random.Random(71)
    for _ in range(20):
        a1 = rand_chain(rng, "a1", rng.randint(1, 4))
        a2 = rand_chain(rng, "a2", rng.randint(1, 4))
        b1 = rand_chain(rng, "b1", rng.randint(1, 4))
        b2 = rand_chain(rng, "b2", rng.randint(1, 4))
        delta = rng.choice([0.5, 1.0])
        cat_a = chain_from_coords("a", [p.as_tuple() for p in a1.points + a2.points])
        cat_b = chain_from_coords("b", [p.as_tuple() for p in b1.points + b2.points])
        joined = plsa_static_pair(cat_a, cat_b, delta).value
        assert joined >= plsa_static_pair(a1, b1, delta).value
        assert joined >= plsa_static_pair(a2, b2, delta).value


def test_star_compatibility_semantics():
    d = 1.0
    # two points: exactly the pair condition
    assert star_compatible([(0, 0, 0), (1, 0, 0)], d)
    assert not star_compatible([(0, 0, 0), (1.01, 0, 0)], d)
    # no member is within delta of both others, though one pair is close
    assert not star_compatible([(0, 0, 0), (0.5, 0, 0), (1.8, 0, 0)], d)
    # middle point covers both ends
    assert star_compatible([(0, 0, 0), (1.0, 0, 0), (2.0, 0, 0)], d)


def test_common_chain_is_within_delta_of_every_subsequence():
    rng = random.Random(73)
    for _ in range(25):
        chains = [rand_chain(rng, f"c{i}", rng.randint(1, 4), hi=2.0) for i in range(3)]
        delta = 1.0
        res = plsa_static_multi(chains, delta)
        if res.value == 0:
            continue
        for c, sub in enumerate(res.subsequences):
            poly = Chain3D("s", tuple(chains[c].points[i - 1] for i in sub))
            assert discrete_frechet(res.common_chain, poly).value <= delta + 1e-9


def test_reconstruct_rejects_incompatible_walk():
    a = chain_from_coords("a", [(0, 0, 0)])
    b = chain_from_coords("b", [(5, 0, 0)])
    with pytest.raises(IncompatibleWalk):
        reconstruct_common_chain(JointWalk(((1, 1),)), (a, b), 0.5)


def test_validator_catches_corrupted_results():
    a = chain_from_coords("a", [(0, 0, 0), (0.2, 0, 0)])
    b = chain_from_coords("b", [(0.1, 0, 0), (0.3, 0, 0)])
    good = plsa_static_pair(a, b, 1.0)
    assert good.value == 4
    bad_value = AlignmentResult(3, good.subsequences, good.walk, good.common_chain)
    with pytest.raises(InvariantError):
        validate_alignment_result(bad_value, (a, b), 1.0)
    bad_subs = AlignmentResult(good.value, ((2, 1), (1, 2)), good.walk, good.common_chain)
    with pytest.raises(InvariantError):
        validate_alignment_result(bad_subs, (a, b), 1.0)
    bad_walk = AlignmentResult(
        good.value, good.subsequences, JointWalk(tuple(reversed(good.walk.steps))), good.common_chain
    )
    with pytest.raises(InvariantError):
        validate_alignment_result(bad_walk, (a, b), 1.0)
    no_common = AlignmentResult(good.value, good.subsequences, good.walk, None)
    with pytest.raises(InvariantError):
        validate_alignment_result(no_common, (a, b), 1.0)


def test_validator_reports_the_distance_of_a_displaced_common_chain():
    rng = random.Random(83)
    a = rand_chain(rng, "a", 8)
    b = chain_from_coords("b", [(x + 0.1, y, z) for x, y, z in (p.as_tuple() for p in a.points)])
    delta = 0.5
    good = plsa_static_pair_fast(a, b, delta)
    assert good.value == 16
    validate_alignment_result(good, (a, b), delta)
    # every claim but the common chain still holds after this shift
    moved = Chain3D("common", tuple(
        Point3(p.x, p.y + 3.0 * delta, p.z) for p in good.common_chain.points
    ))
    shifted = AlignmentResult(good.value, good.subsequences, good.walk, moved)
    poly = Chain3D("sub", tuple(a.points[i - 1] for i in good.subsequences[0]))
    measured = discrete_frechet(moved, poly).value
    assert measured > delta
    with pytest.raises(InvariantError) as exc:
        validate_alignment_result(shifted, (a, b), delta)
    assert f"common chain is {measured} from chain 0" in str(exc.value)


def test_validator_leaves_out_a_distance_over_the_cell_limit():
    n = 5001
    line = chain_from_coords("line", [(float(i), 0, 0) for i in range(n)])
    idx = tuple(range(1, n + 1))
    far = Chain3D("common", line.points[:-1] + (Point3(n + 5.0, 0.0, 0.0),))
    result = AlignmentResult(2 * n, (idx, idx), JointWalk(tuple(zip(idx, idx))), far)
    assert n * n > PAIR_CELL_LIMIT
    with pytest.raises(InvariantError) as exc:
        validate_alignment_result(result, (line, line), 0.5)
    assert "common chain is too far from chain 0 subsequence" in str(exc.value)


def test_guards():
    a = chain_from_coords("a", [(0, 0, 0)])
    with pytest.raises(ValueError):
        plsa_static_multi((a,), 1.0)
    with pytest.raises(UnsupportedArity):
        plsa_static_multi((a, a, a, a, a), 1.0)
    assert 18 ** 3 <= MULTI_STATE_LIMIT  # three chains of 18 still run
    for shape in ((30, 30, 30, 30), (MULTI_STATE_LIMIT + 1, 1)):
        chains = [chain_from_coords("c", [(float(i), 0, 0) for i in range(n)]) for n in shape]
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                plsa_static_multi(chains, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # raised before any table exists
    with pytest.raises(NegativeDelta):
        plsa_static_pair(a, a, -1.0)
    with pytest.raises(NegativeDelta):
        plsa_static_pair_fast(a, a, -0.1)
    with pytest.raises(NegativeDelta):
        plsa_oracle((a, a), -2.0)
    # 10**5000 has more digits than str() of an int may print
    for bad in (math.nan, math.inf, 10**400, 10**5000):
        with pytest.raises(InvalidThreshold):
            plsa_static_pair_fast(a, a, bad)
        with pytest.raises(InvalidThreshold):
            plsa_static_multi((a, a, a), bad)
        with pytest.raises(InvalidThreshold):
            validate_alignment_result(plsa_static_pair_fast(a, a, 1.0), (a, a), bad)
    for bad in (-10**400, -10**5000):
        with pytest.raises(NegativeDelta):
            plsa_static_pair_fast(a, a, bad)
        with pytest.raises(NegativeDelta):
            plsa_static_multi((a, a, a), bad)
        with pytest.raises(NegativeDelta):
            validate_alignment_result(plsa_static_pair_fast(a, a, 1.0), (a, a), bad)
    big = chain_from_coords("big", [(float(i), 0, 0) for i in range(10)])
    with pytest.raises(TooLarge):
        plsa_oracle((big, big), 1.0)
    assert 3000 * 3000 <= PAIR_CELL_LIMIT  # the north-star size still runs
    wide = chain_from_coords("wide", [(float(i), 0, 0) for i in range(5001)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            plsa_static_pair_fast(wide, wide, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # raised before the distance matrix exists


def test_fast_pair_memory_per_cell():
    rng = random.Random(83)
    a = rand_chain(rng, "a", 600, hi=1.0)
    b = rand_chain(rng, "b", 600, hi=1.0)
    tracemalloc.start()
    try:
        result = plsa_static_pair_fast(a, b, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 1200  # every cell is valid
    assert peak <= 20 * 600 * 600


def test_fast_pair_memory_on_sparse_chains():
    # each vertex of A is within delta of one vertex of B, at the same index
    a = chain_from_coords("a", [(float(i), 0, 0) for i in range(3000)])
    b = chain_from_coords("b", [(i + 0.25, 0.5, 0) for i in range(3000)])
    tracemalloc.start()
    try:
        result = plsa_static_pair_fast(a, b, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 6000
    assert peak <= 2_000_000  # a table over all 9 000 000 cells needs over 100 MB


def test_multi_memory_on_dense_chains():
    rng = random.Random(89)
    chains = [rand_chain(rng, f"c{k}", 10, hi=1.0) for k in range(4)]
    tracemalloc.start()
    try:
        result = plsa_static_multi(chains, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 40  # every index tuple is compatible
    assert peak <= 1_000_000  # one table of 11**4 keys, not one per advance set


def test_deterministic_across_runs():
    rng = random.Random(79)
    a = rand_chain(rng, "a", 9)
    b = rand_chain(rng, "b", 9)
    first = plsa_static_pair_fast(a, b, 1.0)
    second = plsa_static_pair_fast(a, b, 1.0)
    assert first == second
