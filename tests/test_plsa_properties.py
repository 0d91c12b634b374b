"""Property tests: the fast dynamic programs equal their reference scans.

plsa_static_pair_fast must return the value, walk, subsequences and common
chain of plsa_static_pair exactly, and plsa_static_multi those of the scan
of every componentwise smaller index tuple.  The pair DP's cell finder must
list exactly the cells a double loop over math.dist finds.  Thresholds are
drawn from the chains' own vertex distances, where numpy's distances and
math.dist can round to different sides of delta, and where ties between
walks are most common.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign import plsa
from chainalign.geometry import chain_from_coords
from chainalign.oracles import plsa_static_pair
from chainalign.plsa import (
    _empty_result,
    _finish,
    _valid_cells,
    plsa_static_multi,
    plsa_static_pair_fast,
    star_compatible,
)

# fixed examples, so a run is reproducible and leaves no example database
fixed_examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)

grid_coord = st.integers(-3, 3).map(float)
real_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def chains(coord, max_size=7):
    return st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=max_size).map(
        lambda pts: chain_from_coords("c", pts)
    )


def assert_fast_equals_reference(a, b, data):
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(b) - 1))
    delta = math.dist(a.points[i], b.points[j])
    for d in (delta, math.nextafter(delta, 0.0)):
        r = plsa_static_pair(a, b, d)
        f = plsa_static_pair_fast(a, b, d)
        assert (r.value, r.walk, r.subsequences, r.common_chain) == (
            f.value, f.walk, f.subsequences, f.common_chain
        ), d


@fixed_examples
@given(chains(real_coord), chains(real_coord), st.data())
def test_fast_equals_reference_on_continuous_chains(a, b, data):
    assert_fast_equals_reference(a, b, data)


@fixed_examples
@given(chains(grid_coord), chains(grid_coord), st.data())
def test_fast_equals_reference_on_grid_chains(a, b, data):
    assert_fast_equals_reference(a, b, data)


@fixed_examples
@given(chains(real_coord, max_size=1), chains(real_coord, max_size=1), st.data())
def test_fast_equals_reference_on_one_vertex_chains(a, b, data):
    assert_fast_equals_reference(a, b, data)


# coordinates near 1e200, whose squared differences overflow
huge_coord = st.sampled_from([0.0, 1.0]) | st.floats(1e199, 2e200) | st.floats(-2e200, -1e199)


@pytest.mark.parametrize("x, yz, size", [
    (grid_coord, grid_coord, 12),
    (real_coord, real_coord, 12),
    # every vertex shares one x coordinate, so every cell is a candidate
    (st.just(0.5), real_coord, 12),
    (huge_coord, huge_coord, 12),
    # x spread wide against y and z: rows' runs are short next to the
    # union of a block's runs, so blocks computed as rectangles and blocks
    # computed as their rows' runs both occur at every block size
    (st.floats(-100.0, 100.0), real_coord, 40),
], ids=["grid", "continuous", "one-x", "huge", "spread-x"])
@fixed_examples
@given(data=st.data())
def test_valid_cells_equal_a_double_loop(x, yz, size, data):
    pts = st.lists(st.tuples(x, yz, yz), min_size=1, max_size=size)
    a, b = (chain_from_coords("c", data.draw(pts)) for _ in range(2))
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(b) - 1))
    gap = math.dist(a.points[i], b.points[j])
    delta = data.draw(
        st.sampled_from([0.0, gap, math.nextafter(gap, 0.0)]) | st.floats(0.0, 1e300)
    )
    # small blocks split A's rows and take part of B per block
    block = data.draw(st.sampled_from([1, 5, 24, plsa.BLOCK_CELLS]))
    with mock.patch.object(plsa, "BLOCK_CELLS", block):
        cells = _valid_cells(a.as_array(), b.as_array(), delta)
    assert cells.tolist() == [
        i * len(b) + j
        for i, p in enumerate(a.points) for j, q in enumerate(b.points)
        if math.dist(p, q) <= delta
    ]


def oracle_static_multi(chains, delta):
    """Every valid index tuple scans every componentwise smaller one.

    Quadratic in the number of index tuples; ties go to the larger value,
    then the predecessor advancing more chains, then the first in
    lexicographic order.
    """
    m = len(chains)
    shape = tuple(len(c) for c in chains)
    pts = [c.points for c in chains]

    states = list(np.ndindex(shape))
    ok = {
        s: star_compatible([pts[c][s[c]] for c in range(m)], delta) for s in states
    }
    val: dict[tuple[int, ...], int] = {}
    pred: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    best_val = 0
    best_state: tuple[int, ...] | None = None

    for s in states:
        if not ok[s]:
            continue
        v, adv_best, arg = m, 0, None
        for p in states:
            if p not in val or any(pc > sc for pc, sc in zip(p, s)):
                continue
            adv = sum(pc < sc for pc, sc in zip(p, s))
            if adv == 0:
                continue
            cand = val[p] + adv
            if cand > v or (cand == v and adv > adv_best):
                v, adv_best, arg = cand, adv, p
        val[s] = v
        pred[s] = arg
        if v > best_val:
            best_val = v
            best_state = s

    if best_state is None:
        return _empty_result(m)
    steps: list[tuple[int, ...]] = []
    cur: tuple[int, ...] | None = best_state
    while cur is not None:
        steps.append(tuple(c + 1 for c in cur))
        cur = pred[cur]
    return _finish(steps, best_val, chains, delta)


def assert_multi_equals_oracle(chain_list, data):
    c1, c2 = data.draw(st.permutations(range(len(chain_list))))[:2]
    a, b = chain_list[c1], chain_list[c2]
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(b) - 1))
    delta = math.dist(a.points[i], b.points[j])
    for d in (delta, math.nextafter(delta, 0.0)):
        assert plsa_static_multi(chain_list, d) == oracle_static_multi(chain_list, d), d


coords = pytest.mark.parametrize("coord", [grid_coord, real_coord], ids=["grid", "continuous"])


@coords
@settings(fixed_examples, max_examples=200)
@given(data=st.data())
def test_multi_equals_oracle_on_two_or_three_chains(coord, data):
    chain_list = data.draw(st.lists(chains(coord, max_size=6), min_size=2, max_size=3))
    assert_multi_equals_oracle(chain_list, data)


@coords
@settings(fixed_examples, max_examples=120)
@given(data=st.data())
def test_multi_equals_oracle_on_four_chains(coord, data):
    chain_list = data.draw(st.lists(chains(coord, max_size=4), min_size=4, max_size=4))
    assert_multi_equals_oracle(chain_list, data)


def test_multi_tie_between_advance_sets_keeps_the_smaller_state():
    # (1, 2, 1) and (2, 1, 2) both precede (3, 2, 2) with value 3, one
    # advancing chains {0, 2} and the other {0, 1}; the walk starts at the
    # lexicographically smaller one.  Random draws rarely tie this way.
    xs = ([1.0, -1.0, 0.0], [-1.0, 1.0], [1.0, -1.0])
    chain_list = [chain_from_coords(f"c{c}", [(x, 0.0, 0.0) for x in xs[c]]) for c in range(3)]
    result = plsa_static_multi(chain_list, 1.5)
    assert result.walk.steps == ((1, 2, 1), (3, 2, 2))
    assert result == oracle_static_multi(chain_list, 1.5)
