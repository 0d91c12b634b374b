"""Property tests: the reachability-sweep decision agrees exactly with the DP.

frechet_decision(a, b, d) must equal discrete_frechet(a, b).value <= d for
every threshold, including the boundary value itself and the float just
below it.  Integer-grid chains produce ties and exact axis-aligned distances;
continuous chains exercise arbitrary rounding.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign.errors import InvalidThreshold, NegativeDelta
from chainalign.frechet import discrete_frechet, frechet_decision
from chainalign.geometry import chain_from_coords

# fixed examples, so a run is reproducible and leaves no example database
fixed_examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)

grid_coord = st.integers(-3, 3).map(float)
real_coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def chains(coord, max_size=9):
    return st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=max_size).map(
        lambda pts: chain_from_coords("c", pts)
    )


def thresholds(value):
    return (value, math.nextafter(value, 0.0), 0.0)


def assert_agrees(a, b, extra):
    value = discrete_frechet(a, b).value
    for d in thresholds(value) + (extra,):
        assert frechet_decision(a, b, d) == (value <= d), (value, d)


@fixed_examples
@given(chains(grid_coord), chains(grid_coord), st.floats(0.0, 12.0))
def test_decision_matches_distance_on_grid_chains(a, b, extra):
    assert_agrees(a, b, extra)


@fixed_examples
@given(chains(real_coord), chains(real_coord), st.floats(0.0, 40.0))
def test_decision_matches_distance_on_continuous_chains(a, b, extra):
    assert_agrees(a, b, extra)


@fixed_examples
@given(chains(real_coord, max_size=1), chains(grid_coord), st.floats(0.0, 40.0))
def test_decision_matches_distance_with_a_one_vertex_chain(single, other, extra):
    assert_agrees(single, other, extra)
    assert_agrees(other, single, extra)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_decision_rejects_bad_thresholds(bad):
    one = chain_from_coords("one", [(0, 0, 0)])
    with pytest.raises(InvalidThreshold):
        frechet_decision(one, one, bad)
    if bad < 0:
        with pytest.raises(NegativeDelta):
            frechet_decision(one, one, bad)
