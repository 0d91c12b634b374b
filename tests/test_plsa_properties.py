"""Property tests: the prefix-maximum fast path equals the reference DP.

plsa_static_pair_fast must return the value, walk, subsequences and common
chain of plsa_static_pair exactly.  Thresholds are drawn from the chains'
own vertex distances, where numpy's distance matrix and math.dist can round
to different sides of delta.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign.geometry import chain_from_coords
from chainalign.plsa import plsa_static_pair, plsa_static_pair_fast

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
