import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign.errors import InputError
from chainalign.geometry import RigidMotion, chain_from_coords
from chainalign.report import (
    RunReport,
    emit_alignment_svg,
    emit_report,
    json_text,
    parse_report,
    report_chains,
    report_walk,
)


def sample_report(**extra):
    return RunReport(
        command="align",
        inputs=({"path": "a.chain", "sha256": "f" * 64},),
        delta=0.1 + 0.2,  # deliberately not 0.3
        value=9,
        elapsed_ms=12.5,
        **extra,
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=8) | st.text(" \t\n#\"\\<&ab", max_size=6)
index_lists = st.lists(st.integers(1, 10**6), max_size=4).map(tuple)


@st.composite
def rotations(draw):
    # a unit quaternion's rotation matrix, orthonormal to rounding
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01))
    norm = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / norm for c in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


@st.composite
def run_reports(draw):
    arity = draw(st.integers(1, 4))
    chains = draw(st.none() | st.lists(
        st.builds(chain_from_coords, names,
                  st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=4)),
        min_size=arity, max_size=arity,
    ).map(tuple))
    return RunReport(
        command=draw(st.sampled_from(["align", "plsa", "plsa-rigid", "dfd"])),
        inputs=tuple(draw(st.lists(st.fixed_dictionaries(
            {"path": st.text(max_size=12), "sha256": st.text("0123456789abcdef", max_size=64)}
        ), max_size=3))),
        delta=draw(st.none() | finite),
        value=draw(st.integers(0, 10**6) | finite),
        elapsed_ms=draw(st.floats(0.0, 1e9)),
        subsequences=draw(
            st.none() | st.lists(index_lists, min_size=arity, max_size=arity).map(tuple)
        ),
        walk=draw(st.none() | st.lists(
            st.tuples(*[st.integers(1, 10**6)] * arity), max_size=5).map(tuple)),
        witness=draw(st.none() | st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))),
        motion=draw(
            st.none() | st.builds(RigidMotion, rotations(), st.tuples(finite, finite, finite))
        ),
        seed=draw(st.none() | st.integers(0, 2**63)),
        chains=chains,
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(run_reports())
@example(sample_report(
    subsequences=((1, 2), (1,)),
    walk=((1, 1), (2, 1)),
    motion=RigidMotion.identity(),
    seed=42,
    chains=(
        chain_from_coords("a", [(0.1, 1.0 / 3.0, -2.0), (4.0, 5.0, 6.0)]),
        chain_from_coords("b", [(7e-17, 8.0, 9.0)]),
    ),
))
def test_json_round_trip_is_exact(report):
    data = parse_report(emit_report(report, "json"))
    # the keys in emitted order, and every number with its exact repr and type
    assert json.dumps(data) == json.dumps(report.to_dict())
    fields = ("command", "delta", "value", "elapsed_ms", "seed")
    assert repr([data.get(f) for f in fields]) == repr([getattr(report, f) for f in fields])
    if report.subsequences is not None:
        assert tuple(map(tuple, data["subsequences"])) == report.subsequences
    if report.witness is not None:
        assert tuple(data["witness"]) == report.witness
    if report.chains is not None:
        rebuilt = report_chains(data)
        assert tuple(c.id for c in rebuilt) == tuple(c.id for c in report.chains)
        assert tuple(c.points for c in rebuilt) == tuple(c.points for c in report.chains)
    if report.walk is not None:
        assert report_walk(data, len(report.walk[0]) if report.walk else 1) == report.walk
    if report.motion is not None:
        assert RigidMotion(
            tuple(map(tuple, data["motion"]["rotation"])), tuple(data["motion"]["translation"])
        ) == report.motion


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(run_reports())
def test_json_report_is_json_dumps_text(report):
    assert emit_report(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"


numbers = st.integers() | st.floats() | st.sampled_from([
    -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, math.nan,
    2**63, -2**63 - 1, 2**64 + 1, 10**40,
])
json_strings = st.text(max_size=8) | st.text(',[]"\\\u00e9\u2028\x00 ', max_size=6)


def number_lists(items):
    return st.lists(items, max_size=4) | st.lists(items, max_size=4).map(tuple)


json_values = st.recursive(
    st.none() | st.booleans() | numbers | json_strings
    # the shapes the writer hands to the C encoder whole, and their near
    # misses: empty inner lists, strings or bools among the numbers
    | number_lists(numbers) | number_lists(number_lists(numbers))
    | number_lists(number_lists(numbers | json_strings | st.booleans())),
    lambda kids: number_lists(kids) | st.dictionaries(json_strings, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_values)
@example([[], [1]])
@example([[1], []])
@example([["a,b"], [1]])
@example(["]", 1.5])
@example([[1, 2], [3.5, -0.0]])
@example({"": (), "k": [{}], "[1,2]": [[1, 2]]})
def test_json_text_is_json_dumps_text(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_optional_fields_are_omitted():
    data = parse_report(emit_report(sample_report(), "json"))
    for key in ("subsequences", "walk", "witness", "motion", "seed", "chains"):
        assert key not in data
    assert list(data)[-1] == "elapsed_ms"


def test_text_format_mentions_every_field():
    text = emit_report(
        sample_report(witness=(2, 3), subsequences=((1, 3), (2,)), walk=((1, 2),)),
        "text",
    )
    assert "command: align" in text
    assert "input: a.chain sha256=" + "f" * 64 in text
    assert f"delta: {0.1 + 0.2!r}" in text
    assert "value: 9" in text
    assert "subsequence[0]: 1 3" in text
    assert "walk: (1,2)" in text
    assert "witness: (2,3)" in text
    assert "elapsed_ms: 12.5" in text
    with pytest.raises(ValueError):
        emit_report(sample_report(), "yaml")


def test_parse_report_rejects_non_reports():
    with pytest.raises(InputError):
        parse_report("this is not json")
    with pytest.raises(InputError):
        parse_report("[1, 2, 3]")
    with pytest.raises(InputError):
        parse_report('{"no_command": true}')
    with pytest.raises(InputError):
        report_chains({"command": "align"})
    with pytest.raises(InputError):
        report_chains({"chains": [{"name": "a", "vertices": [[1, 2]]}]})
    with pytest.raises(InputError):  # an integer beyond floats
        report_chains({"chains": [{"name": "a", "vertices": [[10**400, 0, 0]]}]})
    # values that are not JSON numbers; float() coerced the strings and bools
    for bad in ("1.5", True, False, " 2 ", None):
        with pytest.raises(InputError, match="is not a number"):
            report_chains({"chains": [{"name": "a", "vertices": [[0, bad, 0.5]]}]})
    with pytest.raises(InputError):
        report_walk({"command": "align"}, 2)
    with pytest.raises(InputError):
        report_walk({"walk": [[1, 1, 1]]}, 2)
    for step in ([1.5, 2], [True, 3], [1, "3"], [2.0, 1], [None, 1]):
        with pytest.raises(InputError):
            report_walk({"walk": [[1, 1], step]}, 2)


def svg_root(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


def count_class(root, name):
    return sum(1 for el in root.iter() if el.get("class") == name)


def test_svg_structure_for_a_pair():
    a = chain_from_coords("a", [(0, 0, 0), (1, 0.2, 0), (2, 0, 0.3), (3, 1, 0)])
    b = chain_from_coords("b", [(0, 1, 0), (1.5, 1.2, 0), (3, 1.4, 0)])
    walk = ((1, 1), (2, 2), (3, 3))
    root = svg_root(emit_alignment_svg((a, b), walk))
    assert count_class(root, "chain") == 2
    assert count_class(root, "vertex") == 7
    assert count_class(root, "match") == 3  # one per step for two chains


def test_svg_match_lines_scale_with_arity():
    chains = tuple(
        chain_from_coords(f"c{k}", [(i, k * 0.5, 0.1 * k) for i in range(3)]) for k in range(3)
    )
    walk = ((1, 1, 1), (2, 2, 2), (3, 3, 2))
    root = svg_root(emit_alignment_svg(chains, walk))
    assert count_class(root, "match") == len(walk) * 2  # arity minus one per step
    assert count_class(root, "chain") == 3


def test_svg_is_deterministic_and_handles_degenerate_spans():
    a = chain_from_coords("only", [(5.0, 5.0, 5.0)])
    one = emit_alignment_svg((a,), ())
    two = emit_alignment_svg((a,), ())
    assert one == two
    svg_root(one)  # single point: projection span guard keeps it finite
    assert "NaN" not in one and "nan" not in one


def test_svg_escapes_chain_names():
    a = chain_from_coords("<&evil>", [(0, 0, 0), (1, 1, 1)])
    text = emit_alignment_svg((a,), ())
    svg_root(text)
    assert "&lt;&amp;evil&gt;" in text


@pytest.mark.parametrize("top", [1e300, 1e308])
def test_svg_of_huge_coordinates_is_drawn_as_at_unit_scale(top):
    # unscaled, the covariance overflows: the vertices were all drawn at one
    # point with a RuntimeWarning, or eigh failed to converge
    a = [(-1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (1.0, 0.0, 0.25)]
    b = [(-1.0, 0.25, 0.0), (1.0, 0.5, 0.0)]
    walk = ((1, 1), (2, 1), (3, 2))

    def drawn(scale):
        chains = [chain_from_coords(n, [(x * scale, y * scale, z * scale) for x, y, z in c])
                  for n, c in (("a", a), ("b", b))]
        with np.errstate(all="raise"):
            root = svg_root(emit_alignment_svg(chains, walk))
        return [float(el.get(k)) for el in root.iter() for k in ("cx", "cy", "x1", "y2")
                if el.get(k) is not None]

    unit = drawn(1.0)
    assert len(set(unit)) > 4
    assert drawn(top) == pytest.approx(unit, abs=1e-3)
