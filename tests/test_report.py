import xml.etree.ElementTree as ET

import pytest

from chainalign.errors import InputError
from chainalign.geometry import RigidMotion, chain_from_coords
from chainalign.report import (
    RunReport,
    emit_alignment_svg,
    emit_report,
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


def test_json_round_trip_is_exact():
    chains = (
        chain_from_coords("a", [(0.1, 1.0 / 3.0, -2.0), (4.0, 5.0, 6.0)]),
        chain_from_coords("b", [(7e-17, 8.0, 9.0)]),
    )
    report = sample_report(
        subsequences=((1, 2), (1,)),
        walk=((1, 1), (2, 1)),
        motion=RigidMotion.identity(),
        seed=42,
        chains=chains,
    )
    data = parse_report(emit_report(report, "json"))
    assert data["command"] == "align"
    assert data["delta"] == 0.1 + 0.2  # exact float, not 0.3
    assert data["value"] == 9
    assert data["subsequences"] == [[1, 2], [1]]
    assert data["walk"] == [[1, 1], [2, 1]]
    assert data["motion"]["rotation"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert data["seed"] == 42
    assert data["chains"][0]["vertices"][0] == [0.1, 1.0 / 3.0, -2.0]
    rebuilt = report_chains(data)
    assert tuple(c.points for c in rebuilt) == tuple(c.points for c in chains)
    assert report_walk(data, 2) == ((1, 1), (2, 1))


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
