import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign.chainio import (
    ChainDocument,
    parse_chain_file,
    parse_graph_file,
    parse_pdb_ca,
    serialize_chain_document,
    serialize_graph,
)
from chainalign.errors import MalformedRecord, NoCaAtoms, ParseError
from chainalign.geometry import chain_from_coords
from chainalign.reduction import Graph


# ---------------------------------------------------------------------------
# chain text format
# ---------------------------------------------------------------------------

def test_serialization_round_trips_every_float_bit():
    rng = random.Random(11)
    awkward = [0.1 + 0.2, 1.0 / 3.0, -7.25e-17, 2.0**52 + 1, -0.0]
    chains = []
    for c in range(3):
        pts = []
        for _ in range(4):
            pts.append(tuple(rng.choice(awkward) + rng.uniform(-1, 1) for _ in range(3)))
        chains.append(chain_from_coords(f"chain-{c}", pts))
    doc = ChainDocument(tuple(chains))
    back = parse_chain_file(serialize_chain_document(doc))
    assert [c.id for c in back.chains] == [c.id for c in doc.chains]
    for ours, theirs in zip(doc.chains, back.chains):
        assert ours.points == theirs.points  # exact, not approximate


# names the header line carries unchanged: no '#' or line break, and no
# whitespace at either end
chain_names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="#\n\r\x0b\x0c"
                  "\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=8,
).filter(lambda name: name.strip() == name)
finite_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1.79e308, -1.79e308]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.tuples(chain_names, st.lists(st.tuples(finite_coord, finite_coord, finite_coord),
                                    min_size=1, max_size=4)),
    min_size=1, max_size=3, unique_by=lambda chain: chain[0],
))
def test_chain_documents_round_trip(chains):
    doc = ChainDocument(tuple(chain_from_coords(name, pts) for name, pts in chains))
    back = parse_chain_file(serialize_chain_document(doc))
    assert back == doc
    # == holds for -0.0 against 0.0, so compare the written digits too
    assert [list(map(repr, c.points)) for c in back.chains] == [
        list(map(repr, c.points)) for c in doc.chains
    ]


def test_headerless_file_is_one_anonymous_chain():
    doc = parse_chain_file("0 0 0\n1 1 1\n")
    assert len(doc.chains) == 1
    assert doc.chains[0].id == ""
    assert len(doc.chains[0]) == 2


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# leading comment\n"
        "\n"
        "> alpha # trailing comment on header\n"
        "0 0 0  # vertex note\n"
        "   \n"
        "1 2.5 -3\n"
        ">beta\n"
        "4 4 4\n"
    )
    doc = parse_chain_file(text)
    assert [c.id for c in doc.chains] == ["alpha", "beta"]
    assert doc.chains[0].points[1].y == 2.5


@pytest.mark.parametrize(
    "text,line",
    [
        ("1 2\n", 1),
        (">a\n1 2 3\nx y z\n", 3),
        ("1 2 3\n>b\n4 5 6\n", 2),
        (">a\n1 2 3\n>a\n4 5 6\n", 3),
        (">a\n>b\n1 2 3\n", 1),
        (">a\n1 2 3\n>b\n", 3),
        ("", 1),
        ("# nothing but a comment\n", 1),
        (">a\nnan nan nan\n", 2),
        (">a\n1 2 inf\n", 2),
        (">a\n1 2 3 4\n", 2),
    ],
)
def test_chain_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_chain_file(text)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


def test_document_rejects_duplicate_or_missing_chains():
    a = chain_from_coords("x", [(0, 0, 0)])
    with pytest.raises(ValueError):
        ChainDocument((a, a))
    with pytest.raises(ValueError):
        ChainDocument(())
    # names the header line would rename or break are refused when written
    for name in ("a#b", " pad ", "pad ", "x\ny", "x\ry", "x\r\n"):
        doc = ChainDocument((chain_from_coords(name, [(0, 0, 0)]),))
        with pytest.raises(ValueError) as exc:
            serialize_chain_document(doc)
        assert repr(name) in str(exc.value)


# ---------------------------------------------------------------------------
# graph text format
# ---------------------------------------------------------------------------

def test_graph_round_trip_preserves_edge_order():
    g = Graph(5, ((2, 3), (2, 4), (1, 2), (1, 4), (3, 4), (4, 5)))
    back = parse_graph_file(serialize_graph(g))
    assert back == g
    assert back.edges == g.edges


def test_graph_parse_tolerates_comments_and_normalizes():
    text = "# instance\n\n3 2   # N M\n3 1\n2 3\n"
    g = parse_graph_file(text)
    assert g.n_vertices == 3
    assert g.edges == ((1, 3), (2, 3))


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("5\n", 1),
        ("a b\n", 1),
        ("-1 0\n", 1),
        ("3 2\n1 2\n", 1),
        ("3 0\n1 2\n", 1),
        ("3 1\n1\n", 2),
        ("3 1\n1 x\n", 2),
        ("3 1\n2 2\n", 2),
        ("3 1\n1 4\n", 2),
        ("3 2\n1 2\n2 1\n", 3),
    ],
)
def test_graph_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_graph_file(text)
    assert exc.value.line == line


# ---------------------------------------------------------------------------
# PDB alpha-carbon extraction
# ---------------------------------------------------------------------------

def atom_line(serial, name, x, y, z, chain="A", seq=1, alt=" ", record="ATOM  "):
    # fixed-column record, exactly 54 columns wide
    line = (
        f"{record:<6.6}{serial:5d} {name:<4.4}{alt}GLY {chain}{seq:4d}"
        f"    {x:8.3f}{y:8.3f}{z:8.3f}"
    )
    assert len(line) == 54
    return line


def test_ca_trace_extraction():
    coords = [(1.0, 2.0, 3.0), (4.5, -2.25, 0.125), (7.0, 8.0, 9.0)]
    lines = ["REMARK extraction fixture", "TER"]
    serial = 1
    for i, (x, y, z) in enumerate(coords, start=1):
        lines.append(atom_line(serial, " N  ", x + 0.3, y, z, seq=i)); serial += 1
        lines.append(atom_line(serial, " CA ", x, y, z, seq=i)); serial += 1
        lines.append(atom_line(serial, " C  ", x - 0.3, y, z, seq=i)); serial += 1
    chain = parse_pdb_ca("\n".join(lines) + "\n")
    assert chain.id == "CA"
    assert [p.as_tuple() for p in chain.points] == coords


def test_only_the_first_model_is_read():
    text = "\n".join(
        [
            "MODEL        1",
            atom_line(1, " CA ", 0.0, 0.0, 0.0),
            "ENDMDL",
            "MODEL        2",
            atom_line(2, " CA ", 9.0, 9.0, 9.0),
            "ENDMDL",
        ]
    )
    chain = parse_pdb_ca(text)
    assert len(chain) == 1
    assert chain.points[0].as_tuple() == (0.0, 0.0, 0.0)


def test_alternate_locations_and_hetatm():
    text = "\n".join(
        [
            atom_line(1, " CA ", 1.0, 0.0, 0.0, alt=" "),
            atom_line(2, " CA ", 2.0, 0.0, 0.0, alt="A", seq=2),
            atom_line(3, " CA ", 3.0, 0.0, 0.0, alt="B", seq=2),
            atom_line(4, " CA ", 4.0, 0.0, 0.0, record="HETATM", seq=3),
        ]
    )
    chain = parse_pdb_ca(text)
    assert [p.x for p in chain.points] == [1.0, 2.0]


def test_chain_identifier_filter():
    text = "\n".join(
        [
            atom_line(1, " CA ", 1.0, 0.0, 0.0, chain="A"),
            atom_line(2, " CA ", 2.0, 0.0, 0.0, chain="B"),
            atom_line(3, " CA ", 3.0, 0.0, 0.0, chain="A", seq=2),
        ]
    )
    only_b = parse_pdb_ca(text, chain_id="B")
    assert only_b.id == "B"
    assert [p.x for p in only_b.points] == [2.0]
    both_a = parse_pdb_ca(text, chain_id="A")
    assert [p.x for p in both_a.points] == [1.0, 3.0]
    with pytest.raises(NoCaAtoms):
        parse_pdb_ca(text, chain_id="Z")


def test_malformed_atom_records():
    with pytest.raises(MalformedRecord) as exc:
        parse_pdb_ca("ATOM      1  CA  GLY A   1\n")
    assert exc.value.line == 1
    good = atom_line(1, " CA ", 1.0, 2.0, 3.0)
    bad = good[:30] + "  oh no " + good[38:]
    with pytest.raises(MalformedRecord) as exc:
        parse_pdb_ca(good + "\n" + bad + "\n")
    assert exc.value.line == 2


def test_no_alpha_carbons_at_all():
    with pytest.raises(NoCaAtoms):
        parse_pdb_ca(atom_line(1, " N  ", 0.0, 0.0, 0.0) + "\n")
    with pytest.raises(NoCaAtoms):
        parse_pdb_ca("REMARK empty\n")
