"""Reading and writing chains and graphs as plain text.

Chain files hold one or more chains.  A line starting with '>' opens a chain
and names it with the rest of the line; the following lines give one vertex
each as three whitespace-separated decimal numbers.  '#' starts a comment
anywhere on a line and blank lines are ignored.  A file with no '>' at all
is a single anonymous chain (empty name).  Coordinates are written with
repr, so serializing and reparsing reproduces every float bit-for-bit.

Graph files give a header line "N M" (vertex count, edge count) followed by
exactly M lines "i j" with 1-based endpoints.

PDB input is reduced to the alpha-carbon trace: ATOM records named " CA "
with blank or 'A' alternate-location codes, first model only, optionally
filtered to one chain identifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedRecord, NoCaAtoms, ParseError
from .geometry import Chain3D, Point3
from .reduction import Graph, check_edge

__all__ = [
    "ChainDocument",
    "parse_chain_file",
    "serialize_chain_document",
    "parse_graph_file",
    "serialize_graph",
    "parse_pdb_ca",
]


@dataclass(frozen=True)
class ChainDocument:
    """An ordered collection of uniquely named chains."""

    chains: tuple[Chain3D, ...]

    def __post_init__(self):
        if not isinstance(self.chains, tuple):
            object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise ValueError("a document needs at least one chain")
        names = [c.id for c in self.chains]
        if len(set(names)) != len(names):
            raise ValueError("chain names must be unique")


def parse_chain_file(text: str) -> ChainDocument:
    """Parse the chain text format.  Raises ParseError with the offending
    line number on any structural problem."""
    chains: list[Chain3D] = []
    seen: set[str] = set()
    cur_name: str | None = None
    cur_line = 0
    cur_pts: list[Point3] = []
    anonymous = False

    def finish() -> None:
        if cur_name is None:
            return
        if not cur_pts:
            raise ParseError(cur_line, f"chain {cur_name!r} has no vertices")
        chains.append(Chain3D(cur_name, tuple(cur_pts)))

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(">"):
            if anonymous:
                raise ParseError(no, "chain header after headerless vertices")
            name = line[1:].strip()
            finish()
            if name in seen:
                raise ParseError(no, f"duplicate chain name {name!r}")
            seen.add(name)
            cur_name, cur_line, cur_pts = name, no, []
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, f"expected 3 coordinates, got {len(parts)}")
        try:
            pt = Point3(float(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ParseError(no, str(exc)) from None
        if cur_name is None:
            anonymous = True
            cur_name, cur_line = "", no
        cur_pts.append(pt)

    finish()
    if not chains:
        raise ParseError(1, "no chains in document")
    return ChainDocument(tuple(chains))


def serialize_chain_document(doc: ChainDocument) -> str:
    """Inverse of parse_chain_file; names and coordinates round-trip exactly.

    Raises ValueError for a name the header line cannot carry: one holding
    '#' or a line break, or with leading or trailing whitespace.
    """
    lines: list[str] = []
    for chain in doc.chains:
        name = chain.id
        if "#" in name or name.strip() != name or len(f">{name}".splitlines()) != 1:
            raise ValueError(f"chain name {name!r} cannot be written to a chain file")
        lines.append(">" + name)
        for p in chain.points:
            lines.append(f"{p.x!r} {p.y!r} {p.z!r}")
    return "\n".join(lines) + "\n"


def parse_graph_file(text: str) -> Graph:
    """Parse "N M" plus M edge lines, comments and blanks ignored."""
    sig: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            sig.append((no, line))
    if not sig:
        raise ParseError(1, "empty graph file")

    head_no, head = sig[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(head_no, "expected header 'N M'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(head_no, f"non-integer header {head!r}") from None
    if n < 0 or m < 0:
        raise ParseError(head_no, "vertex and edge counts must be >= 0")
    if len(sig) - 1 != m:
        raise ParseError(head_no, f"expected {m} edge lines, found {len(sig) - 1}")

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in sig[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, "expected edge line 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"non-integer edge {line!r}") from None
        try:
            check_edge((i, j), n, seen)
        except ValueError as e:
            raise ParseError(no, str(e)) from None
        edges.append((i, j))
    return Graph(n, tuple(edges))


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n_vertices} {len(graph.edges)}"]
    lines += [f"{i} {j}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def parse_pdb_ca(text: str, chain_id: str | None = None) -> Chain3D:
    """Alpha-carbon trace of the first model of a PDB file.

    Keeps ATOM records whose atom name is exactly " CA " and whose alternate
    location code is blank or 'A'; HETATM is ignored.  Raises MalformedRecord
    for ATOM records that are too short or have unreadable coordinates, and
    NoCaAtoms when nothing qualifies.
    """
    pts: list[Point3] = []
    model_seen = False
    for no, raw in enumerate(text.splitlines(), start=1):
        rec = raw[:6].strip()
        if rec == "MODEL":
            if model_seen:
                break
            model_seen = True
            continue
        if rec == "ENDMDL" and model_seen:
            break
        if rec != "ATOM":
            continue
        if len(raw) < 54:
            raise MalformedRecord(no, "ATOM record shorter than 54 columns")
        if raw[12:16] != " CA ":
            continue
        if raw[16] not in (" ", "A"):
            continue
        if chain_id is not None and raw[21] != chain_id:
            continue
        try:
            pt = Point3(float(raw[30:38]), float(raw[38:46]), float(raw[46:54]))
        except ValueError:
            raise MalformedRecord(no, "unreadable coordinate field") from None
        pts.append(pt)
    if not pts:
        where = f" for chain {chain_id!r}" if chain_id is not None else ""
        raise NoCaAtoms(f"no alpha-carbon atoms{where}")
    return Chain3D(chain_id or "CA", tuple(pts))
