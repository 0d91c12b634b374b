"""Machine-readable run reports and a small SVG renderer.

Reports serialize to JSON with repr-exact floats, so a report read back
reproduces the value and every index list exactly.  The renderer projects
the chains onto their two directions of largest spread and draws each chain
as a polyline with one dashed match line per coupled pair of vertices.

Every JSON document the package writes goes through json_text, whose text
is json.dumps(obj, indent=2)'s byte for byte.  The standard library runs its
C encoder only without an indent, so json_text walks dicts and lists in
Python and hands each list of numbers, and each list of non-empty lists of
numbers (coordinates, walk steps, subsequences, rotation rows), to that C
encoder in one compact call; it then puts back the newlines and the indent
with str.replace, which is safe because number tokens hold no ",", "[" or
"]".  Strings, dicts and every other list go item by item.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .errors import InputError
from .geometry import Chain3D, RigidMotion, chain_from_coords

__all__ = [
    "RunReport",
    "emit_report",
    "json_text",
    "parse_report",
    "report_chains",
    "report_walk",
    "emit_alignment_svg",
]


@dataclass(frozen=True)
class RunReport:
    """Everything one command run wants to say.

    motion, seed, witness, and chains are optional and omitted from the
    serialized form when absent; chains carry the coordinates the result
    refers to so a report is enough to render it.
    """

    command: str
    inputs: tuple[dict[str, str], ...]
    delta: float | None
    value: float | int
    elapsed_ms: float
    subsequences: tuple[tuple[int, ...], ...] | None = None
    walk: tuple[tuple[int, ...], ...] | None = None
    witness: tuple[int, int] | None = None
    motion: RigidMotion | None = None
    seed: int | None = None
    chains: tuple[Chain3D, ...] | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "command": self.command,
            "inputs": list(self.inputs),
            "delta": self.delta,
            "value": self.value,
        }
        if self.subsequences is not None:
            out["subsequences"] = [list(s) for s in self.subsequences]
        if self.walk is not None:
            out["walk"] = [list(s) for s in self.walk]
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.motion is not None:
            out["motion"] = {
                "rotation": [list(row) for row in self.motion.rotation],
                "translation": list(self.motion.translation),
            }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.chains is not None:
            out["chains"] = [
                {"name": c.id, "vertices": [list(p) for p in c.points]}
                for c in self.chains
            ]
        out["elapsed_ms"] = self.elapsed_ms
        return out


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Render a report as JSON or as compact human-readable text."""
    if fmt == "json":
        return json_text(report.to_dict()) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"command: {report.command}"]
    for inp in report.inputs:
        lines.append(f"input: {inp.get('path', '?')} sha256={inp.get('sha256', '?')}")
    if report.delta is not None:
        lines.append(f"delta: {report.delta!r}")
    lines.append(f"value: {report.value!r}")
    if report.subsequences is not None:
        for c, sub in enumerate(report.subsequences):
            lines.append(f"subsequence[{c}]: {' '.join(map(str, sub))}")
    if report.walk is not None:
        lines.append("walk: " + " ".join("(" + ",".join(map(str, s)) + ")" for s in report.walk))
    if report.witness is not None:
        lines.append(f"witness: ({report.witness[0]},{report.witness[1]})")
    if report.motion is not None:
        for row in report.motion.rotation:
            lines.append("rotation: " + " ".join(repr(v) for v in row))
        lines.append("translation: " + " ".join(repr(v) for v in report.motion.translation))
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    lines.append(f"elapsed_ms: {report.elapsed_ms!r}")
    return "\n".join(lines) + "\n"


# the C encoder (no indent), for numbers and lists of numbers
_compact = json.JSONEncoder(separators=(",", ":")).encode
_NUMBERS = {int, float}
_SEQUENCES = {list, tuple}


def json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2), byte for byte, for any JSON
    value (dict keys are strings; another key raises TypeError)."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    # nl is a newline plus the indent of the line obj starts on; the type
    # tests are json's isinstance tests
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds <= _NUMBERS:
            out.append("[" + inner + _compact(obj)[1:-1].replace(",", "," + inner) + nl + "]")
        elif (kinds <= _SEQUENCES and all(obj)
              and set(map(type, chain.from_iterable(obj))) <= _NUMBERS):
            # non-empty lists of numbers, "[[1,2],[3]]": every comma gets the
            # items' indent, then those between the lists their brackets'
            # indent
            items = inner + "  "
            body = _compact(obj)[2:-2].replace(",", "," + items)
            body = body.replace("]," + items + "[", inner + "]," + inner + "[" + items)
            out.append("[" + inner + "[" + items + body + inner + "]" + nl + "]")
        else:
            out.append("[")
            for k, item in enumerate(obj):
                out.append("," + inner if k else inner)
                _write(item, inner, out)
            out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            out.append(("," if k else "") + inner + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
        out.append(nl + "}")
    else:
        # None, bools, ints and floats (NaN and the infinities as json
        # spells them); any other type raises json's TypeError
        out.append(_compact(obj))


def parse_report(text: str) -> dict:
    """Read a JSON report back into a plain dict.  Raises InputError when
    the text is not a JSON object with a command."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "command" not in data:
        raise InputError("expected a JSON object with a 'command' key")
    return data


def report_chains(data: dict) -> list[Chain3D]:
    """Rebuild the embedded chains of a parsed report."""
    raw = data.get("chains")
    if not isinstance(raw, list) or not raw:
        raise InputError("report carries no chains to render")
    chains: list[Chain3D] = []
    for entry in raw:
        try:
            vertices = entry["vertices"]
            for vertex in vertices:
                for c in vertex:
                    # a JSON number parses as an int or a float; a string
                    # or a bool would be coerced by float()
                    if type(c) not in (int, float):
                        raise ValueError(f"coordinate {c!r} is not a number")
            chains.append(chain_from_coords(str(entry["name"]), vertices))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad chain entry in report: {exc}") from None
    return chains


def report_walk(data: dict, arity: int) -> tuple[tuple[int, ...], ...]:
    """Rebuild the walk of a parsed report, checked against the arity."""
    raw = data.get("walk")
    if not isinstance(raw, list):
        raise InputError("report carries no walk to render")
    steps: list[tuple[int, ...]] = []
    for step in raw:
        if not isinstance(step, list) or len(step) != arity:
            raise InputError(f"walk step {step!r} does not index {arity} chains")
        if any(type(v) is not int for v in step):
            raise InputError(f"walk step {step!r} holds a non-integer index")
        steps.append(tuple(step))
    return tuple(steps)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
# emit_alignment_svg's canvas size and border, in SVG user units
SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 40.0


def emit_alignment_svg(
    chains: Sequence[Chain3D],
    walk: Sequence[tuple[int, ...]],
) -> str:
    """Draw chains and their coupling as a standalone SVG document.

    The 3D points are projected onto the two orthogonal directions of
    largest pooled spread (signs fixed so the output is deterministic).
    Each walk step contributes one dashed line per coupled pair, from the
    first chain's vertex to each other chain's vertex, class "match".
    """
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    arrays = [c.as_array() for c in chains]
    pooled = np.vstack(arrays)
    top = float(np.abs(pooled).max())
    if top > 1e100:
        # the drawing does not change under scaling; a power of two rounds no
        # normal coordinate, and it keeps the mean, covariance and spans finite
        arrays = [arr * 2.0 ** -math.frexp(top)[1] for arr in arrays]
        pooled = np.vstack(arrays)
    center = pooled.mean(axis=0)
    spread = pooled - center
    _, vecs = np.linalg.eigh(spread.T @ spread)
    axes = vecs[:, ::-1][:, :2]
    for k in range(2):
        col = axes[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            axes[:, k] = -col

    flat = [(arr - center) @ axes for arr in arrays]
    allxy = np.vstack(flat)
    lo, hi = allxy.min(axis=0), allxy.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = min((width - 2 * margin) / span[0], (height - 2 * margin) / span[1])

    def place(xy) -> tuple[float, float]:
        x = margin + (xy[0] - lo[0]) * scale + (width - 2 * margin - span[0] * scale) / 2
        y = height - margin - (xy[1] - lo[1]) * scale - (height - 2 * margin - span[1] * scale) / 2
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for c, xy in enumerate(flat):
        color = _PALETTE[c % len(_PALETTE)]
        coords = " ".join(f"{place(p)[0]:.3f},{place(p)[1]:.3f}" for p in xy)
        parts.append(f"<g><title>{html.escape(chains[c].id or f'chain {c}', quote=False)}</title>")
        parts.append(
            f'<polyline class="chain" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        for p in xy:
            x, y = place(p)
            parts.append(
                f'<circle class="vertex" cx="{x:.3f}" cy="{y:.3f}" r="3" fill="{color}"/>'
            )
        parts.append("</g>")
    for step in walk:
        base = flat[0][step[0] - 1]
        bx, by = place(base)
        for c in range(1, len(chains)):
            ox, oy = place(flat[c][step[c] - 1])
            parts.append(
                f'<line class="match" x1="{bx:.3f}" y1="{by:.3f}" '
                f'x2="{ox:.3f}" y2="{oy:.3f}" stroke="#777777" '
                f'stroke-width="1" stroke-dasharray="4 3"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
