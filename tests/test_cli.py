import contextlib
import io
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from chainalign.chainio import parse_chain_file
from chainalign import cli
from chainalign.cli import build_parser, main
from chainalign.oracles import plsa_static_pair
from chainalign.plsa import MULTI_STATE_LIMIT, PAIR_CELL_LIMIT
from chainalign.reduction import build_reduction, Graph

FIVE_VERTEX_GRAPH = "5 6\n2 3\n2 4\n1 2\n1 4\n3 4\n4 5\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def chain_text(coords):
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in coords)


def atom_line(serial, x, y, z, chain="A"):
    line = f"{'ATOM':<6.6}{serial:5d}  CA  GLY {chain}{serial:4d}    {x:8.3f}{y:8.3f}{z:8.3f}"
    assert len(line) == 54
    return line


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_dfd_reports_value_walk_and_witness(tmp_path, capsys):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0), (1, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(0, 1, 0)]))
    data = run_json(capsys, ["dfd", fa, fb, "--walk", "--format", "json"])
    assert data["value"] == math.sqrt(2.0)
    assert data["walk"] == [[1, 1], [2, 1]]
    assert data["witness"] == [2, 1]
    assert [c["name"] for c in data["chains"]] == ["", ""]

    bare = run_json(capsys, ["dfd", fa, fb, "--format", "json"])
    assert "walk" not in bare


def test_gen_hard_writes_instance_files(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    out = tmp_path / "inst"
    assert main(["gen-hard", fg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(out / "manifest.json")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["graph"]["n_vertices"] == 5
    assert manifest["graph"]["edges"] == [[2, 3], [2, 4], [1, 2], [1, 4], [3, 4], [4, 5]]
    assert [c["name"] for c in manifest["chains"]] == [f"P{i}" for i in range(7)]

    inst = build_reduction(Graph(5, ((2, 3), (2, 4), (1, 2), (1, 4), (3, 4), (4, 5))), 0.05)
    for chain in inst.chains:
        doc = parse_chain_file((out / f"{chain.id}.chain").read_text())
        assert doc.chains[0].points == chain.points  # disk round-trip is exact


def test_plsa_on_generated_chains(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    out = tmp_path / "inst"
    main(["gen-hard", fg, "--out", str(out)])
    capsys.readouterr()
    args = [str(out / "P0.chain"), str(out / "P3.chain"), "--delta", "0.05", "--format", "json"]
    plain = run_json(capsys, ["plsa"] + args)
    fast = run_json(capsys, ["plsa"] + args + ["--fast"])
    plain.pop("elapsed_ms")
    fast.pop("elapsed_ms")
    assert plain == fast  # --fast has no effect
    a, b = (parse_chain_file((out / f).read_text()).chains[0] for f in ("P0.chain", "P3.chain"))
    ref = plsa_static_pair(a, b, 0.05)
    assert plain["value"] == ref.value == 9
    assert plain["walk"] == [list(s) for s in ref.walk.steps]
    assert plain["subsequences"] == [list(s) for s in ref.subsequences]


def test_plsa_three_chains(tmp_path, capsys):
    files = [
        write(tmp_path / f"c{i}.chain", chain_text([(0, 0, 0), (3, 0, 0)])) for i in range(3)
    ]
    data = run_json(capsys, ["plsa"] + files + ["--delta", "0.5", "--format", "json"])
    assert data["value"] == 6
    assert data["subsequences"] == [[1, 2], [1, 2], [1, 2]]


def test_rigid_recovers_a_translation(tmp_path, capsys):
    a = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 3.0, 0.0), (5.0, 3.0, 1.0)]
    b = [(x + 10.0, y - 4.0, z + 2.0) for x, y, z in a]
    fa = write(tmp_path / "a.chain", chain_text(a))
    fb = write(tmp_path / "b.chain", chain_text(b))
    data = run_json(
        capsys,
        ["plsa-rigid", fa, fb, "--delta", "1e-6", "--budget", "1000", "--format", "json"],
    )
    assert data["value"] == 8
    tx, ty, tz = data["motion"]["translation"]
    assert (tx, ty, tz) == pytest.approx((-10.0, 4.0, -2.0), abs=1e-6)
    moved = data["chains"][1]["vertices"]
    for got, want in zip(moved, a):
        assert got == pytest.approx(list(want), abs=1e-6)

    seeded = run_json(
        capsys,
        ["plsa-rigid", fa, fb, "--delta", "1e-6", "--mode", "random", "--seed", "7",
         "--budget", "5", "--format", "json"],
    )
    assert seeded["seed"] == 7
    # each random candidate anchors one vertex pair exactly, so something aligns
    assert seeded["value"] >= 2


def test_unseeded_random_search_reports_a_seed_that_replays_it(tmp_path, capsys):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    fb = write(tmp_path / "b.chain", chain_text([(5, 1, 0), (5, 2, 0), (4, 1, 0), (5, 1, 1)]))
    argv = ["plsa-rigid", fa, fb, "--delta", "0.5", "--mode", "random", "--budget", "20",
            "--format", "json"]
    drawn = run_json(capsys, argv)
    assert type(drawn["seed"]) is int
    replay = run_json(capsys, argv + ["--seed", str(drawn["seed"])])
    del drawn["elapsed_ms"], replay["elapsed_ms"]
    assert replay == drawn
    # the triples scan draws nothing, so its report still holds no seed
    triples = run_json(capsys, argv[:5] + ["--budget", "20", "--format", "json"])
    assert "seed" not in triples


def test_verify_reduction_output(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    data = run_json(capsys, ["verify-reduction", fg, "--format", "json"])
    assert data["properties"]["max_same_index_distance"] == 0.05
    assert data["properties"]["min_cross_distance"] > 3
    assert data["equivalence"]["k"] == 3
    assert data["equivalence"]["independent_set"] == [1, 3, 5]
    assert data["equivalence"]["matched_subset"] == [1, 3, 5]

    assert main(["verify-reduction", fg]) == 0
    text = capsys.readouterr().out
    assert "equivalence: k=3 vertices 1 3 5" in text


def assert_json_dumps_text(text):
    # the text json.dumps(payload, indent=2) gives for the payload it holds
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_verify_reduction_json_is_json_dumps_text(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["verify-reduction", fg, "--format", "json"]) == 0
    assert_json_dumps_text(capsys.readouterr().out)


def test_mis_json_is_json_dumps_text(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["mis", fg, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["vertices"] == [1, 3, 5]
    assert_json_dumps_text(out)


def test_gen_hard_manifest_is_json_dumps_text(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["gen-hard", fg, "--out", str(tmp_path / "inst")]) == 0
    capsys.readouterr()
    assert_json_dumps_text((tmp_path / "inst" / "manifest.json").read_text(encoding="utf-8"))


def test_mis_text_output(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["mis", fg]) == 0
    out = capsys.readouterr().out
    assert "value: 3" in out
    assert "vertices: 1 3 5" in out


def test_render_produces_svg(tmp_path, capsys):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0), (1, 0.5, 0), (2, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(0, 1, 0), (2, 1, 0)]))
    data = run_json(capsys, ["plsa", fa, fb, "--delta", "1.2", "--format", "json"])
    freport = write(tmp_path / "run.json", json.dumps(data))
    fsvg = tmp_path / "out.svg"
    assert main(["render", freport, "--out", str(fsvg)]) == 0
    capsys.readouterr()
    root = ET.fromstring(fsvg.read_text())
    assert root.tag.endswith("svg")
    matches = [el for el in root.iter() if el.get("class") == "match"]
    assert len(matches) == len(data["walk"])
    data["walk"][0] = [True, "1"]  # coerced to (1, 1) before
    tampered = write(tmp_path / "tampered.json", json.dumps(data))
    assert main(["render", tampered, "--out", str(tmp_path / "t.svg")]) == 2
    assert "non-integer index" in capsys.readouterr().err
    data["walk"][0] = [1, 1]
    data["chains"][1]["vertices"][1][0] = 10**400  # a JSON integer beyond floats
    huge = write(tmp_path / "huge.json", json.dumps(data))
    assert main(["render", huge, "--out", str(tmp_path / "h.svg")]) == 2
    assert "bad chain entry" in capsys.readouterr().err
    data["chains"][1]["vertices"][1] = ["1.5", True, " 2 "]  # rebuilt as (1.5, 1.0, 2.0) before
    strings = write(tmp_path / "strings.json", json.dumps(data))
    assert main(["render", strings, "--out", str(tmp_path / "s.svg")]) == 2
    assert "is not a number" in capsys.readouterr().err


def test_pdb_inputs(tmp_path, capsys):
    lines_a = [atom_line(i + 1, float(i), 0.0, 0.0) for i in range(3)]
    lines_b = [atom_line(i + 1, float(i), 0.25, 0.0, chain="B") for i in range(3)]
    fa = write(tmp_path / "a.pdb", "\n".join(lines_a) + "\n")
    fb = write(tmp_path / "b.pdb", "\n".join(lines_b) + "\n")
    data = run_json(capsys, ["dfd", fa, fb, "--format", "json"])
    assert data["value"] == 0.25
    filtered = run_json(capsys, ["dfd", fb, fb, "--pdb-chain", "B", "--format", "json"])
    assert filtered["value"] == 0.0


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main(["plsa", "--help"]) == 0
    capsys.readouterr()


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0), (1, 0.5, 0), (2, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(0, 1, 0), (2, 1, 0)]))
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    calls = (
        ["plsa", fa, fb],  # --delta is missing: a usage error
        ["--help"],
        ["plsa", fa, fb, "--delta", "1.2", "--format", "json"],
        ["verify-reduction", fg, "--format", "json"],
    )

    def run_all():
        runs = []
        for argv in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, re.sub(r'"elapsed_ms": .*', "", out), err))
        return runs

    cli._main_parser.cache_clear()
    shared = run_all()
    assert cli._main_parser.cache_info().misses == 1
    assert cli._main_parser() is cli._main_parser()
    assert build_parser() is not build_parser()
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert "required: --delta" in shared[0][2]
    monkeypatch.setattr(cli, "_main_parser", build_parser)  # a fresh parser per call
    assert run_all() == shared


# ---------------------------------------------------------------------------
# failure modes map to exit codes
# ---------------------------------------------------------------------------

def test_unreadable_or_unparseable_input_exits_2(tmp_path, capsys):
    good = write(tmp_path / "a.chain", chain_text([(0, 0, 0)]))
    bad = write(tmp_path / "bad.chain", "1 2\n")
    notjson = write(tmp_path / "r.json", "not json")
    assert main(["dfd", str(tmp_path / "missing.chain"), good]) == 2
    assert main(["dfd", bad, good]) == 2
    assert main(["render", notjson, "--out", str(tmp_path / "x.svg")]) == 2
    assert main(["plsa", good, "--delta", "1"]) == 2  # one chain is not enough
    assert main(["plsa", good, good, good, "--delta", "1", "--fast"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_multi_chain_files_are_rejected(tmp_path, capsys):
    one = write(tmp_path / "one.chain", chain_text([(0, 0, 0)]))
    two = write(tmp_path / "two.chain", ">p\n0 0 0\n>q\n1 0 0\n")
    assert main(["plsa", one, two, "--delta", "1"]) == 2
    assert main(["dfd", two, one]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("holds 2 chains") == 2


def test_undecodable_chain_file_exits_2(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError, which would otherwise exit 3
    good = write(tmp_path / "a.chain", chain_text([(0, 0, 0)]))
    bad = tmp_path / "bad.chain"
    bad.write_bytes(b"0 0 0\n\xff\n")
    assert main(["plsa", str(bad), good, "--delta", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "decode" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("x", [1e308, -1e308])
def test_dfd_that_overflows_exits_2(tmp_path, capsys, fmt, x):
    # strict JSON has no Infinity, so an overflowed distance is not reported
    fa = write(tmp_path / "a.chain", chain_text([(x, 0, 0), (0, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(-x, 0, 0), (0, 0, 0)]))
    assert main(["dfd", fa, fb, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "vertex 1 of the first chain and vertex 1 of the second" in err
    # the largest finite distance is still reported
    fo = write(tmp_path / "o.chain", chain_text([(0, 0, 0)]))
    assert main(["dfd", fa, fo, "--format", fmt]) == 0
    assert "1e+308" in capsys.readouterr().out


def test_bad_parameters_exit_3(tmp_path, capsys):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(1, 0, 0)]))
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    big = write(tmp_path / "big.graph", "25 0\n")
    assert main(["plsa", fa, fb, "--delta", "-1"]) == 3
    assert main(["plsa-rigid", fa, fb, "--delta", "1", "--budget", "0"]) == 3
    assert main(["gen-hard", fg, "--delta", "0.5", "--out", str(tmp_path / "o")]) == 3
    assert main(["verify-reduction", big]) == 3
    long = write(tmp_path / "long.chain", chain_text([(i, 0, 0) for i in range(30)]))
    assert 30 ** 4 > MULTI_STATE_LIMIT
    assert main(["plsa", long, long, long, long, "--delta", "1"]) == 3
    huge = write(tmp_path / "huge.chain", chain_text([(i, 0, 0) for i in range(5001)]))
    assert 5001 * 5001 > PAIR_CELL_LIMIT
    assert main(["plsa", huge, huge, "--delta", "1"]) == 3
    assert main(["plsa-rigid", huge, huge, "--delta", "1"]) == 3
    capsys.readouterr()


def test_work_over_the_cell_limit_exits_3(tmp_path, capsys):
    huge = write(tmp_path / "huge.chain", chain_text([(i, 0, 0) for i in range(5001)]))
    tri = write(tmp_path / "tri.chain", chain_text([(0, 0, 0), (1, 0, 0), (0, 1, 0)]))
    assert 5001 * 5001 > PAIR_CELL_LIMIT
    for argv in (["dfd", huge, huge], ["plsa-rigid", huge, tri, "--delta", "1"]):
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # parsing takes about 0.7 MB per chain; a full table would take 0.2 GB
        assert peak < 3_000_000
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 2
    two = write(tmp_path / "two.chain", chain_text([(0, 0, 0), (1, 0, 0)]))
    data = run_json(capsys, ["plsa-rigid", huge, two, "--delta", "1", "--format", "json"])
    assert data["value"] == 5


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_thresholds_exit_3(tmp_path, capsys, value):
    fa = write(tmp_path / "a.chain", chain_text([(0, 0, 0), (1, 0, 0)]))
    fb = write(tmp_path / "b.chain", chain_text([(0, 0.5, 0)]))
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["plsa", fa, fb, "--fast", "--delta", value]) == 3
    assert main(["plsa", fa, fb, "--delta", value]) == 3
    assert main(["plsa-rigid", fa, fb, "--delta", value]) == 3
    assert main(["plsa-rigid", fa, fb, "--delta", "1", "--prune-tolerance", value]) == 3
    assert main(["verify-reduction", fg, "--delta", value]) == 3
    assert main(["verify-reduction", fg, "--gap-factor", value]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 6


def test_violated_geometry_exits_4(tmp_path, capsys):
    fg = write(tmp_path / "g.graph", FIVE_VERTEX_GRAPH)
    assert main(["verify-reduction", fg, "--gap-factor", "1e9"]) == 4
    assert "internal error:" in capsys.readouterr().err


def test_unknown_arguments_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# every command's output, pinned
# ---------------------------------------------------------------------------

# tests/cli_outputs.json holds, per case, the exit code, the stdout with
# elapsed_ms blanked and the first line of stderr; `python tests/test_cli.py`
# records it again
OUTPUTS = Path(__file__).resolve().with_name("cli_outputs.json")

PINNED_INPUTS = {
    "a.chain": chain_text([(0, 0, 0), (1, 0, 0), (2, 0, 0)]),
    "b.chain": chain_text([(0, 0.5, 0), (1, 0.5, 0), (2, 0.5, 0)]),
    "c.chain": chain_text([(0, 1, 0), (1.5, 0.25, 0.5), (2, 0, 0.25), (3, 0, 0)]),
    "five.graph": FIVE_VERTEX_GRAPH,
    "path13.graph": "13 12\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 13)),
    "big.graph": "21 0\n",
    "bad.json": "not json",
}

PINNED_CASES = {
    "dfd": ["dfd", "a.chain", "c.chain", "--walk"],
    "dfd_no_walk": ["dfd", "a.chain", "b.chain"],
    "plsa_2": ["plsa", "a.chain", "c.chain", "--delta", "1"],
    "plsa_3": ["plsa", "a.chain", "b.chain", "c.chain", "--delta", "1"],
    "rigid_triples": ["plsa-rigid", "a.chain", "b.chain", "--delta", "1", "--budget", "5"],
    "rigid_random": ["plsa-rigid", "a.chain", "b.chain", "--delta", "1", "--mode", "random",
                     "--seed", "7", "--budget", "5"],
    "verify": ["verify-reduction", "five.graph"],
    "verify_13": ["verify-reduction", "path13.graph", "--gap-factor", "2"],
    "verify_property_fails": ["verify-reduction", "five.graph", "--gap-factor", "1e9"],
    "mis": ["mis", "five.graph"],
}
PINNED_CASES.update(
    {f"{name}_json": argv + ["--format", "json"] for name, argv in list(PINNED_CASES.items())}
)
PINNED_CASES.update({
    "gen_hard": ["gen-hard", "five.graph", "--out", "inst"],
    "dfd_missing_file": ["dfd", "missing.chain", "a.chain"],
    "plsa_negative_delta": ["plsa", "a.chain", "b.chain", "--delta", "-1"],
    "rigid_zero_budget": ["plsa-rigid", "a.chain", "b.chain", "--delta", "1", "--budget", "0"],
    "gen_hard_bad_delta": ["gen-hard", "five.graph", "--delta", "0.5", "--out", "inst"],
    "mis_too_many_vertices": ["mis", "big.graph"],
    "render_not_json": ["render", "bad.json", "--out", "x.svg"],
})


def blank_elapsed(text):
    return re.sub(r'(elapsed_ms"?: )[^,\n]*', r"\1-", text)


def write_pinned_inputs(path):
    for fname, text in PINNED_INPUTS.items():
        write(path / fname, text)


def run_pinned(name):
    """One pinned case, run in a directory holding PINNED_INPUTS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(PINNED_CASES[name])
    got = {
        "exit": code,
        "stdout": blank_elapsed(out.getvalue()),
        "stderr": err.getvalue().partition("\n")[0],
    }
    if name == "gen_hard":
        got["manifest"] = blank_elapsed(Path("inst/manifest.json").read_text(encoding="utf-8"))
    return got


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_output_is_pinned(name, tmp_path, monkeypatch):
    write_pinned_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_pinned(name) == json.loads(OUTPUTS.read_text(encoding="utf-8"))[name]


# the names perfbench/spans.py replaces on chainalign.cli while tracing; the
# CLI must look each one up there at call time
TRACED_NAMES = (
    "parse_chain_file", "parse_graph_file", "parse_pdb_ca", "plsa_static_pair_fast",
    "validate_alignment_result", "plsa_rigid_pair", "apply_motion", "build_reduction",
    "verify_reduction_properties", "solve_reduction_bruteforce",
    "max_independent_set_bruteforce", "emit_report",
)


def test_replaced_cli_names_see_every_call(tmp_path, monkeypatch, capsys):
    write_pinned_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "a.pdb", "\n".join(atom_line(i + 1, float(i), 0.0, 0.0) for i in range(3)))
    calls = dict.fromkeys(TRACED_NAMES, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in TRACED_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for argv in (
        ["dfd", "a.chain", "a.pdb"],
        ["plsa", "a.chain", "b.chain", "--delta", "1"],
        ["plsa-rigid", "a.chain", "c.chain", "--delta", "1", "--budget", "5"],
        ["verify-reduction", "five.graph"],
        ["mis", "five.graph"],
        ["gen-hard", "five.graph", "--out", "inst"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert [name for name, n in calls.items() if n == 0] == []


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_pinned_inputs(Path(tmp))
        os.chdir(tmp)
        recorded = {name: run_pinned(name) for name in sorted(PINNED_CASES)}
    OUTPUTS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
