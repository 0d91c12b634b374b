"""Tests of the benchmark itself: checker, counters, generator and runner.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from chainalign import chain_from_coords, cli  # noqa: E402
from chainalign.plsa import star_compatible  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _report(inst) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(inst.argv) == 0
    return out.getvalue()


def _tampered(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """First smoke instance of every workload and its genuine report."""
    out = {}
    for name in WORKLOADS:
        inst = workloads.build(name, 5, tmp_path_factory.mktemp(name), "smoke")[0]
        out[name] = (inst, _report(inst))
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_checker_accepts_genuine_report(smoke, name):
    inst, text = smoke[name]
    assert 0.0 < checks.check(inst, text) <= 1.0


def _shift_step(data):
    step = data["walk"][len(data["walk"]) // 2]
    step[-1] += 1


def _value_off_by_one(data):
    data["value"] += 1


@pytest.mark.parametrize("name", ["pair_homolog", "rigid_triples"])
@pytest.mark.parametrize("edit", [_shift_step, _value_off_by_one])
def test_checker_rejects_tampered_alignment(smoke, name, edit):
    inst, text = smoke[name]
    with pytest.raises(checks.CheckFailed):
        checks.check(inst, _tampered(text, edit))


def test_checker_rejects_moved_motion(smoke):
    inst, text = smoke["rigid_triples"]

    def edit(data):
        data["motion"]["translation"][0] += 0.25

    with pytest.raises(checks.CheckFailed):
        checks.check(inst, _tampered(text, edit))


def test_checker_rejects_golden_mismatch(smoke):
    inst, text = smoke["pair_homolog"]
    data = json.loads(text)
    good = {"value": data["value"], "walk": workloads.walk_digest(data["walk"])}
    for expect in (dict(good, value=good["value"] - 1), dict(good, walk="0" * 16)):
        inst.expect = expect
        with pytest.raises(checks.CheckFailed):
            checks.check(inst, text)
    inst.expect = good
    checks.check(inst, text)
    inst.expect = {}


def test_checker_rejects_wrong_independent_set(smoke):
    inst, text = smoke["hard_instances"]
    with pytest.raises(checks.CheckFailed):
        checks.check(inst, _tampered(text, lambda d: d["equivalence"].update(k=d["equivalence"]["k"] + 1)))
    (graph,) = inst.inputs
    i, j = graph.edges[0]

    def edge_inside(d):
        d["equivalence"]["independent_set"][:2] = [i, j]

    with pytest.raises(checks.CheckFailed):
        checks.check(inst, _tampered(text, edge_inside))


def test_checker_rejects_garbage(smoke):
    inst, _ = smoke["pair_homolog"]
    for text in ("", "not json", "{}", '{"command": "plsa"}'):
        with pytest.raises(checks.CheckFailed):
            checks.check(inst, text)


def test_tampered_report_counts_as_failed_operation(smoke):
    inst, text = smoke["pair_homolog"]
    bad = _tampered(text, _value_off_by_one)
    records = [(0, 0, "good"), (0, 0, "good"), (0, 0, "bad")]
    failed, fractions = worker.verify(checks, [inst], records, {(0, "good"): text, (0, "bad"): bad})
    assert failed == 1 and len(fractions) == 1


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        a = workloads.instance_texts(name, 7, "smoke")
        assert a == workloads.instance_texts(name, 7, "smoke")
        assert a != workloads.instance_texts(name, 8, "smoke")


@pytest.mark.parametrize("seed", [0, 127])  # first seed used, last seed held out
def test_goldens_match_generator(tmp_path, seed):
    insts = workloads.build("pair_homolog", seed, tmp_path)
    assert all("value" in i.expect for i in insts)


def test_valid_cell_counter_matches_library():
    for seed in range(3):
        rng = generate.rng_for("counter", seed)
        base = generate.persistent_walk(rng, 12)
        a, b = (chain_from_coords(f"c{k}", generate.noisy_copy(rng, base, 0.5, 0.2)) for k in range(2))
        want = sum(
            star_compatible([p.as_tuple(), q.as_tuple()], 1.5)
            for p, q in itertools.product(a.points, b.points)
        )
        assert 0 < spans._valid_cells(a, b, 1.5) == want


def _nested_tracer() -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.op_id = 0
    outer = tracer.open("cli")
    tracer.close(tracer.open("chainio.parse"))
    tracer.close(outer)
    return tracer


def test_nesting_check_rejects_bad_spans():
    _nested_tracer().check_nesting()
    escaped = _nested_tracer()
    escaped.end[1] = escaped.end[0] + 1.0
    other_op = _nested_tracer()
    other_op.op[1] = 1
    unclosed = _nested_tracer()
    unclosed.open("cli")
    for tracer in (escaped, other_op, unclosed):
        with pytest.raises(RuntimeError):
            tracer.check_nesting()


def test_tail_has_ten_samples_beyond_it():
    lat = [float(x) for x in range(40)]
    value, pct = worker.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 75.0
    value, pct = worker.tail(lat[:12])
    assert pct == 50.0


def test_interquartile_mean_ignores_the_outer_quarters():
    assert worker.interquartile_mean([0.0, 1.0, 2.0, 100.0]) == 1.5
    assert worker.interquartile_mean([3.0]) == 3.0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_every_metric(name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", name, "--seed", "2", "--seconds", "0.5",
                    "--trace", str(trace), "--scale", "smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pair_homolog", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
