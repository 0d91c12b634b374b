"""Results that do not depend on the BLAS kernel numpy runs.

OpenBLAS built for several CPUs picks its kernels at run time, and
OPENBLAS_CORETYPE overrides the pick.  A subprocess on the Prescott kernels
must give the floats and reports this process gives.
"""

import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainalign
from chainalign.cli import main
from chainalign.geometry import chain_from_coords, triangle_area
from chainalign.rigid import SearchConfig, enumerate_candidate_motions
from test_rigid import tolerance_triangles


def numpy_uses_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode argument
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "").lower()


def write_inputs(directory: Path) -> None:
    rng = random.Random(29)
    triangles = [[[rng.uniform(-10, 10) for _ in range(3)] for _ in range(3)]
                 for _ in range(2000)]
    triangles += [t.tolist() for t in tolerance_triangles()]
    (directory / "triangles.json").write_text(json.dumps(triangles))
    for name in ("a", "b", "c"):
        walk = [[rng.uniform(-4, 4) for _ in range(3)] for _ in range(30)]
        (directory / f"{name}.chain").write_text("".join(f"{x} {y} {z}\n" for x, y, z in walk))
    (directory / "five.graph").write_text("5 6\n2 3\n2 4\n1 2\n1 4\n3 4\n4 5\n")


def outputs(directory: str) -> dict:
    """Areas by float.hex, the triples scan's candidate count on each
    tolerance triangle, and JSON reports with elapsed_ms blanked, for the
    inputs write_inputs put in directory."""
    d = Path(directory)
    triangles = json.loads((d / "triangles.json").read_text())
    chains = [chain_from_coords("t", t) for t in triangles[-2:]]
    config = SearchConfig("triples", 10, prune_tolerance=1.0)
    a, b, c, graph = (str(d / name) for name in ("a.chain", "b.chain", "c.chain", "five.graph"))
    reports = []
    for argv in (
        ["plsa", a, b, "--delta", "2"],
        ["plsa", a, b, c, "--delta", "3"],
        ["dfd", a, b, "--walk"],
        ["verify-reduction", graph],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", "json"]) == 0
        report = json.loads(out.getvalue())
        report["elapsed_ms"] = None
        reports.append(json.dumps(report))
    return {
        "areas": [triangle_area(*t).hex() for t in triangles],
        "candidates": [len(list(enumerate_candidate_motions(t, t, 1.0, config))) for t in chains],
        "reports": reports,
    }


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
@pytest.mark.skipif(not numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_results_do_not_depend_on_the_blas_kernel(tmp_path):
    write_inputs(tmp_path)
    here = outputs(str(tmp_path))
    assert here["candidates"] == [0, 1]
    paths = [str(Path(chainalign.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(paths)}
    script = "import json, sys, test_blas_kernel; print(json.dumps(test_blas_kernel.outputs(sys.argv[1])))"
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    there = json.loads(run.stdout)
    assert there["areas"] == here["areas"]
    assert there["candidates"] == here["candidates"]
    assert there["reports"] == here["reports"]
