"""Results that do not depend on numpy's SIMD sort kernels.

numpy picks its sort kernels at run time from the CPU features it finds,
and NPY_DISABLE_CPU_FEATURES turns them off.  The kernels order equal keys
differently, and the cell finder sorts coordinates with the default,
unstable sort.  A subprocess with every dispatched feature off must give
the cells and reports this process gives.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import chainalign
from chainalign import plsa, rigid
from chainalign.chainio import parse_chain_file
from chainalign.cli import main


def dispatched_features() -> list[str]:
    """The CPU features numpy found beyond its baseline; naming a baseline
    feature in NPY_DISABLE_CPU_FEATURES makes numpy fail at import."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode argument
        return []
    return list(config.get("SIMD Extensions", {}).get("found", []))


def write_inputs(directory: Path) -> None:
    rng = random.Random(31)
    # integer grids, where many x coordinates tie
    for name in ("a", "b"):
        grid = [[float(rng.randint(-3, 3)) for _ in range(3)] for _ in range(40)]
        (directory / f"{name}.chain").write_text("".join(f"{x} {y} {z}\n" for x, y, z in grid))


def outputs(directory: str) -> dict:
    """Cells and JSON reports, elapsed_ms blanked, for the inputs
    write_inputs put in directory."""
    d = Path(directory)
    a, b = (str(d / f"{name}.chain") for name in "ab")
    pa, pb = (parse_chain_file(Path(p).read_text()).chains[0].as_array() for p in (a, b))
    cells = []
    for block in (1, 24, plsa.BLOCK_CELLS):
        with mock.patch.object(plsa, "BLOCK_CELLS", block):
            cells += [plsa._valid_cells(pa, pb, delta).tolist() for delta in (0.0, 1.0, 2.5)]
    # eight identical copies of b turned a quarter about z: every x ties
    # at least eight ways
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    found, bounds = rigid._chunk_cells(pa, pb, np.repeat(quarter[None], 8, axis=0),
                                       np.ones((8, 3)), 1.5)
    reports = []
    for argv in (
        ["plsa", a, b, "--delta", "1.5"],
        ["plsa-rigid", a, b, "--delta", "1.5", "--mode", "triples", "--budget", "60"],
        ["plsa-rigid", a, b, "--delta", "1.5", "--mode", "random", "--seed", "5", "--budget", "60"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", "json"]) == 0
        report = json.loads(out.getvalue())
        report["elapsed_ms"] = None
        reports.append(json.dumps(report))
    return {"cells": cells, "chunk": [found.tolist(), bounds], "reports": reports}


@pytest.mark.skipif(not dispatched_features(), reason="numpy dispatches no CPU feature")
def test_results_do_not_depend_on_the_simd_sort_kernels(tmp_path):
    write_inputs(tmp_path)
    here = outputs(str(tmp_path))
    assert all(here["cells"]) and here["chunk"][0]
    paths = [str(Path(chainalign.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_features()),
           "PYTHONPATH": os.pathsep.join(paths)}
    script = "import json, sys, test_simd_sort; print(json.dumps(test_simd_sort.outputs(sys.argv[1])))"
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    there = json.loads(run.stdout)
    assert there["cells"] == here["cells"]
    assert there["chunk"] == here["chunk"]
    assert there["reports"] == here["reports"]
