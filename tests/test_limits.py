"""Size limits: every guard goes through errors.check_size, and the
reference solvers live in chainalign.oracles, apart from the package root.

Each boundary test patches the limit the guarded function reads (the name in
its own module) to a small value, then shows that an input whose count
equals the limit runs and that the same input one over the limit raises
TooLarge (exit 3 from the command line).
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import chainalign
from chainalign import cli, frechet, geometry, oracles, plsa, reduction, rigid
from chainalign.errors import TooLarge, check_size
from chainalign.geometry import chain_from_coords
from chainalign.reduction import Graph, build_reduction
from chainalign.rigid import SearchConfig

REFERENCE_SOLVERS = (
    "brute_force_frechet",
    "brute_force_frechet_segments",
    "plsa_static_pair",
    "plsa_oracle",
    "plsa_oracle_walks",
    "superpose_one",
)


def line(name, n, y=0.0):
    return chain_from_coords(name, [(float(i), y, 0.0) for i in range(n)])


def bent(name, n):
    # no three vertices collinear, so every triple can anchor a motion
    return chain_from_coords(name, [(float(i), float(i * i), 0.0) for i in range(n)])


GRAPH = Graph(4, ((1, 2), (2, 3), (3, 4)))

# (module whose limit the function reads, limit name, count, call)
GUARDS = {
    "discrete_frechet": (
        frechet, "PAIR_CELL_LIMIT", 2 * 3,
        lambda: frechet.discrete_frechet(line("a", 2), line("b", 3)),
    ),
    "plsa_static_pair_fast": (
        plsa, "PAIR_CELL_LIMIT", 3 * 4,
        lambda: plsa.plsa_static_pair_fast(line("a", 3), line("b", 4, 0.5), 1.0),
    ),
    "plsa_static_multi": (
        plsa, "MULTI_STATE_LIMIT", 2 * 2 * 3,
        lambda: plsa.plsa_static_multi((line("a", 2), line("b", 2), line("c", 3)), 1.0),
    ),
    "triples_scan": (
        rigid, "PAIR_CELL_LIMIT", 5 * 5,  # the larger chain's vertex pairs
        lambda: list(rigid.enumerate_candidate_motions(
            bent("a", 4), bent("b", 5), 0.5, SearchConfig(budget=3))),
    ),
    "max_independent_set_bruteforce": (
        reduction, "MIS_LIMIT", 4,
        lambda: reduction.max_independent_set_bruteforce(GRAPH),
    ),
    "solve_reduction_bruteforce": (
        reduction, "MIS_LIMIT", 4,
        lambda: reduction.solve_reduction_bruteforce(build_reduction(GRAPH, 0.05)),
    ),
    "brute_force_frechet": (
        oracles, "BRUTE_FORCE_LIMIT", 3 + 4,
        lambda: oracles.brute_force_frechet(line("a", 3), line("b", 4)),
    ),
    "brute_force_frechet_segments": (
        oracles, "SEGMENT_LIMIT", 2 + 3,
        lambda: oracles.brute_force_frechet_segments(line("a", 2), line("b", 3)),
    ),
    "plsa_oracle": (
        oracles, "ORACLE_LIMIT", 3 + 3,
        lambda: oracles.plsa_oracle((line("a", 3), line("b", 3, 0.5)), 0.6),
    ),
    "plsa_oracle_walks": (
        oracles, "WALK_ORACLE_LIMIT", 3 + 3,
        lambda: oracles.plsa_oracle_walks((line("a", 3), line("b", 3, 0.5)), 0.6),
    ),
    # two offset lines at 0.6: only the three same-index pairs are compatible
    "plsa_oracle_walks_states": (
        oracles, "WALK_ORACLE_STATE_LIMIT", 3,
        lambda: oracles.plsa_oracle_walks((line("a", 3), line("b", 3, 0.5)), 0.6),
    ),
}


def test_check_size_refuses_only_past_the_limit():
    check_size(5, 5, "cells")
    check_size(0, 0, "cells")
    with pytest.raises(TooLarge, match="^6 cells exceed the limit of 5$"):
        check_size(6, 5, "cells")


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_runs_at_its_limit_and_refuses_one_past(name):
    module, attr, count, call = GUARDS[name]
    assert count <= getattr(module, attr)  # the real limit admits the input
    with mock.patch.object(module, attr, count):
        call()
    with mock.patch.object(module, attr, count - 1):
        with pytest.raises(TooLarge, match=f"^{count} .* exceed the limit of {count - 1}$"):
            call()


def test_verify_reduction_runs_at_its_limit_and_exits_3_past(tmp_path, capsys):
    path = tmp_path / "path.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\n", encoding="utf-8")
    with mock.patch.object(cli, "MIS_LIMIT", 4):
        assert cli.main(["verify-reduction", str(path)]) == 0
    with mock.patch.object(cli, "MIS_LIMIT", 3):
        assert cli.main(["verify-reduction", str(path)]) == 3
    assert "4 vertices exceed the limit of 3" in capsys.readouterr().err


def test_importing_the_package_leaves_the_oracles_unloaded():
    src = str(Path(chainalign.__file__).resolve().parent.parent)
    code = (
        "import sys, chainalign, chainalign.cli; "
        "sys.exit('chainalign.oracles' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_reference_solvers_are_exported_only_by_oracles():
    moved = set(REFERENCE_SOLVERS) | {"ORACLE_LIMIT"}
    assert set(oracles.__all__) == moved
    for name in oracles.__all__:
        assert hasattr(oracles, name)
    for module in (chainalign, plsa, frechet, geometry, rigid):
        assert not moved & set(module.__all__), module.__name__
        assert not any(hasattr(module, name) for name in REFERENCE_SOLVERS), module.__name__
