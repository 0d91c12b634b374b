"""The three benchmark workloads: instance sets, command lines and expectations.

Each workload cycles a fixed set of instances generated from the workload
seed.  Set-up writes the instance files, parses them back with the
program's own reader, and computes what the checker needs: the identity
floor of each rigid pair, the exact independent-set size of each graph,
and the golden value and walk digest of each static alignment when the
seed is one of those recorded in ``goldens.json``.

Why each workload exists (see README.md for the layer map):

* pair_homolog -- a long alignment (about 95 % of the vertices) of two
  1000-vertex homologous chains, so validation (frechet) and the large
  fast-path DP tables (plsa, about 56 MB) do most of the work.
* rigid_triples -- 100-vertex chains under an unknown rigid motion: the
  rigid candidate scan, superposition and apply_motion (geometry) and about
  300 small fast-path calls, where per-row overhead dominates the plsa layer.
* hard_instances -- graph reductions: the only workload that runs the
  reduction layer and its best-subset solver.  The graphs share their edge
  count and independence number, which set most of the solver's cost.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import generate as gen

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# Instance parameters per scale.  "smoke" exists only so the benchmark's own
# tests can run every workload in seconds; it has no goldens.
SCALES = {
    "full": {
        "pair_homolog": {"n": 1000, "count": 4},
        "rigid_triples": {"n": 100, "count": 16, "budget": 300},
        "hard_instances": {"n": 12, "count": 64, "alpha": 6},
    },
    "smoke": {
        "pair_homolog": {"n": 40, "count": 2},
        "rigid_triples": {"n": 14, "count": 2, "budget": 20},
        "hard_instances": {"n": 5, "count": 2, "alpha": 3},
    },
}

NOISE = 0.5  # Å per coordinate
# Rigid pairs are more distant homologs.  A three-point superposition of
# such a pair aligns only a few vertices beyond the triple, so most
# instances sit near that floor and the instance-set median is steady
# from seed to seed; at 0.5 Å a few lucky superpositions per seed spread
# it by about 20 %.
RIGID_NOISE = 1.0
INDEL = 0.05  # share of positions deleted or followed by an insertion
PAIR_DELTA = 1.5
RIGID_SHIFT = 5.0  # Å translation on top of a uniform random rotation
EDGE_DENSITY = 0.3
# At 12 vertices the four-index gap of the construction is about 0.139, so
# the default gap factor 10 (0.5 at delta 0.05) rejects every instance; that
# limitation is the README's criterion 8c.  Factor 2 still runs the check.
GAP_FACTOR = 2.0


@dataclass
class Instance:
    """One input of a workload: the CLI arguments and what a correct report
    must satisfy."""

    kind: str  # "static", "rigid" or "hard"
    argv: list[str]
    size: int  # denominator of the aligned fraction
    delta: float | None = None
    inputs: tuple = ()  # parsed chains (alignment kinds) or the Graph (hard)
    expect: dict = field(default_factory=dict)


def _digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def walk_digest(walk: list) -> str:
    """Digest of a report's walk as it appears in the JSON."""
    return hashlib.sha256(json.dumps(walk, separators=(",", ":")).encode()).hexdigest()[:16]


def instance_texts(workload: str, seed: int, scale: str = "full") -> list[dict[str, str]]:
    """File name -> contents, per instance, generated from the seed alone."""
    p = SCALES[scale][workload]
    out = []
    for k in range(p["count"]):
        rng = gen.rng_for(workload, seed, k)
        if workload == "pair_homolog":
            a = gen.persistent_walk(rng, p["n"])
            b = gen.noisy_copy(rng, a, NOISE, INDEL)
            out.append({"a.chain": gen.chain_text("A", a), "b.chain": gen.chain_text("B", b)})
        elif workload == "rigid_triples":
            a = gen.persistent_walk(rng, p["n"])
            b = gen.random_motion(rng, gen.noisy_copy(rng, a, RIGID_NOISE, INDEL), RIGID_SHIFT)
            out.append({"a.chain": gen.chain_text("A", a), "b.chain": gen.chain_text("B", b)})
        elif workload == "hard_instances":
            edges = gen.random_graph(rng, p["n"], EDGE_DENSITY, p["alpha"])
            out.append({"g.graph": gen.graph_text(p["n"], edges)})
        else:
            raise KeyError(workload)
    return out


def load_goldens(workload: str, seed: int, scale: str) -> list[dict] | None:
    if scale != "full" or not GOLDENS.is_file():
        return None
    table = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def build(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Instance]:
    """Write the instance files under workdir and compute expectations."""
    from chainalign.chainio import parse_chain_file, parse_graph_file
    from chainalign.plsa import plsa_static_pair_fast
    from chainalign.reduction import max_independent_set_bruteforce

    p = SCALES[scale][workload]
    goldens = load_goldens(workload, seed, scale)
    instances = []
    for k, files in enumerate(instance_texts(workload, seed, scale)):
        d = workdir / f"i{k:02d}"
        d.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
            paths.append(str(d / name))
        texts = list(files.values())
        if workload == "hard_instances":
            graph = parse_graph_file(texts[0])
            k_mis, _ = max_independent_set_bruteforce(graph)
            instances.append(Instance(
                "hard", ["verify-reduction", paths[0], "--gap-factor", repr(GAP_FACTOR),
                         "--format", "json"],
                size=graph.n_vertices, inputs=(graph,), expect={"k": k_mis},
            ))
            continue
        chains = tuple(parse_chain_file(t).chains[0] for t in texts)
        size = sum(len(c) for c in chains)
        if workload == "rigid_triples":
            floor = plsa_static_pair_fast(chains[0], chains[1], PAIR_DELTA).value
            argv = ["plsa-rigid", *paths, "--delta", repr(PAIR_DELTA), "--mode", "triples",
                    "--budget", str(p["budget"]), "--format", "json"]
            instances.append(Instance("rigid", argv, size, PAIR_DELTA, chains, {"floor": floor}))
            continue
        expect = {}
        if goldens is not None:
            g = goldens[k]
            if g["inputs"] != _digest(texts):
                raise RuntimeError(
                    f"{workload} seed {seed} instance {k}: generated inputs differ from "
                    "the ones the goldens were recorded on"
                )
            expect = {"value": g["value"], "walk": g["walk"]}
        argv = ["plsa", *paths, "--delta", repr(PAIR_DELTA), "--fast", "--format", "json"]
        instances.append(Instance("static", argv, size, PAIR_DELTA, chains, expect))
    return instances


def record_goldens(seed: int) -> list[dict]:
    """Golden value and walk digest of every pair_homolog instance of a
    seed, solved through the library exactly as the CLI solves it."""
    from chainalign.chainio import parse_chain_file
    from chainalign.plsa import plsa_static_pair_fast

    rows = []
    for files in instance_texts("pair_homolog", seed):
        texts = list(files.values())
        chains = [parse_chain_file(t).chains[0] for t in texts]
        res = plsa_static_pair_fast(chains[0], chains[1], PAIR_DELTA)
        walk = [list(s) for s in res.walk.steps]
        rows.append({"inputs": _digest(texts), "value": res.value, "walk": walk_digest(walk)})
    return rows
