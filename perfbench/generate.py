"""Deterministic instance generator for the benchmark workloads.

Everything here uses only ``random.Random`` and ``math``, so the same seed
gives the same files on any machine and numpy version.  Coordinates are
rounded to 1e-3 Å (the precision of a PDB file) before they are written,
which keeps the files short and independent of the last bit of libm.

Nothing here imports chainalign: the solvers see only the written files.
"""

from __future__ import annotations

import math
import random

Vec = tuple[float, float, float]

STEP = 3.8  # Å between consecutive alpha carbons
PERSISTENCE = 1.6  # weight of the previous direction against a random unit vector


def rng_for(workload: str, seed: int, instance: int | None = None) -> random.Random:
    """Independent stream per (workload, seed, instance); string seeding is
    hashed with SHA-512 by ``random``, so it does not depend on PYTHONHASHSEED."""
    key = f"{workload}:{seed}" if instance is None else f"{workload}:{seed}:{instance}"
    return random.Random(key)


def _unit(rng: random.Random) -> Vec:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 1e-9:
            return (v[0] / n, v[1] / n, v[2] / n)


def _round(p: Vec) -> Vec:
    return (round(p[0], 3), round(p[1], 3), round(p[2], 3))


def persistent_walk(rng: random.Random, n: int) -> list[Vec]:
    """Protein-like trace: fixed STEP, direction = previous direction times
    PERSISTENCE plus a random unit vector, renormalised."""
    d = _unit(rng)
    p = (0.0, 0.0, 0.0)
    pts = [p]
    for _ in range(n - 1):
        u = _unit(rng)
        d = (PERSISTENCE * d[0] + u[0], PERSISTENCE * d[1] + u[1], PERSISTENCE * d[2] + u[2])
        nd = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        d = (d[0] / nd, d[1] / nd, d[2] / nd)
        p = (p[0] + STEP * d[0], p[1] + STEP * d[1], p[2] + STEP * d[2])
        pts.append(p)
    return [_round(q) for q in pts]


def noisy_copy(rng: random.Random, pts: list[Vec], noise: float, indel: float) -> list[Vec]:
    """Copy with Gaussian noise of standard deviation ``noise`` per
    coordinate and a share ``indel`` of positions edited: half deleted,
    half followed by an inserted vertex pushed 2 Å off the midpoint to the
    next vertex."""
    out: list[Vec] = []
    for k, p in enumerate(pts):
        r = rng.random()
        if r < indel / 2:
            continue
        out.append(tuple(c + rng.gauss(0, noise) for c in p))
        if r > 1.0 - indel / 2 and k + 1 < len(pts):
            q = pts[k + 1]
            u = _unit(rng)
            out.append(tuple((a + b) / 2 + 2.0 * w for a, b, w in zip(p, q, u)))
    return [_round(q) for q in out]


def random_rotation(rng: random.Random) -> tuple[Vec, Vec, Vec]:
    """Uniform rotation from a uniform unit quaternion."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x, y, z = (b * math.cos(2 * math.pi * u3), a * math.sin(2 * math.pi * u2),
                  a * math.cos(2 * math.pi * u2), b * math.sin(2 * math.pi * u3))
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def random_motion(rng: random.Random, pts: list[Vec], shift: float) -> list[Vec]:
    """Rotate about the centroid, then translate by a random vector of
    length ``shift``."""
    rot = random_rotation(rng)
    n = len(pts)
    c = tuple(sum(p[k] for p in pts) / n for k in range(3))
    t = _unit(rng)
    out = []
    for p in pts:
        q = (p[0] - c[0], p[1] - c[1], p[2] - c[2])
        out.append(tuple(
            sum(rot[r][k] * q[k] for k in range(3)) + c[r] + shift * t[r] for r in range(3)
        ))
    return [_round(q) for q in out]


def independence_number(n: int, edges: list[tuple[int, int]]) -> int:
    """Size of a largest independent set, by branching on the lowest vertex."""
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)

    def best(allowed: int) -> int:
        if not allowed:
            return 0
        v = (allowed & -allowed).bit_length() - 1
        rest = allowed & ~(1 << v)
        return max(best(rest), 1 + best(rest & ~adj[v]))

    return best((1 << n) - 1)


def random_graph(rng: random.Random, n: int, density: float, alpha: int) -> list[tuple[int, int]]:
    """Uniform graph on vertices 1..n with round(density * n(n-1)/2) edges
    and independence number alpha, by rejection; edges in lexicographic
    order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        edges = sorted(rng.sample(pairs, round(density * len(pairs))))
        if independence_number(n, edges) == alpha:
            return edges


def chain_text(name: str, pts: list[Vec]) -> str:
    return ">" + name + "\n" + "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts)


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)
