"""Hard alignment instances built from graphs, and exact solvers for them.

Vertices of a graph on indices 1..N become points on two copies of the
parabola (i, i*i, z): a base layer at z = 0 and an offset layer at z = delta.
One backbone chain lists the whole base layer; every edge (i, j) contributes
a chain listing the base layer without index i followed by the offset layer
without index j.  The geometry guarantees three facts for small delta:
points with different indices are far apart (> 3), the two copies of the
same index are exactly delta apart, and every chain is a simple polyline.
A common chain therefore matches a chain iff the chain carries every wanted
index in increasing order, which happens iff no selected edge has both ends
wanted, i.e. iff the selected indices are an independent set.

Solvers here are exhaustive and guarded to small sizes: an exact maximum
independent set and an exact best-common-chain search that decides subset
containment twice (by label scan and by distance threshold) and insists the
two agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    BadDelta,
    EmptyGraph,
    InvariantError,
    PropertyViolation,
    TooLarge,
    check_threshold,
)
from .geometry import Chain3D, Point3

__all__ = [
    "Graph",
    "ReductionInstance",
    "ReductionReport",
    "ReductionSolution",
    "PRIME",
    "DOUBLE_PRIME",
    "prime_point",
    "double_prime_point",
    "build_reduction",
    "measure_reduction_properties",
    "verify_reduction_properties",
    "max_independent_set_bruteforce",
    "solve_reduction_bruteforce",
    "subsequence_match_decision",
    "greedy_label_match",
    "DELTA_LIMIT",
    "MIS_LIMIT",
]

PRIME = "prime"
DOUBLE_PRIME = "double-prime"

DELTA_LIMIT = 0.1
MIS_LIMIT = 20
CROSS_DISTANCE_BOUND = 3.0
SIMPLE_SEPARATION = 1e-9

Label = tuple[int, str]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n_vertices.

    Edges are stored with endpoints normalized to (low, high) but in the
    order given; self-loops, duplicates, and out-of-range endpoints are
    rejected.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n_vertices}")
        norm: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if not 1 <= i < j <= self.n_vertices:
                raise ValueError(f"edge {edge} out of range 1..{self.n_vertices}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add((i, j))
            norm.append((i, j))
        object.__setattr__(self, "edges", tuple(norm))


def prime_point(index: int) -> Point3:
    """Base-layer point for a vertex index: (i, i*i, 0)."""
    return Point3(float(index), float(index * index), 0.0)


def double_prime_point(index: int, delta: float) -> Point3:
    """Offset-layer point for a vertex index: (i, i*i, delta)."""
    return Point3(float(index), float(index * index), float(delta))


@dataclass(frozen=True)
class ReductionInstance:
    """The chains built from a graph plus the labels behind each vertex.

    chains[0] is the backbone chain (full base layer); chains[r] for r >= 1
    belongs to the r-th edge.  label_map mirrors chains: per chain, per
    vertex, the (index, layer) it was built from.  Geometry is deliberately
    not revalidated here so tests can corrupt instances and watch the
    property checks catch it.
    """

    graph: Graph
    delta: float
    chains: tuple[Chain3D, ...]
    label_map: tuple[tuple[Label, ...], ...]

    def __post_init__(self):
        if len(self.chains) != len(self.label_map):
            raise ValueError("one label tuple per chain is required")
        for chain, labels in zip(self.chains, self.label_map):
            if len(chain) != len(labels):
                raise ValueError(f"label count mismatch for chain {chain.id}")


def build_reduction(graph: Graph, delta: float = 0.05) -> ReductionInstance:
    """Construct the chain family for a graph.

    delta must lie strictly between 0 and DELTA_LIMIT; the geometric
    properties (checked by verify_reduction_properties) degrade outside
    that window.
    """
    if not 0.0 < delta < DELTA_LIMIT:
        raise BadDelta(f"delta must be in (0, {DELTA_LIMIT}), got {delta}")
    n = graph.n_vertices
    if n == 0:
        raise EmptyGraph("cannot build an instance for a graph with no vertices")

    chains: list[Chain3D] = []
    labels: list[tuple[Label, ...]] = []
    chains.append(Chain3D("P0", tuple(prime_point(p) for p in range(1, n + 1))))
    labels.append(tuple((p, PRIME) for p in range(1, n + 1)))
    for r, (i, j) in enumerate(graph.edges, start=1):
        pts = [prime_point(p) for p in range(1, n + 1) if p != i]
        lbl: list[Label] = [(p, PRIME) for p in range(1, n + 1) if p != i]
        pts += [double_prime_point(q, delta) for q in range(1, n + 1) if q != j]
        lbl += [(q, DOUBLE_PRIME) for q in range(1, n + 1) if q != j]
        chains.append(Chain3D(f"P{r}", tuple(pts)))
        labels.append(tuple(lbl))
    return ReductionInstance(graph, delta, tuple(chains), tuple(labels))


# ---------------------------------------------------------------------------
# geometric property measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Measured extrema of an instance's geometry.

    Infinite minima (or a zero maximum) with a None witness mean the
    corresponding quantifier ranged over an empty set.
    """

    n_vertices: int
    n_chains: int
    delta: float
    gap_factor: float
    min_cross_distance: float
    cross_witness: tuple[Label, Label] | None
    max_same_index_distance: float
    same_index_witness: tuple[Label, Label] | None
    min_quadruple_gap: float
    quadruple_witness: tuple[tuple[Label, Label], tuple[Label, Label]] | None
    min_segment_separation: float
    segment_witness: tuple[str, int, int] | None


def _segment_distance(p1, q1, p2, q2) -> float:
    # closest distance between segments p1q1 and p2q2, parameters clamped
    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    d1, d2, r = sub(q1, p1), sub(q2, p2), sub(p1, p2)
    a, e, f = dot(d1, d1), dot(d2, d2), dot(d2, r)
    tiny = 1e-30

    def clamp(v):
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)

    if a <= tiny and e <= tiny:
        return math.sqrt(dot(r, r))
    if a <= tiny:
        s, t = 0.0, clamp(f / e)
    else:
        c = dot(d1, r)
        if e <= tiny:
            s, t = clamp(-c / a), 0.0
        else:
            b = dot(d1, d2)
            denom = a * e - b * b
            s = clamp((b * f - c * e) / denom) if denom > tiny else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                s, t = clamp(-c / a), 0.0
            elif t > 1.0:
                s, t = clamp((b - c) / a), 1.0
    c1 = (p1[0] + d1[0] * s, p1[1] + d1[1] * s, p1[2] + d1[2] * s)
    c2 = (p2[0] + d2[0] * t, p2[1] + d2[1] * t, p2[2] + d2[2] * t)
    return math.dist(c1, c2)


def measure_reduction_properties(
    inst: ReductionInstance, gap_factor: float = 10.0
) -> ReductionReport:
    """Measure the geometric extrema without judging them.

    Vertices are taken from the instance's actual chains (keyed by label,
    deduplicating exact coincidences), so a corrupted instance measures as
    corrupted.
    """
    check_threshold(gap_factor, "gap_factor")
    occ: list[tuple[Label, Point3]] = []
    seen: set[tuple[Label, Point3]] = set()
    for chain, labels in zip(inst.chains, inst.label_map):
        for pt, lbl in zip(chain.points, labels):
            key = (lbl, pt)
            if key not in seen:
                seen.add(key)
                occ.append(key)

    # pairs collects the distances of index-distinct pairs for the gap below
    min_cross, cross_wit = math.inf, None
    max_same, same_wit = 0.0, None
    pairs: list[tuple[float, frozenset[int], tuple[Label, Label]]] = []
    for x in range(len(occ)):
        (lx, px) = occ[x]
        for y in range(x + 1, len(occ)):
            (ly, py) = occ[y]
            d = math.dist(px, py)
            if lx[0] != ly[0]:
                pairs.append((d, frozenset((lx[0], ly[0])), (lx, ly)))
                if d < min_cross:
                    min_cross, cross_wit = d, (lx, ly)
            elif lx[1] != ly[1]:
                if d > max_same:
                    max_same, same_wit = d, (lx, ly)

    # the closest pair of pairs covering four distinct indices; scanning
    # sorted distances and stopping at the first index-disjoint successor is
    # exact for the minimum gap
    pairs.sort(key=lambda t: t[0])
    min_gap, gap_wit = math.inf, None
    for x in range(len(pairs)):
        dx, cx, wx = pairs[x]
        for y in range(x + 1, len(pairs)):
            dy, cy, wy = pairs[y]
            if cx.isdisjoint(cy):
                if dy - dx < min_gap:
                    min_gap, gap_wit = dy - dx, (wx, wy)
                break

    min_sep, sep_wit = math.inf, None
    for chain in inst.chains:
        pts = chain.points
        nseg = len(pts) - 1
        for s in range(nseg):
            for t in range(s + 2, nseg):
                d = _segment_distance(pts[s], pts[s + 1], pts[t], pts[t + 1])
                if d < min_sep:
                    min_sep, sep_wit = d, (chain.id, s + 1, t + 1)

    return ReductionReport(
        n_vertices=inst.graph.n_vertices,
        n_chains=len(inst.chains),
        delta=inst.delta,
        gap_factor=gap_factor,
        min_cross_distance=min_cross,
        cross_witness=cross_wit,
        max_same_index_distance=max_same,
        same_index_witness=same_wit,
        min_quadruple_gap=min_gap,
        quadruple_witness=gap_wit,
        min_segment_separation=min_sep,
        segment_witness=sep_wit,
    )


def verify_reduction_properties(
    inst: ReductionInstance, gap_factor: float = 10.0
) -> ReductionReport:
    """Check the three separation properties plus simplicity.

    (a) vertices with different indices are more than CROSS_DISTANCE_BOUND
        apart; (b) the two layer copies of an index are within delta;
    (c) distances of index-disjoint pairs differ by more than
        gap_factor * delta; and every chain is a simple polyline
    (non-adjacent segments separated by more than SIMPLE_SEPARATION).
    Returns the measurements, or raises PropertyViolation naming the first
    failed property and a witness.
    """
    report = measure_reduction_properties(inst, gap_factor)
    if report.cross_witness is not None and report.min_cross_distance <= CROSS_DISTANCE_BOUND:
        raise PropertyViolation(
            "a",
            report.cross_witness,
            f"index-distinct vertices {report.min_cross_distance} apart, "
            f"need > {CROSS_DISTANCE_BOUND}",
        )
    if report.same_index_witness is not None and report.max_same_index_distance > inst.delta:
        raise PropertyViolation(
            "b",
            report.same_index_witness,
            f"layer copies {report.max_same_index_distance} apart, "
            f"need <= {inst.delta}",
        )
    if report.quadruple_witness is not None and report.min_quadruple_gap <= gap_factor * inst.delta:
        raise PropertyViolation(
            "c",
            report.quadruple_witness,
            f"index-disjoint pair distances {report.min_quadruple_gap} apart, "
            f"need > {gap_factor * inst.delta}",
        )
    if report.segment_witness is not None and report.min_segment_separation <= SIMPLE_SEPARATION:
        raise PropertyViolation(
            "simplicity",
            report.segment_witness,
            f"non-adjacent segments {report.min_segment_separation} apart, "
            f"need > {SIMPLE_SEPARATION}",
        )
    return report


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def max_independent_set_bruteforce(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set, with the lexicographically smallest
    witness of maximum size.  Branch and bound over bitmasks; guarded to
    MIS_LIMIT vertices."""
    n = graph.n_vertices
    if n > MIS_LIMIT:
        raise TooLarge(f"{n} vertices exceed the exact-solver limit of {MIS_LIMIT}")
    adj = [0] * n
    for i, j in graph.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)

    memo: dict[int, int] = {}

    def size(allowed: int) -> int:
        if allowed == 0:
            return 0
        cached = memo.get(allowed)
        if cached is not None:
            return cached
        v = (allowed & -allowed).bit_length() - 1
        rest = allowed & ~(1 << v)
        s = max(size(rest), 1 + size(rest & ~adj[v]))
        memo[allowed] = s
        return s

    full = (1 << n) - 1
    k = size(full)
    picked: list[int] = []
    allowed, need = full, k
    for v in range(n):
        if not (allowed >> v) & 1:
            continue
        after = allowed & ~(1 << v) & ~adj[v]
        if 1 + size(after) == need:
            picked.append(v + 1)
            need -= 1
            allowed = after
        else:
            allowed &= ~(1 << v)
    return k, tuple(picked)


def greedy_label_match(
    wanted: tuple[int, ...], labels: tuple[Label, ...]
) -> tuple[int, ...] | None:
    """Match wanted indices, in order, against the chain's label indices by
    a greedy left-to-right scan.  Returns the 1-based positions used, or
    None when the scan runs off the end."""
    pos: list[int] = []
    cursor = 0
    for w in wanted:
        while cursor < len(labels) and labels[cursor][0] != w:
            cursor += 1
        if cursor == len(labels):
            return None
        pos.append(cursor + 1)
        cursor += 1
    return tuple(pos)


def subsequence_match_decision(common: Chain3D, chain: Chain3D, delta: float) -> bool:
    """Does some subsequence of chain lie within discrete Frechet distance
    delta of common?

    Dynamic program over (common prefix, chain position): a state (i, j) is
    feasible when a coupling covers common[..i] with a selected subsequence
    ending at chain[j].  Predecessors are the same j (common advanced), any
    earlier j with i-1 (both advanced, skipped chain vertices dropped), or
    any earlier j with the same i (subsequence advanced).  Runs in
    O(|common| * |chain|) via prefix ors.
    """
    check_threshold(delta)
    cp, pp = common.points, chain.points
    d = math.dist
    m = len(pp)
    f_prev = [False] * m
    for i, cpt in enumerate(cp):
        prev_prefix = [False] * (m + 1)  # or of f_prev[..j-1]
        for j in range(m):
            prev_prefix[j + 1] = prev_prefix[j] or f_prev[j]
        f_cur = [False] * m
        cur_prefix = False  # or of f_cur[..j-1]
        for j in range(m):
            if d(cpt, pp[j]) <= delta:
                if i == 0:
                    f_cur[j] = True
                else:
                    f_cur[j] = f_prev[j] or prev_prefix[j] or cur_prefix
            cur_prefix = cur_prefix or f_cur[j]
        f_prev = f_cur
    return any(f_prev)


@dataclass(frozen=True)
class ReductionSolution:
    """Largest index subset matched by every chain.

    common_chain is the base-layer polyline over the subset; matches holds,
    per chain, the 1-based positions found by the greedy scan.
    """

    k: int
    vertices: tuple[int, ...]
    common_chain: Chain3D
    matches: tuple[tuple[int, ...], ...]


def solve_reduction_bruteforce(inst: ReductionInstance) -> ReductionSolution:
    """Exact solution by subset enumeration, largest subsets first and
    lexicographic within a size.

    Every (subset, chain) query is decided twice: by the greedy label scan
    and by the distance-threshold subsequence decision.  The two must agree
    or an InvariantError is raised.  Guarded to MIS_LIMIT vertices.
    """
    n = inst.graph.n_vertices
    if n > MIS_LIMIT:
        raise TooLarge(f"{n} vertices exceed the exact-solver limit of {MIS_LIMIT}")
    for k in range(n, 0, -1):
        for subset in itertools.combinations(range(1, n + 1), k):
            common = Chain3D("C", tuple(prime_point(i) for i in subset))
            matches: list[tuple[int, ...]] = []
            ok = True
            for chain, labels in zip(inst.chains, inst.label_map):
                greedy = greedy_label_match(subset, labels)
                by_distance = subsequence_match_decision(common, chain, inst.delta)
                if (greedy is not None) != by_distance:
                    raise InvariantError(
                        f"label scan and distance decision disagree on subset "
                        f"{subset} against chain {chain.id}"
                    )
                if greedy is None:
                    ok = False
                    break
                matches.append(greedy)
            if ok:
                return ReductionSolution(k, subset, common, tuple(matches))
    raise InvariantError("no subset matched every chain, not even a single index")
