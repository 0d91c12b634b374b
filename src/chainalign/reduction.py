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

import numpy as np

from .errors import (
    BadDelta,
    EmptyGraph,
    InvariantError,
    PropertyViolation,
    check_size,
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
    "REDUCTION_VERTEX_LIMIT",
]

PRIME = "prime"
DOUBLE_PRIME = "double-prime"

DELTA_LIMIT = 0.1
MIS_LIMIT = 20
# chain vertices of one instance, n + |E| (2n - 2): K20 has 7 240
REDUCTION_VERTEX_LIMIT = 1_000_000
CROSS_DISTANCE_BOUND = 3.0
SIMPLE_SEPARATION = 1e-9
SOLVE_CELLS = 1 << 15  # sweep positions computed per group of chains

Label = tuple[int, str]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n_vertices.

    Edges pass check_edge and are stored with endpoints normalized to
    (low, high) but in the order given.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if type(self.n_vertices) is not int:  # a bool is not a vertex count
            raise ValueError(f"vertex count must be an int, got {self.n_vertices!r}")
        if self.n_vertices < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n_vertices}")
        seen: set[tuple[int, int]] = set()
        norm = tuple(check_edge(edge, self.n_vertices, seen) for edge in self.edges)
        object.__setattr__(self, "edges", norm)


def check_edge(edge, n_vertices: int, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Edge (i, j) of a graph on 1..n_vertices as (low, high), added to seen.

    Raises ValueError for an endpoint that is not an int (a bool is not),
    a self-loop, an endpoint out of range, or an edge already in seen.
    """
    i, j = edge
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"edge {edge} has a non-integer endpoint")
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    key = (min(i, j), max(i, j))
    if not 1 <= key[0] < key[1] <= n_vertices:
        raise ValueError(f"edge {edge} out of range 1..{n_vertices}")
    if key in seen:
        raise ValueError(f"duplicate edge {edge}")
    seen.add(key)
    return key


def prime_point(index: int) -> Point3:
    """Base-layer point for a vertex index: (i, i*i, 0)."""
    return Point3(index, index * index, 0.0)


def double_prime_point(index: int, delta: float) -> Point3:
    """Offset-layer point for a vertex index: (i, i*i, delta)."""
    return Point3(index, index * index, delta)


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
    that window.  An instance of more than REDUCTION_VERTEX_LIMIT chain
    vertices raises TooLarge before any chain is built.
    """
    if not 0.0 < delta < DELTA_LIMIT:
        raise BadDelta(f"delta must be in (0, {DELTA_LIMIT}), got {delta}")
    n = graph.n_vertices
    check_size(n + len(graph.edges) * (2 * n - 2), REDUCTION_VERTEX_LIMIT, "chain vertices")
    if n == 0:
        raise EmptyGraph("cannot build an instance for a graph with no vertices")

    # the 2n layer points, built once and shared by every chain
    base = [prime_point(p) for p in range(1, n + 1)]
    offset = [double_prime_point(q, delta) for q in range(1, n + 1)]
    chains: list[Chain3D] = []
    labels: list[tuple[Label, ...]] = []
    chains.append(Chain3D("P0", tuple(base)))
    labels.append(tuple((p, PRIME) for p in range(1, n + 1)))
    for r, (i, j) in enumerate(graph.edges, start=1):
        pts = base[:i - 1] + base[i:] + offset[:j - 1] + offset[j:]
        lbl: list[Label] = [(p, PRIME) for p in range(1, n + 1) if p != i]
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


def _closest_distance(p1, q1, p2, q2) -> float | None:
    # closest distance between segments p1q1 and p2q2, parameters clamped;
    # None when an intermediate the result depends on is not finite
    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    d1, d2, r = sub(q1, p1), sub(q2, p2), sub(p1, p2)
    a, e, f = dot(d1, d1), dot(d2, d2), dot(d2, r)
    tiny = 1e-30

    def clamp(v):
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)

    # each check x - x == 0 holds for a finite float or a Fraction, and
    # fails for inf and NaN
    if a <= tiny and e <= tiny:
        rr = dot(r, r)
        return math.sqrt(rr) if rr - rr == 0 else None
    if a <= tiny:
        if not (e - e == 0 and f - f == 0):
            return None
        s, t = 0.0, clamp(f / e)
    else:
        c = dot(d1, r)
        if e <= tiny:
            if not (a - a == 0 and c - c == 0):
                return None
            s, t = clamp(-c / a), 0.0
        else:
            b = dot(d1, d2)
            denom = a * e - b * b
            num = b * f - c * e
            if not (denom - denom == 0 and num - num == 0):
                return None
            s = clamp(num / denom) if denom > tiny else 0.0
            t = b * s + f
            if t - t != 0:
                return None
            t /= e
            if t < 0.0:
                s, t = clamp(-c / a), 0.0
            elif t > 1.0:
                s, t = clamp((b - c) / a), 1.0
    c1 = (p1[0] + d1[0] * s, p1[1] + d1[1] * s, p1[2] + d1[2] * s)
    c2 = (p2[0] + d2[0] * t, p2[1] + d2[1] * t, p2[2] + d2[2] * t)
    return math.dist(c1, c2)


def _segment_distance(p1, q1, p2, q2) -> float:
    """Closest distance between segments p1q1 and p2q2.

    When an intermediate overflows (a float turns inf or NaN), the same
    steps run again in exact rational arithmetic on the four points scaled
    by one power of two, and the distance is scaled back.  Every other input
    keeps its floats.
    """
    d = _closest_distance(p1, q1, p2, q2)
    if d is not None:
        return d
    # imported here: only overflowing inputs need it, and at start-up it
    # would cost every command about 3 ms and 0.3 MB
    from fractions import Fraction

    pts = (p1, q1, p2, q2)
    k = math.frexp(max(abs(c) for p in pts for c in p))[1]
    scale = Fraction(2) ** k
    d = _closest_distance(*(tuple(Fraction(c) / scale for c in p) for p in pts))
    # each scaled coordinate lies in (-1, 1), so d < 4: only the last product,
    # which is exact, can overflow, and it gives inf where ldexp(d, k) raises
    return math.ldexp(d, k - 2) * 4.0


def _segment_separations(chains):
    """Closest distances of the non-adjacent segment pairs of each chain.

    Returns the distances in (chain, s, t) order, with each pair's chain
    and its segment numbers s < t - 1, counted from 0.  Edge chains repeat
    the two layers, so most segment pairs recur: each distinct pair, keyed
    by its points, is measured once, on its first occurrence's points.
    """
    if not chains:
        return (np.empty(0, dtype=np.intp),) * 4
    points = [p for chain in chains for p in chain.points]
    vertex_ids: dict[Point3, int] = {}
    segment_ids: dict[tuple[int, int], int] = {}
    vid = [vertex_ids.setdefault(p, len(vertex_ids)) for p in points]
    # segment i runs from point i to point i + 1; the ones that cross from
    # a chain into the next are never paired
    sid = np.array([segment_ids.setdefault(pair, len(segment_ids)) for pair in zip(vid, vid[1:])])
    lengths = [len(chain) for chain in chains]
    pairs = {m: np.triu_indices(m - 1, 2) for m in set(lengths)}
    counts = [len(pairs[m][0]) for m in lengths]
    chain_of = np.repeat(np.arange(len(chains)), counts)
    start = np.repeat(np.cumsum([0] + lengths[:-1]), counts)
    s = np.concatenate([pairs[m][0] for m in lengths])
    t = np.concatenate([pairs[m][1] for m in lengths])
    keys = sid[s + start] * len(sid) + sid[t + start]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    d = _closest_distances(points, s[first] + start[first], t[first] + start[first])
    return d[inverse.ravel()], chain_of, s, t


def _closest_distances(points, i1, i2) -> np.ndarray:
    """_segment_distance(points[i1], points[i1 + 1], points[i2], points[i2 + 1])
    per row, bit for bit.

    _closest_distance's steps run on stacks of rows, its branches as
    np.where, and each row ends in math.dist on its two closest points.
    Rows where an intermediate is not finite, and rows whose segments are
    both points, go to the scalar code.
    """
    xyz = np.fromiter(itertools.chain.from_iterable(points), float, 3 * len(points))
    xyz = xyz.reshape(-1, 3).T
    p1, q1, p2, q2 = (xyz[:, i] for i in (i1, i1 + 1, i2, i2 + 1))

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def clamp(v):
        return np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))

    tiny = 1e-30
    with np.errstate(all="ignore"):
        d1, d2, r = q1 - p1, q2 - p2, p1 - p2
        a, e, f = dot(d1, d1), dot(d2, d2), dot(d2, r)
        c, b = dot(d1, r), dot(d1, d2)
        denom = a * e - b * b
        num = b * f - c * e
        s = np.where(denom > tiny, clamp(num / denom), 0.0)
        t = b * s + f
        scalar = ~np.isfinite(np.stack((a, e, f, c, b, denom, num, t))).all(axis=0)
        scalar |= (a <= tiny) & (e <= tiny)
        t /= e
        # past either end of segment 2, s is clamped on segment 1 against
        # that end
        s = np.where(t < 0.0, clamp(-c / a), np.where(t > 1.0, clamp((b - c) / a), s))
        t = clamp(t)
        s = np.where(e <= tiny, clamp(-c / a), s)
        t = np.where(e <= tiny, 0.0, t)
        s = np.where(a <= tiny, 0.0, s)
        t = np.where(a <= tiny, clamp(f / e), t)
        c1 = p1 + d1 * s
        c2 = p2 + d2 * t
    out = list(map(math.dist, zip(*c1.tolist()), zip(*c2.tolist())))
    for k in np.flatnonzero(scalar).tolist():
        j1, j2 = i1[k], i2[k]
        out[k] = _segment_distance(points[j1], points[j1 + 1], points[j2], points[j2 + 1])
    return np.array(out)


def measure_reduction_properties(
    inst: ReductionInstance, gap_factor: float = 10.0
) -> ReductionReport:
    """Measure the geometric extrema without judging them.

    Vertices are taken from the instance's actual chains (keyed by label,
    deduplicating exact coincidences), so a corrupted instance measures as
    corrupted.  Segment pairs are scanned per chain in (s, t) order and the
    first minimum is kept, but each distinct pair of segments is measured
    once, keyed by its points.
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
    d, chain_of, s, t = _segment_separations(inst.chains)
    if len(d):
        k = int(np.argmin(d))  # the first minimum in (chain, s, t) order
        if d[k] < math.inf:
            min_sep = float(d[k])
            sep_wit = (inst.chains[chain_of[k]].id, int(s[k]) + 1, int(t[k]) + 1)

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
    check_size(n, MIS_LIMIT, "vertices")
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


def _close_tables(targets, chains, delta: float) -> list[np.ndarray]:
    """Per chain, the boolean (len(targets), len(chain)) table of
    math.dist(target, vertex) <= delta.

    One distance is computed per target and distinct vertex.
    """
    column: dict[Point3, int] = {}
    columns = [[column.setdefault(p, len(column)) for p in chain.points] for chain in chains]
    d = math.dist
    close = np.array(
        [[d(t, p) <= delta for p in column] for t in targets], dtype=bool
    ).reshape(len(targets), len(column))
    return [close[:, cols] for cols in columns]


def _next_table(hits: np.ndarray, width: int) -> np.ndarray:
    """next[i, p]: the lowest position q >= p with hits[i, q], or width when
    there is none.  Positions run up to width inclusive, so a sweep that ran
    off the end stays there."""
    rows, length = hits.shape
    table = np.full((rows, width + 1), width, dtype=np.intp)
    table[:, :length] = np.where(hits, np.arange(length), width)
    return np.minimum.accumulate(table[:, ::-1], axis=1)[:, ::-1]


def subsequence_match_decision(common: Chain3D, chain: Chain3D, delta: float) -> bool:
    """Does some subsequence of chain lie within discrete Frechet distance
    delta of common?

    A state (i, j) is feasible when a coupling covers common[..i] with a
    selected subsequence ending at chain[j].  Predecessors are the same j
    (common advanced), any earlier j with i-1 (both advanced, skipped chain
    vertices dropped), or any earlier j with the same i (subsequence
    advanced).  So row i holds every close j at or after the lowest
    feasible j of row i-1, and one sweep through the next-close table
    decides it after O(|common| * |chain|) distances.
    """
    check_threshold(delta)
    (close,) = _close_tables(common.points, (chain,), delta)
    m = len(chain)
    pos = 0
    for row in _next_table(close, m):
        pos = row[pos]
    return bool(pos < m)


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
    or an InvariantError is raised.  Per chain, two next tables (the lowest
    position at or after p within delta of index i's point, and the lowest
    carrying label i) turn both decisions into sweeps of table lookups.
    Subsets are bit masks, bit i-1 standing for index i, and a subset's
    sweep position is its largest index's table row applied to the
    position of the subset without that index; so one dynamic program over
    the subset lattice, a gather per largest index, sweeps every subset
    through a group of chains at once.  A subset that fails a chain's scan
    or sweep makes every superset fail it too, so after each group the
    subsets that failed a chain are dropped and the live subsets keep
    their prefixes.  A subset is decided at its first failing chain when
    its two decisions disagree there, or by passing every chain; the first
    decided subset in enumeration order decides the result, as in a loop
    over single queries.  Groups hold about SOLVE_CELLS sweep positions.
    Each index's distance to each distinct chain vertex is computed once.
    Guarded to MIS_LIMIT vertices.
    """
    n = inst.graph.n_vertices
    check_size(n, MIS_LIMIT, "vertices")
    if n and inst.chains:  # the threshold is only read when a query exists
        check_threshold(inst.delta)
    targets = [prime_point(i) for i in range(1, n + 1)]
    n_chains = len(inst.chains)
    width = max((len(chain) for chain in inst.chains), default=0)
    stride = width + 1
    # per chain, label rows 0..n-1 then close rows n..2n-1, each padded to
    # width with positions that hold nothing
    hits = np.zeros((n_chains, 2 * n, width), dtype=bool)
    row_of = {i: i - 1 for i in range(1, n + 1)}
    for c, (close, labels) in enumerate(
        zip(_close_tables(targets, inst.chains, inst.delta), inst.label_map)
    ):
        hits[c, n:, :close.shape[1]] = close
        carried = [(row_of[lbl[0]], p) for p, lbl in enumerate(labels) if lbl[0] in row_of]
        if carried:
            rows, positions = zip(*carried)
            hits[c, rows, positions] = True
    tables = _next_table(hits.reshape(n_chains * 2 * n, width), width)
    tables = tables.reshape(n_chains, 2, n, stride)

    masks = np.arange(1 << n, dtype=np.int32)  # live subsets, ascending; 0 is the empty one
    # the subsets whose two decisions disagreed at their first failing
    # chain, and that chain
    split_masks = [np.empty(0, dtype=np.int32)]
    split_at = [np.empty(0, dtype=np.intp)]
    c = 0
    while c < n_chains and len(masks) > 1:
        g = min(n_chains - c, max(1, SOLVE_CELLS // (2 * len(masks))))
        keep, split, first = _sweep_group(tables[c:c + g], masks, width)
        split_masks.append(masks[split])
        split_at.append(first + c)
        masks = masks[keep]
        c += g
    split_masks = np.concatenate(split_masks)
    # the live nonempty subsets passed every chain
    candidates = np.concatenate((split_masks, masks[1:]))
    if not len(candidates):
        raise InvariantError("no subset matched every chain, not even a single index")
    best = _first_subset(candidates, n)
    mask = int(candidates[best])
    vertices = tuple(i + 1 for i in range(n) if mask >> i & 1)
    if best < len(split_masks):
        chain = inst.chains[np.concatenate(split_at)[best]]
        raise InvariantError(
            f"label scan and distance decision disagree on subset "
            f"{vertices} against chain {chain.id}"
        )
    return ReductionSolution(
        len(vertices),
        vertices,
        Chain3D("C", tuple(targets[i - 1] for i in vertices)),
        tuple(greedy_label_match(vertices, labels) for labels in inst.label_map),
    )


def _sweep_group(tables: np.ndarray, masks: np.ndarray, width: int):
    """Sweep the live subsets through a group of chains' next tables.

    tables is (g, 2, n, width + 1): per chain, label rows then close rows.
    masks holds the live subsets in ascending order, with every live
    subset's subset without its largest index.  Returns which subsets pass
    every chain of the group, and for the subsets whose two decisions
    disagree at their first failing chain, their places in masks and that
    chain's place in the group.
    """
    g, _, n, stride = tables.shape
    # a subset's state in row j is j * stride plus its position, the label
    # rows of the chains first, then their close rows; so layer tables
    # shifted alike take states to states in one gather
    shift = np.arange(2 * g) * stride
    state = np.int16 if 2 * g * stride <= 1 << 15 else np.int32
    layers = tables.transpose(2, 1, 0, 3).reshape(n, 2 * g, stride)
    layers = (layers + shift[:, None]).astype(state).reshape(n, -1)
    pos = np.empty((2 * g, len(masks)), dtype=state)
    pos[:, 0] = shift  # the empty subset, at position 0
    # layer h, the subsets whose largest index is h+1, is masks[bounds[h]:bounds[h+1]]
    bounds = np.searchsorted(masks, 1 << np.arange(n + 1))
    for h in range(n):
        lo, hi = bounds[h], bounds[h + 1]
        if hi - lo == lo:  # every live subset below is a parent
            parents = pos[:, :lo]
        elif lo < hi:
            parents = pos[:, np.searchsorted(masks[:lo], masks[lo:hi] - (1 << h))]
        else:
            continue
        # every state indexes the table, so "clip" never acts; it spares
        # take a buffered copy of out
        np.take(layers[h], parents, out=pos[:, lo:hi], mode="clip")
    hit = pos < (shift + width)[:, None]
    found, close = hit[:g], hit[g:]
    passed = found & close
    keep = np.logical_and.reduce(passed)
    split = found != close
    if not split.any():  # no subset's decisions disagree at any chain
        return keep, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    failed = np.flatnonzero(~keep)
    first = passed[:, failed].argmin(axis=0)
    disagree = split[first, failed]
    return keep, failed[disagree], first[disagree]


def _first_subset(masks: np.ndarray, n: int) -> int:
    """The position in masks of the subset that comes first in enumeration
    order: the largest, and among those the lexicographically smallest."""
    # the key's high bits count the subset; below them bit i weighs
    # 2**(n-1-i), so of two subsets of one size the one holding the lowest
    # index where they differ has the larger key; n <= MIS_LIMIT keeps it
    # in int32
    key = np.zeros(len(masks), dtype=np.int32)
    for i in range(n):
        bit = masks >> i & 1
        key += bit << n
        key |= bit << (n - 1 - i)
    return int(np.argmax(key))
