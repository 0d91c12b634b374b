import dataclasses
import itertools
import math
import random
from math import dist
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign import reduction
from chainalign.errors import (
    BadDelta,
    EmptyGraph,
    InvalidThreshold,
    InvariantError,
    NegativeDelta,
    PropertyViolation,
    TooLarge,
)
from chainalign.frechet import discrete_frechet
from chainalign.geometry import Chain3D, Point3, chain_from_coords
from chainalign.reduction import (
    DOUBLE_PRIME,
    PRIME,
    Graph,
    ReductionInstance,
    ReductionReport,
    ReductionSolution,
    _segment_distance,
    build_reduction,
    double_prime_point,
    greedy_label_match,
    max_independent_set_bruteforce,
    measure_reduction_properties,
    prime_point,
    solve_reduction_bruteforce,
    subsequence_match_decision,
    verify_reduction_properties,
)


def five_vertex_graph():
    return Graph(5, ((2, 3), (2, 4), (1, 2), (1, 4), (3, 4), (4, 5)))


def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_layer_points_and_exact_offset():
    assert prime_point(3) == Point3(3.0, 9.0, 0.0)
    assert double_prime_point(3, 0.05) == Point3(3.0, 9.0, 0.05)
    for i in range(1, 21):
        # single-axis offset: the distance is the delta value exactly
        assert dist(prime_point(i), double_prime_point(i, 0.05)) == 0.05


def test_five_vertex_instance_chains():
    inst = build_reduction(five_vertex_graph(), delta=0.05)
    assert [c.id for c in inst.chains] == ["P0", "P1", "P2", "P3", "P4", "P5", "P6"]

    base = tuple(prime_point(i) for i in (1, 2, 3, 4, 5))
    assert inst.chains[0].points == base
    assert inst.label_map[0] == tuple((i, PRIME) for i in (1, 2, 3, 4, 5))

    # first edge (2, 3): base layer without 2, offset layer without 3
    p1 = tuple(prime_point(i) for i in (1, 3, 4, 5)) + tuple(
        double_prime_point(i, 0.05) for i in (1, 2, 4, 5)
    )
    assert inst.chains[1].points == p1

    # third edge (1, 2): base layer without 1, offset layer without 2
    p3 = tuple(prime_point(i) for i in (2, 3, 4, 5)) + tuple(
        double_prime_point(i, 0.05) for i in (1, 3, 4, 5)
    )
    assert inst.chains[3].points == p3
    assert inst.label_map[3] == (
        (2, PRIME), (3, PRIME), (4, PRIME), (5, PRIME),
        (1, DOUBLE_PRIME), (3, DOUBLE_PRIME), (4, DOUBLE_PRIME), (5, DOUBLE_PRIME),
    )


def test_delta_window_is_enforced():
    g = five_vertex_graph()
    for bad in (0.0, 0.1, -0.01, 0.2):
        with pytest.raises(BadDelta):
            build_reduction(g, delta=bad)
    with pytest.raises(EmptyGraph):
        build_reduction(Graph(0), delta=0.05)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(3, ((2, 2),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (2, 1)))  # duplicate after normalization
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 4),))
    # vertex counts and endpoints are ints, and a bool is not one
    with pytest.raises(ValueError):
        Graph(3, ((1, 2.5),))
    with pytest.raises(ValueError):
        Graph(2.5)
    with pytest.raises(ValueError):
        Graph(3, ((True, 2),))
    with pytest.raises(ValueError):
        Graph(True)
    # endpoints normalize low-high but the listing order is preserved
    g = Graph(5, ((3, 2), (4, 2), (2, 1), (4, 1), (4, 3), (5, 4)))
    assert g.edges == ((2, 3), (2, 4), (1, 2), (1, 4), (3, 4), (4, 5))


def test_instance_requires_one_label_per_vertex():
    inst = build_reduction(five_vertex_graph())
    with pytest.raises(ValueError):
        ReductionInstance(inst.graph, inst.delta, inst.chains, inst.label_map[:-1])
    short = inst.label_map[:1] + (inst.label_map[1][:-1],) + inst.label_map[2:]
    with pytest.raises(ValueError):
        ReductionInstance(inst.graph, inst.delta, inst.chains, short)


# ---------------------------------------------------------------------------
# geometric properties
# ---------------------------------------------------------------------------

def test_small_instances_pass_verification():
    report = verify_reduction_properties(build_reduction(five_vertex_graph()))
    assert report.min_cross_distance == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert report.max_same_index_distance == 0.05
    assert report.min_quadruple_gap == pytest.approx(0.809022, abs=1e-6)
    assert report.min_segment_separation == pytest.approx(0.0499366440605221, abs=1e-12)
    for n in (5, 6, 7):
        verify_reduction_properties(build_reduction(path_graph(n)))


def test_pair_gap_shrinks_as_vertex_count_grows():
    # consecutive parabola chords nearly repeat across disjoint index pairs,
    # so the four-index distance gap collapses once eight vertices exist
    inst = build_reduction(path_graph(8))
    report = measure_reduction_properties(inst)
    assert report.min_quadruple_gap == pytest.approx(0.207142, abs=1e-6)
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(inst)
    assert exc.value.prop == "c"
    assert exc.value.witness is not None


def _replace_chain(inst, which, new_chain):
    chains = inst.chains[:which] + (new_chain,) + inst.chains[which + 1:]
    return ReductionInstance(inst.graph, inst.delta, chains, inst.label_map)


def test_layer_offset_corruption_is_caught():
    inst = build_reduction(five_vertex_graph())
    p3 = inst.chains[3]
    pts = list(p3.points)
    pts[4] = Point3(pts[4].x, pts[4].y, 3 * inst.delta)  # widen one layer offset
    bad = _replace_chain(inst, 3, Chain3D(p3.id, tuple(pts)))
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(bad)
    assert exc.value.prop == "b"


def test_index_squeeze_corruption_is_caught():
    inst = build_reduction(five_vertex_graph())
    p0 = inst.chains[0]
    pts = list(p0.points)
    pts[1] = Point3(1.0, 1.0, 0.02)  # index 2 parked next to index 1
    bad = _replace_chain(inst, 0, Chain3D(p0.id, tuple(pts)))
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(bad)
    assert exc.value.prop == "a"


def test_self_crossing_chain_is_caught():
    inst = build_reduction(five_vertex_graph())
    p0 = inst.chains[0]
    order = (0, 2, 1, 3, 4)  # same labeled points, crossing visit order
    pts = tuple(p0.points[i] for i in order)
    labels = tuple(inst.label_map[0][i] for i in order)
    chains = (Chain3D(p0.id, pts),) + inst.chains[1:]
    label_map = (labels,) + inst.label_map[1:]
    bad = ReductionInstance(inst.graph, inst.delta, chains, label_map)
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(bad)
    assert exc.value.prop == "simplicity"


@pytest.mark.parametrize(
    "scale", [1.0, 1e100, 1e199, 10**200], ids=["1", "1e100", "1e199", "1e200"]
)
def test_overflowing_self_crossing_chain_is_caught(scale):
    # segments 1 and 3 cross at every scale; at 1e100 the float products
    # overflow to inf, at 1e199 to NaN, and the int scale 10**200 gives int
    # coordinates, which Point3 stores as floats that overflow like 1e199's
    corners = ((0, 0), (10, 0), (3, -7), (6, 9))
    pts = tuple(Point3(x * scale, y * scale, 0.0) for x, y in corners)
    labels = tuple((i, PRIME) for i in range(1, 5))
    inst = ReductionInstance(Graph(4), 0.05, (Chain3D("P0", pts),), (labels,))
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(inst)
    assert exc.value.prop == "simplicity"
    assert exc.value.witness == ("P0", 1, 3)


def test_segment_distance_past_the_float_range_is_inf():
    # the exact recompute's distance is too large for a float, as math.dist's is
    pts = ((-1.5e308, 0.0, 0.0), (-1.5e308, 1.0, 0.0), (1.5e308, 1.0, 0.0), (1.5e308, 0.0, 0.0))
    assert math.dist(pts[0], pts[3]) == math.inf
    assert _segment_distance(*pts) == math.inf


def oracle_measure(inst, gap_factor=10.0):
    """The measurement as a plain loop: every pairwise vertex distance and
    every non-adjacent segment pair of every chain, in (chain, s, t) order,
    the first extremum kept."""
    occ = []
    for chain, labels in zip(inst.chains, inst.label_map):
        for key in zip(labels, chain.points):
            if key not in occ:
                occ.append(key)
    min_cross, cross_wit = math.inf, None
    max_same, same_wit = 0.0, None
    pairs = []
    for x in range(len(occ)):
        (lx, px) = occ[x]
        for y in range(x + 1, len(occ)):
            (ly, py) = occ[y]
            d = math.dist(px, py)
            if lx[0] != ly[0]:
                pairs.append((d, frozenset((lx[0], ly[0])), (lx, ly)))
                if d < min_cross:
                    min_cross, cross_wit = d, (lx, ly)
            elif lx[1] != ly[1] and d > max_same:
                max_same, same_wit = d, (lx, ly)
    pairs.sort(key=lambda t: t[0])
    min_gap, gap_wit = math.inf, None
    for x, (dx, cx, wx) in enumerate(pairs):
        for dy, cy, wy in pairs[x + 1:]:
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
        inst.graph.n_vertices, len(inst.chains), inst.delta, gap_factor,
        min_cross, cross_wit, max_same, same_wit, min_gap, gap_wit, min_sep, sep_wit,
    )


def report_fields(report):
    # floats by their exact bits, everything else as it is
    return [
        v.hex() if isinstance(v, float) else v
        for v in (getattr(report, f.name) for f in dataclasses.fields(report))
    ]


def test_gap_factor_parameter_tightens_the_check():
    inst = build_reduction(five_vertex_graph())
    verify_reduction_properties(inst, gap_factor=10.0)
    with pytest.raises(PropertyViolation) as exc:
        verify_reduction_properties(inst, gap_factor=1e9)
    assert exc.value.prop == "c"
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(InvalidThreshold):
            verify_reduction_properties(inst, gap_factor=bad)


# ---------------------------------------------------------------------------
# independent-set solver
# ---------------------------------------------------------------------------

def test_independent_set_known_graphs():
    assert max_independent_set_bruteforce(Graph(4)) == (4, (1, 2, 3, 4))
    k4 = Graph(4, tuple(itertools.combinations(range(1, 5), 2)))
    assert max_independent_set_bruteforce(k4) == (1, (1,))
    c5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert max_independent_set_bruteforce(c5) == (2, (1, 3))
    assert max_independent_set_bruteforce(path_graph(4)) == (2, (1, 3))
    assert max_independent_set_bruteforce(Graph(1)) == (1, (1,))
    assert max_independent_set_bruteforce(five_vertex_graph()) == (3, (1, 3, 5))


def independent_set_oracle(graph):
    # first independent subset in (descending size, lexicographic) order
    n = graph.n_vertices
    edges = set(graph.edges)
    for k in range(n, 0, -1):
        for subset in itertools.combinations(range(1, n + 1), k):
            chosen = set(subset)
            if not any((i, j) in edges for i in chosen for j in chosen if i < j):
                return k, subset
    return 0, ()


def test_independent_set_matches_subset_enumeration():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        assert max_independent_set_bruteforce(g) == independent_set_oracle(g)


def test_independent_set_size_limit():
    with pytest.raises(TooLarge):
        max_independent_set_bruteforce(Graph(21))


# ---------------------------------------------------------------------------
# matching a candidate subset against the chains
# ---------------------------------------------------------------------------

def test_greedy_label_match_cases():
    labels = build_reduction(five_vertex_graph()).label_map[3]
    assert greedy_label_match((1, 3, 5), labels) == (5, 6, 8)
    assert greedy_label_match((2, 3), labels) == (1, 2)
    assert greedy_label_match((1, 2), labels) is None
    assert greedy_label_match((5, 1), labels) == (4, 5)
    assert greedy_label_match((), labels) == ()


def subsequence_oracle(common, chain, delta):
    idx = range(len(chain))
    for k in range(1, len(chain) + 1):
        for pick in itertools.combinations(idx, k):
            sub = Chain3D("s", tuple(chain.points[i] for i in pick))
            if discrete_frechet(common, sub).value <= delta:
                return True
    return False


def list_dp_decision(common, chain, delta):
    """The subsequence decision as a list dynamic program, one math.dist
    per (common vertex, chain vertex) pair.

    f[j] holds when a coupling covers common[..i] with a subsequence ending
    at chain[j]; predecessors are the same j, any earlier j of the previous
    row, or any earlier j of the same row.
    """
    cp, pp = common.points, chain.points
    m = len(pp)
    f_prev = [False] * m
    for i, cpt in enumerate(cp):
        prev_prefix = [False] * (m + 1)  # or of f_prev[..j-1]
        for j in range(m):
            prev_prefix[j + 1] = prev_prefix[j] or f_prev[j]
        f_cur = [False] * m
        cur_prefix = False  # or of f_cur[..j-1]
        for j in range(m):
            if math.dist(cpt, pp[j]) <= delta:
                if i == 0:
                    f_cur[j] = True
                else:
                    f_cur[j] = f_prev[j] or prev_prefix[j] or cur_prefix
            cur_prefix = cur_prefix or f_cur[j]
        f_prev = f_cur
    return any(f_prev)


def test_subsequence_decision_matches_enumeration():
    rng = random.Random(77)
    hits = misses = 0
    for _ in range(60):
        chain = chain_from_coords(
            "p", [(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
                  for _ in range(rng.randint(1, 7))]
        )
        if rng.random() < 0.5:
            picks = sorted(rng.sample(range(len(chain)), rng.randint(1, len(chain))))
            jig = 0.05
            common = chain_from_coords(
                "c", [(chain.points[i].x + rng.uniform(-jig, jig),
                       chain.points[i].y + rng.uniform(-jig, jig),
                       chain.points[i].z + rng.uniform(-jig, jig)) for i in picks]
            )
        else:
            common = chain_from_coords(
                "c", [(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
                      for _ in range(rng.randint(1, 4))]
            )
        delta = rng.choice([0.15, 0.4, 0.9])
        got = subsequence_match_decision(common, chain, delta)
        assert got == subsequence_oracle(common, chain, delta)
        assert got == list_dp_decision(common, chain, delta)
        hits += got
        misses += not got
    assert hits >= 10 and misses >= 10

    with pytest.raises(NegativeDelta):
        subsequence_match_decision(chain, chain, -1.0)


# ---------------------------------------------------------------------------
# end-to-end solver
# ---------------------------------------------------------------------------

def oracle_solve(inst):
    """The per-query loop: every (subset, chain) query runs the greedy label
    scan and the list dynamic program, in enumeration order."""
    n = inst.graph.n_vertices
    for k in range(n, 0, -1):
        for subset in itertools.combinations(range(1, n + 1), k):
            common = Chain3D("C", tuple(prime_point(i) for i in subset))
            matches = []
            for chain, labels in zip(inst.chains, inst.label_map):
                greedy = greedy_label_match(subset, labels)
                if (greedy is not None) != list_dp_decision(common, chain, inst.delta):
                    raise InvariantError(
                        f"label scan and distance decision disagree on subset "
                        f"{subset} against chain {chain.id}"
                    )
                if greedy is None:
                    break
                matches.append(greedy)
            else:
                return ReductionSolution(k, subset, common, tuple(matches))
    raise InvariantError("no subset matched every chain, not even a single index")


def solve_outcome(solve, inst):
    try:
        sol = solve(inst)
    except InvariantError as exc:
        return "raised", str(exc)
    return sol.k, sol.vertices, sol.common_chain, sol.matches


def move_vertex(inst, which, pos, z):
    chain = inst.chains[which]
    pts = list(chain.points)
    pts[pos] = Point3(pts[pos].x, pts[pos].y, z)
    return _replace_chain(inst, which, Chain3D(chain.id, tuple(pts)))


@st.composite
def reduction_instances(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    delta = draw(st.one_of(
        st.sampled_from([0.05, 0.0999, 1e-9]),
        st.floats(0.0, 0.1, exclude_min=True, exclude_max=True),
    ))
    inst = build_reduction(Graph(n, tuple(edges)), delta)
    if draw(st.integers(0, 9)) == 0:
        # a threshold beyond the cross-index distance sqrt(10): one chain
        # vertex is then close to several indices
        inst = ReductionInstance(inst.graph, draw(st.sampled_from([3.5, 10.0, 1e3])),
                                 inst.chains, inst.label_map)
    moved = draw(st.none() | st.tuples(
        st.integers(0, len(inst.chains) - 1),
        st.integers(0, 2 * n),
        st.sampled_from([5.0, delta / 2, 1.5 * delta]),
    ))
    if moved is not None:
        which, pos, z = moved
        inst = move_vertex(inst, which, pos % len(inst.chains[which]), z)
    return inst


@st.composite
def reordered_instances(draw):
    # one chain's vertices, with their labels, in a drawn order: most such
    # chains cross themselves
    inst = draw(reduction_instances())
    which = draw(st.integers(0, len(inst.chains) - 1))
    chain, labels = inst.chains[which], inst.label_map[which]
    order = draw(st.permutations(range(len(chain))))
    chains = list(inst.chains)
    label_map = list(inst.label_map)
    chains[which] = Chain3D(chain.id, tuple(chain.points[i] for i in order))
    label_map[which] = tuple(labels[i] for i in order)
    return ReductionInstance(inst.graph, inst.delta, tuple(chains), tuple(label_map))


@st.composite
def degenerate_instances(draw):
    # one chain with repeated vertices (zero-length segments), a copy of
    # its first segment shifted along y (an exactly parallel segment), and
    # a scale at which the float products overflow to inf (1e100) or give
    # NaN (1e199)
    inst = draw(reduction_instances())
    which = draw(st.integers(0, len(inst.chains) - 1))
    pts, labels = list(inst.chains[which].points), list(inst.label_map[which])
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        pts.insert(k, pts[k])
        labels.insert(k, labels[k])
    if len(pts) > 1 and draw(st.booleans()):
        pts += [Point3(p.x, p.y + 3.0, p.z) for p in pts[:2]]
        labels += labels[:2]
    scale = draw(st.sampled_from([1.0, 1e100, 1e199]))
    chains = list(inst.chains)
    label_map = list(inst.label_map)
    chains[which] = Chain3D(chains[which].id, tuple(Point3(*(c * scale for c in p)) for p in pts))
    label_map[which] = tuple(labels)
    return ReductionInstance(inst.graph, inst.delta, tuple(chains), tuple(label_map))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    reduction_instances() | reordered_instances() | degenerate_instances(),
    st.sampled_from([0.5, 2.0, 10.0]),
)
def test_measurement_equals_the_per_pair_oracle(inst, gap_factor):
    report = measure_reduction_properties(inst, gap_factor)
    assert report_fields(report) == report_fields(oracle_measure(inst, gap_factor))


# one chain per group, groups that grow as subsets drop out, and the default
CELL_BUDGETS = (1, 64, reduction.SOLVE_CELLS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reduction_instances())
def test_solver_equals_the_per_query_oracle(inst):
    expected = solve_outcome(oracle_solve, inst)
    for cells in CELL_BUDGETS:
        with patch.object(reduction, "SOLVE_CELLS", cells):
            assert solve_outcome(solve_reduction_bruteforce, inst) == expected, cells


def decisions(inst, which, subset):
    """The label scan's and the list dynamic program's answer for one query."""
    common = Chain3D("C", tuple(prime_point(i) for i in subset))
    return (
        greedy_label_match(subset, inst.label_map[which]) is not None,
        list_dp_decision(common, inst.chains[which], inst.delta),
    )


def two_subset_instance(moved):
    """Graph(3) with edge (1, 2) and one vertex of chain P1 moved far away.

    P1 lists 2', 3', 1'', 3''.  Size 3 and subset (1, 2) fail both
    decisions at P1.  Moving position 0 (2') makes subset (2, 3) disagree
    there while (1, 3) matches; moving position 3 (3'') makes (1, 3)
    disagree while (2, 3) matches.
    """
    return move_vertex(build_reduction(Graph(3, ((1, 2),))), 1, moved, 5.0)


@pytest.mark.parametrize("cells", CELL_BUDGETS)
def test_solver_block_edge_cases(cells):
    with patch.object(reduction, "SOLVE_CELLS", cells):
        # no chains: the full index set matches vacuously
        empty = ReductionInstance(Graph(3), 0.05, (), ())
        assert solve_outcome(solve_reduction_bruteforce, empty) == solve_outcome(oracle_solve, empty)
        assert solve_reduction_bruteforce(empty).vertices == (1, 2, 3)

        # a chain of 70 vertices whose labelled points come after 66 far
        # fillers that carry no index
        fill = tuple(Point3(100.0 + p, 0.0, 50.0) for p in range(66))
        chain = Chain3D("P0", fill + tuple(prime_point(i) for i in range(1, 5)))
        labels = tuple((0, PRIME) for _ in fill) + tuple((i, PRIME) for i in range(1, 5))
        long = ReductionInstance(Graph(4), 0.05, (chain,), (labels,))
        sol = solve_reduction_bruteforce(long)
        assert sol.matches == ((67, 68, 69, 70),)
        assert solve_outcome(solve_reduction_bruteforce, long) == solve_outcome(oracle_solve, long)

        # a matching subset before a disagreeing one of the same size returns
        match_first = two_subset_instance(0)
        assert decisions(match_first, 1, (2, 3)) == (True, False)
        assert solve_reduction_bruteforce(match_first).vertices == (1, 3)
        assert solve_outcome(solve_reduction_bruteforce, match_first) == solve_outcome(
            oracle_solve, match_first
        )

        # a disagreeing subset before a matching one raises
        disagree_first = two_subset_instance(3)
        assert decisions(disagree_first, 1, (2, 3)) == (True, True)
        expected = (
            "raised",
            "label scan and distance decision disagree on subset (1, 3) against chain P1",
        )
        assert solve_outcome(oracle_solve, disagree_first) == expected
        assert solve_outcome(solve_reduction_bruteforce, disagree_first) == expected


def test_solver_names_the_first_disagreement():
    inst = move_vertex(build_reduction(five_vertex_graph()), 3, 4, 5.0)
    expected = (
        "raised",
        "label scan and distance decision disagree on subset (1, 3, 4, 5) against chain P3",
    )
    assert solve_outcome(oracle_solve, inst) == expected
    assert solve_outcome(solve_reduction_bruteforce, inst) == expected


def test_solver_rejects_a_bad_threshold():
    inst = build_reduction(five_vertex_graph())
    cases = ((-0.01, NegativeDelta), (math.nan, InvalidThreshold), (math.inf, InvalidThreshold))
    for bad, error in cases:
        bad_inst = ReductionInstance(inst.graph, bad, inst.chains, inst.label_map)
        with pytest.raises(error):
            solve_reduction_bruteforce(bad_inst)


def test_solver_computes_each_distance_once(monkeypatch):
    rng = random.Random(12)
    pairs = list(itertools.combinations(range(1, 13), 2))
    inst = build_reduction(Graph(12, tuple(rng.sample(pairs, 20))))
    calls = 0
    real_dist = math.dist

    def counting_dist(p, q):
        nonlocal calls
        calls += 1
        return real_dist(p, q)

    monkeypatch.setattr(math, "dist", counting_dist)
    sol = solve_reduction_bruteforce(inst)
    assert sol.k == max_independent_set_bruteforce(inst.graph)[0]
    assert 0 < calls <= 12 * sum(len(c) for c in inst.chains)


def test_solver_on_the_five_vertex_instance():
    inst = build_reduction(five_vertex_graph())
    sol = solve_reduction_bruteforce(inst)
    assert sol.k == 3
    assert sol.vertices == (1, 3, 5)
    assert sol.common_chain.points == tuple(prime_point(i) for i in (1, 3, 5))
    assert sol.matches[0] == (1, 3, 5)
    assert sol.matches[3] == (5, 6, 8)
    assert len(sol.matches) == len(inst.chains)


def test_solver_size_always_equals_the_independent_set_size():
    rng = random.Random(4242)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        if g.n_vertices == 0:
            continue
        inst = build_reduction(g)
        sol = solve_reduction_bruteforce(inst)
        k, witness = max_independent_set_bruteforce(g)
        assert sol.k == k
        assert sol.vertices == witness
        edges = set(g.edges)
        chosen = set(sol.vertices)
        assert not any((i, j) in edges for i in chosen for j in chosen if i < j)
        for match in sol.matches:
            assert list(match) == sorted(match)


def test_solver_detects_internally_inconsistent_instances():
    inst = build_reduction(five_vertex_graph())
    p3 = inst.chains[3]
    pts = list(p3.points)
    pts[4] = Point3(pts[4].x, pts[4].y, 5.0)  # label says index 1, point is far away
    bad = _replace_chain(inst, 3, Chain3D(p3.id, tuple(pts)))
    with pytest.raises(InvariantError):
        solve_reduction_bruteforce(bad)


def test_solver_at_the_vertex_limit():
    # the whole 2**20 lattice: K20 sweeps 191 chains, a sparse graph keeps
    # many subsets live to the last chain
    rng = random.Random(20)
    pairs = list(itertools.combinations(range(1, 21), 2))
    sparse = tuple(p for p in pairs if rng.random() < 0.1)
    for graph in (Graph(20, tuple(pairs)), Graph(20, sparse)):
        sol = solve_reduction_bruteforce(build_reduction(graph))
        assert (sol.k, sol.vertices) == max_independent_set_bruteforce(graph)


def test_solver_size_limit():
    inst = build_reduction(Graph(21))
    with pytest.raises(TooLarge):
        solve_reduction_bruteforce(inst)
