import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from netbargain import blockset, exactlp, matching, oracle
from netbargain.errors import InputError, InternalInvariantError, PreconditionError
from netbargain.graphcore import Graph, bipartite_double, compute_sparsity, is_bipartite, uncovered_edge

import corpus
from relaxation import relaxation_value


def gap_instance(n):
    gap = oracle.gen_gap(n)
    return gap, blockset.GbsInstance(gap.graph, gap.e1, gap.e2, gap.nu)


def bad_star_instance():
    """Hub joined to five mid vertices (protected), one pendant each (droppable)."""
    e2 = [("x0", f"y{i}") for i in range(1, 6)]
    e1 = [(f"y{i}", f"o{i}") for i in range(1, 6)]
    g = Graph.build(e1 + e2)
    return blockset.GbsInstance(g, tuple(e1), tuple(e2), 4)


# -- instances ----------------------------------------------------------------


def test_root_instance_k3():
    g = corpus.k3()
    inst = blockset.root_instance(g, matching.matching_number(g))
    assert len(inst.e1) == 3 and inst.e2 == () and inst.nu == 1


def test_root_instance_p3():
    g = corpus.p3()
    inst = blockset.root_instance(g, matching.matching_number(g))
    assert len(inst.e1) == 2 and inst.nu == 1


def test_root_instance_gap_all_droppable():
    gap, _ = gap_instance(1)
    root = blockset.root_instance(gap.graph, matching.matching_number(gap.graph))
    assert len(root.e1) == 10 and root.e2 == ()
    assert root.nu == 2  # matching number of the graph, not the generator budget


def test_instance_validates_partition():
    g = corpus.p3()
    with pytest.raises(PreconditionError):
        blockset.GbsInstance(g, (("a", "b"),), (), 1)  # missing bc
    with pytest.raises(PreconditionError):
        blockset.GbsInstance(g, g.edges, (("a", "b"),), 1)  # overlap
    with pytest.raises(PreconditionError):
        blockset.GbsInstance(g, g.edges, (), -1)


def test_instance_rejects_bool_budget():
    with pytest.raises(PreconditionError):
        blockset.GbsInstance(corpus.p3(), corpus.p3().edges, (), True)


# -- relaxation and classification --------------------------------------------


@pytest.mark.parametrize(
    "edges, nu",
    [([("a", "b")], 0), ([("a", "b"), ("a", "c"), ("b", "c")], 1)],
)
def test_stabilize_instance_rejects_uncoverable_protected_edges(edges, nu):
    # the protected edges' fractional matching (1, then 3/2) exceeds the budget
    g = Graph.build(edges)
    with pytest.raises(InputError, match="cannot cover e2"):
        blockset.stabilize_instance(blockset.GbsInstance(g, (), g.edges, nu))
    assert blockset.stabilize_instance(blockset.GbsInstance(g, (), g.edges, nu + 1)).blocking_set == ()


def test_gap1_lp_value_and_unit_vertex():
    _, inst = gap_instance(1)
    ep = blockset.solve_gbs_lp(inst)
    assert ep.objective == 8
    assert ep.x["x1"] == 1
    assert ep.classification == blockset.GoodCertificate("unit_vertex", vertex="x1")


def test_doubled_k3_host_value_two():
    d = bipartite_double(corpus.k3())
    host_inst = blockset.GbsInstance(d.host, d.host.edges, (), 2)
    value = relaxation_value(host_inst)
    # primal witness: unit mass on two opposite cycle vertices, two uncovered
    # edges at 1; dual witness: 1 per edge, budget multiplier 2 -> 6 - 2*2 = 2
    assert value == 2
    ep = blockset.solve_gbs_lp(host_inst)
    assert ep.objective == 2


def test_empty_droppable_class_value_zero():
    g = corpus.p3()
    inst = blockset.GbsInstance(g, (), g.edges, 1)
    assert relaxation_value(inst) == 0


def test_classify_integral_heavy_edge():
    # budget 0 forces z = 1 on the single droppable edge
    g = corpus.single_edge()
    inst = blockset.GbsInstance(g, g.edges, (), 0)
    ep = blockset.solve_gbs_lp(inst)
    assert ep.objective == 1
    assert ep.classification == blockset.GoodCertificate("heavy_edge", edge=("u", "v"))


def test_classify_prefers_unit_vertex_in_canonical_order():
    _, inst = gap_instance(1)
    ep = blockset.solve_gbs_lp(inst)
    assert ep.classification.kind == "unit_vertex"


def test_bad_point_detected_and_validated():
    inst = bad_star_instance()
    ep = blockset.solve_gbs_lp(inst)
    assert ep.objective == Fraction(5, 4)
    assert ep.budget_tight
    assert ep.alpha == Fraction(3, 4)
    bad = ep.classification
    assert isinstance(bad, blockset.BadPartition)
    assert bad.x_side == ("x0",)
    assert len(bad.y_side) == 5 and len(bad.o_side) == 5
    # the budget sits strictly between half the covered classes and the high side
    assert 2 * inst.nu > len(bad.x_side) + len(bad.y_side)
    assert inst.nu < len(bad.y_side)


def test_classify_synthetic_bad_point_directly():
    inst = bad_star_instance()
    alpha = Fraction(3, 4)
    x = {"x0": 1 - alpha}
    x.update({f"y{i}": alpha for i in range(1, 6)})
    x.update({f"o{i}": Fraction(0) for i in range(1, 6)})
    z = {e: 1 - alpha for e in inst.e1}
    ep = blockset.ExtremePoint(
        x=x,
        z=z,
        objective=Fraction(5, 4),
        alpha=alpha,
        tight_e1=frozenset(inst.e1),
        tight_e2=frozenset(inst.e2),
        budget_tight=True,
        classification=None,
    )
    bad = blockset.classify(ep, inst)
    assert isinstance(bad, blockset.BadPartition)
    assert bad.alpha == alpha


def test_classify_rejects_broken_bad_structure():
    inst = bad_star_instance()
    ep = blockset.solve_gbs_lp(inst)
    # corrupt one droppable-edge value: uniform-level check must fire
    z = dict(ep.z)
    z[inst.e1[0]] = Fraction(1, 5)
    broken = blockset.ExtremePoint(
        x=ep.x,
        z=z,
        objective=ep.objective,
        alpha=ep.alpha,
        tight_e1=ep.tight_e1,
        tight_e2=ep.tight_e2,
        budget_tight=True,
        classification=None,
    )
    with pytest.raises(InternalInvariantError):
        blockset.classify(broken, inst)


# -- direct rounding of a fractional leaf -------------------------------------


def test_bad_leaf_round_star():
    inst = bad_star_instance()
    ep = blockset.solve_gbs_lp(inst)
    x, blocked = blockset.bad_leaf_round(inst, ep.classification, omega=Fraction(1), lp_value=ep.objective)
    assert sum(x.values(), Fraction(0)) == 4
    assert blocked == frozenset({("o1", "y1"), ("x0", "y1")})
    assert x["y1"] == 0 and all(x[f"y{i}"] == 1 for i in range(2, 6))


def test_bad_leaf_round_removal_count():
    # six mid vertices with budget 4: exactly |Y| - nu = 2 removals
    e2 = [("x0", f"y{i}") for i in range(1, 7)]
    e1 = [(f"y{i}", f"o{i}") for i in range(1, 7)]
    inst = blockset.GbsInstance(Graph.build(e1 + e2), tuple(e1), tuple(e2), 4)
    bad = blockset.BadPartition(
        ("x0",), tuple(f"y{i}" for i in range(1, 7)), tuple(f"o{i}" for i in range(1, 7)),
        Fraction(3, 4),
    )
    x, blocked = blockset.bad_leaf_round(
        inst, bad, omega=compute_sparsity(inst.graph).omega,
        lp_value=relaxation_value(inst),
    )
    removed = {v for v in bad.y_side if x[v] == 0}
    assert removed == {"y1", "y2"}
    assert len(blocked) == 4


def test_min_degree_removal_tie_breaks_lexicographically():
    degs = {"a": 2, "b": 3, "c": 2, "d": 3, "e": 4}
    edges = []
    k = 0
    for v, d in degs.items():
        for _ in range(d):
            edges.append((v, f"w{k}"))
            k += 1
    picked = blockset.pick_min_degree_removals(degs, edges, 1)
    assert picked == (("a", 2),)
    two = blockset.pick_min_degree_removals(degs, edges, 2)
    assert [v for v, _ in two] == ["a", "c"]


# -- rounding recursion --------------------------------------------------------


def test_ir_empty_graph():
    g = Graph.build(vertices=["a", "b"])
    inst = blockset.GbsInstance(g, (), (), 1)
    x, blocked = blockset.ir_solve(inst)
    assert blocked == frozenset()
    assert x == {"a": Fraction(0), "b": Fraction(0)}


def test_ir_gap1_blocks_all_droppable_edges():
    gap, inst = gap_instance(1)
    x, blocked = blockset.ir_solve(inst)
    assert blocked == frozenset(gap.e1)
    assert len(blocked) == 8
    assert x["x1"] == 1


def test_ir_runs_in_constant_stack_depth(monkeypatch):
    # every step of the rounding recursion solves one LP from the same frame depth
    depths = []
    solve = blockset.solve_gbs_lp

    def recording(inst):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return solve(inst)

    monkeypatch.setattr(blockset, "solve_gbs_lp", recording)
    gap, inst = gap_instance(2)
    blockset.ir_solve(inst)
    assert len(depths) == 15
    assert len(set(depths)) == 1


def test_ir_requires_bipartite():
    with pytest.raises(PreconditionError):
        blockset.ir_solve(blockset.root_instance(corpus.k3(), 1))


def test_ir_doubled_k3_meets_certified_bound():
    d = bipartite_double(corpus.k3())
    host_inst = blockset.GbsInstance(d.host, d.host.edges, (), 2)
    omega_host = compute_sparsity(d.host).omega
    x, blocked = blockset.ir_solve(host_inst)
    assert len(blocked) <= (2 * omega_host + 1) * relaxation_value(host_inst)
    for u, v in d.host.edges:
        if (u, v) not in blocked:
            assert x[u] + x[v] >= 1


# -- full pipeline --------------------------------------------------------------


def test_stabilize_p3_returns_empty_set_and_core_point():
    r = blockset.stabilize(corpus.p3())
    assert r.blocking_set == ()
    assert r.x_hat == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(0)}
    assert r.root_lp_value == 0
    assert r.guarantee_factor == 3  # bipartite path with sparsity 1


def test_stabilize_k3():
    g = corpus.k3()
    r = blockset.stabilize(g)
    assert len(r.blocking_set) >= 1
    assert r.root_lp_value == 1
    assert r.guarantee_factor == 10
    assert len(r.blocking_set) <= r.guarantee_factor * r.root_lp_value
    opt = oracle.brute_min_blocking_set(g, 1)
    assert len(opt.blocking_set) == 1
    assert len(r.blocking_set) <= 10 * len(opt.blocking_set)
    blocked = set(r.blocking_set)
    for u, v in g.edges:
        if (u, v) not in blocked:
            assert r.x_hat[u] + r.x_hat[v] >= 1
    assert sum(r.x_hat.values(), Fraction(0)) <= 1


def test_stabilize_gap1_instance_exact_optimum():
    gap, inst = gap_instance(1)
    r = blockset.stabilize_instance(inst)
    assert len(r.blocking_set) == 8
    assert r.root_lp_value == 8
    assert len(r.blocking_set) <= r.guarantee_factor * r.root_lp_value
    opt = oracle.brute_min_blocking_set(gap.graph, gap.nu, blockable=gap.e1)
    assert len(opt.blocking_set) == 8


def test_stabilize_nonempty_core_gives_empty_set(monkeypatch):
    def no_rounding(*args):
        raise AssertionError("the rounding ran on a stable root")

    # the core witness settles a stable root: no rounding, no doubled host
    monkeypatch.setattr(blockset, "_ir", no_rounding)
    monkeypatch.setattr(blockset, "bipartite_double", no_rounding)
    # paw = triangle plus pendant: stable but not bipartite
    paw = Graph.build([("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")])
    for g in (corpus.p3(), corpus.c4(), corpus.single_edge(), corpus.star(4), paw):
        r = blockset.stabilize(g)
        assert r.blocking_set == ()
        assert r.root_lp_value == 0


def test_stabilize_gap2_instance_meets_bound():
    gap, inst = gap_instance(2)
    r = blockset.stabilize_instance(inst)
    assert r.root_lp_value == 8
    assert len(r.blocking_set) == 12  # matches the exhaustive optimum
    assert len(r.blocking_set) <= r.guarantee_factor * r.root_lp_value


def test_stabilize_deterministic():
    g = corpus.c5()
    assert blockset.stabilize(g) == blockset.stabilize(g)


def test_trace_line_format():
    r = blockset.stabilize(corpus.k3())
    pattern = re.compile(
        r"^step=\d+ case=(1|2|3|bad|leaf) \|V\|=\d+ \|E1\|=\d+ \|E2\|=\d+ nu=\d+$"
    )
    assert r.trace
    for line in r.trace:
        assert pattern.match(line), line
    steps = [int(line.split()[0].split("=")[1]) for line in r.trace]
    assert steps == list(range(1, len(steps) + 1))


def test_bad_leaf_reached_on_star_instance():
    inst = bad_star_instance()
    x, blocked = blockset.ir_solve(inst)
    assert blocked == frozenset({("o1", "y1"), ("x0", "y1")})
    assert sum(x.values(), Fraction(0)) == 4


def test_monotone_progress_bounds_recursion():
    # every step consumes a vertex or a droppable edge
    for seed in (3, 7, 11):
        g = corpus.corpus_graph(seed)
        r = blockset.stabilize(g)
        root = blockset.root_instance(g, matching.matching_number(g))
        assert len(r.trace) <= 2 * (root.graph.n + len(root.e1)) + 2


def test_random_instances_meet_guarantee():
    checked = 0
    for seed in range(40):
        g = corpus.corpus_graph(seed)
        r = blockset.stabilize(g)
        omega = compute_sparsity(g).omega
        opt = oracle.brute_min_blocking_set(g, matching.matching_number(g))
        assert opt.found
        assert len(r.blocking_set) <= (8 * omega + 2) * len(opt.blocking_set)
        assert len(r.blocking_set) <= r.guarantee_factor * r.root_lp_value
        if opt.blocking_set:
            checked += 1
    assert checked  # the corpus contains genuinely unstable graphs


# -- the root value of a non-bipartite instance, read off its double -----------


@st.composite
def odd_cycle_instances(draw):
    """A triangle plus random edges on up to 7 vertices, some maybe isolated;
    either the root instance or a random droppable/protected split with a
    budget that covers the protected edges."""
    n = draw(st.integers(3, 7))
    names = [f"v{i}" for i in range(n)]
    extra = draw(st.lists(st.sampled_from(list(combinations(names, 2))), max_size=8))
    g = Graph.build([("v0", "v1"), ("v1", "v2"), ("v0", "v2")] + extra, names)
    if draw(st.booleans()):
        return blockset.root_instance(g, matching.matching_number(g))
    protected = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    e2 = tuple([e for e, keep in zip(g.edges, protected) if keep])
    e1 = tuple([e for e, keep in zip(g.edges, protected) if not keep])
    need = matching.fractional_matching_value(Graph(g.vertices, e2))
    return blockset.GbsInstance(g, e1, e2, draw(st.integers(math.ceil(need), n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(odd_cycle_instances())
def test_host_root_value_is_twice_the_relaxation(inst):
    value = relaxation_value(inst)
    d = bipartite_double(inst.graph)
    assert blockset.solve_gbs_lp(blockset._double_instance(inst, d)).objective == 2 * value
    assert blockset.stabilize_instance(inst).root_lp_value == value


def test_non_bipartite_input_solves_no_lp_on_g(monkeypatch):
    answered = []
    solve = blockset.solve_gbs_lp

    def recording(inst):
        answered.append(inst.graph.vertices)
        return solve(inst)

    monkeypatch.setattr(blockset, "solve_gbs_lp", recording)
    for g in (corpus.k3(), corpus.c5(), corpus.corpus_graph(3)):
        assert blockset.stabilize(g).root_lp_value > 0
    # every relaxation answered is a host's, whose vertices are the copies v#1 and v#2
    assert answered
    assert all("#" in name for names in answered for name in names)


def test_relaxation_needs_a_bipartite_instance():
    with pytest.raises(PreconditionError, match="bipartite"):
        blockset.solve_gbs_lp(blockset.root_instance(corpus.k3(), 1))


def test_tampered_host_dual_breaks_the_averaged_certificate(monkeypatch):
    solve = blockset.solve_gbs_lp
    calls = []

    def tampering(inst):
        ep = solve(inst)
        calls.append(inst)
        if len(calls) > 1:
            return ep
        return replace(ep, duals=(ep.duals[0] + Fraction(1, 7),) + ep.duals[1:])

    monkeypatch.setattr(blockset, "solve_gbs_lp", tampering)
    with pytest.raises(InternalInvariantError, match="blockset LP not certified"):
        blockset.stabilize(corpus.k3())


def test_relaxation_answer_is_certified(monkeypatch):
    _, inst = gap_instance(1)
    assert blockset.solve_gbs_lp(inst).method == "cut"
    cut = blockset._cut_answer

    def wrong_arc_flow(sol):
        return replace(sol, duals=(sol.duals[0] + Fraction(1, 7),) + sol.duals[1:])

    def wrong_point(sol):
        name = next(v for v in sol.values if v.startswith("z "))
        return replace(sol, values={**sol.values, name: sol.values[name] + Fraction(1, 7)})

    for tamper in (wrong_arc_flow, wrong_point):
        monkeypatch.setattr(blockset, "_cut_answer", lambda inst, side: tamper(cut(inst, side)))
        with pytest.raises(InternalInvariantError, match="blockset LP not certified"):
            blockset.solve_gbs_lp(inst)


def test_star_relaxation_falls_back_to_the_simplex():
    # the star's cut answer mixes its two covers at 3/4 and 1/4: no unit
    # vertex, no zero edge, every droppable edge at 1/4, so the simplex answers
    inst = bad_star_instance()
    ep = blockset.solve_gbs_lp(inst)
    assert ep.method == "simplex" and isinstance(ep.classification, blockset.BadPartition)
    assert blockset.stabilize_instance(inst).stats["simplex_fallbacks"] == 1


def test_simplex_fallback_answer_is_certified(tampered_duals):
    with pytest.raises(InternalInvariantError, match="blockset LP not certified"):
        blockset.solve_gbs_lp(bad_star_instance())


# -- a stable root instance, settled by its core witness ------------------------


@st.composite
def stable_graphs(draw):
    """A graph on 2-11 vertices with a nonempty core: either random edges
    across two sides (bipartite, so stable by Konig's theorem), or a
    triangle plus random edges and a matching of random vertex pairs, kept
    when its core is nonempty."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 11))
        left = draw(st.integers(1, n - 1))
        names = [f"v{i:02d}" for i in range(n)]
        cross = [(u, v) for u in names[:left] for v in names[left:]]
        return Graph.build(draw(st.lists(st.sampled_from(cross), max_size=2 * n)), names)
    n = draw(st.integers(4, 11))
    names = [f"v{i:02d}" for i in range(n)]
    extra = draw(st.lists(st.sampled_from(list(combinations(names, 2))), max_size=n))
    order = draw(st.permutations(names))
    matched = [(order[i], order[i + 1]) for i in range(0, n - 1, 2)]
    g = Graph.build([("v00", "v01"), ("v01", "v02"), ("v00", "v02")] + extra + matched, names)
    assume(matching.core_status(g).status == "nonempty")
    return g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stable_graphs())
def test_stable_root_is_settled_by_the_core_witness(g):
    core = matching.core_status(g)
    omega = compute_sparsity(g).omega
    factor = 2 * omega + 1 if is_bipartite(g) is not None else 8 * omega + 2
    r = blockset.stabilize(g)
    assert r.blocking_set == () and r.root_lp_value == 0
    assert r.x_hat == core.witness_allocation
    assert r.guarantee_factor == factor
    assert len(r.blocking_set) <= r.guarantee_factor * r.root_lp_value
    assert r.trace == (f"step=1 case=core |V|={g.n} |E1|={g.m} |E2|=0 nu={core.nu}",)
    assert r.stats["lp_solves"] == 0
    # the rounding, run without the report, is the oracle: it proves the same zero root
    ir = blockset.stabilize_instance(blockset.root_instance(g, core.nu))
    assert ir.blocking_set == () and ir.root_lp_value == 0
    assert ir.guarantee_factor == factor


def test_rounding_and_witness_may_pick_different_stable_covers():
    g = corpus.two_cover_tree()
    core = matching.core_status(g)
    witness = blockset.stabilize(g).x_hat
    rounded = blockset.stabilize_instance(blockset.root_instance(g, core.nu)).x_hat
    assert witness == core.witness_allocation and witness != rounded
    for x in (witness, rounded):
        assert uncovered_edge(g.edges, x) is None
        assert sum(x.values(), Fraction(0)) == core.nu


@pytest.mark.parametrize(
    "witness, match",
    [
        ({"a": 1, "b": 0, "c": 0, "d": 1}, "uncovered edge b-c"),
        ({"a": -1, "b": 2, "c": 0, "d": 1}, "negative"),
        ({"a": 1, "b": 1, "c": 1, "d": 1}, "total 4 != 2"),
        ({"b": 1, "c": 1}, "graph's vertices"),
    ],
)
def test_a_bad_core_witness_is_refused(witness, match):
    g = corpus.p4()
    core = replace(matching.core_status(g), witness_allocation={v: Fraction(x) for v, x in witness.items()})
    with pytest.raises(InternalInvariantError, match=match):
        blockset.stabilize_instance(blockset.root_instance(g, 2), core=core)


@pytest.mark.parametrize("graph", [corpus.p4, corpus.k3])
def test_a_core_report_settles_only_the_root_instance(graph):
    g = graph()
    core = matching.core_status(g)
    protected = blockset.GbsInstance(g, g.edges[1:], g.edges[:1], core.nu)
    for inst in (protected, blockset.root_instance(g, core.nu + 1)):
        with pytest.raises(PreconditionError, match="root instance"):
            blockset.stabilize_instance(inst, core=core)
