import re
from fractions import Fraction

import pytest

from netbargain import blockset, matching, oracle
from netbargain.errors import InternalInvariantError, PreconditionError
from netbargain.graphcore import Graph, bipartite_double, compute_sparsity

import corpus


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
    inst = blockset.root_instance(corpus.k3())
    assert len(inst.e1) == 3 and inst.e2 == () and inst.nu == 1


def test_root_instance_p3():
    inst = blockset.root_instance(corpus.p3())
    assert len(inst.e1) == 2 and inst.nu == 1


def test_root_instance_gap_all_droppable():
    gap, _ = gap_instance(1)
    root = blockset.root_instance(gap.graph)
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


def test_gap1_lp_value_and_unit_vertex():
    _, inst = gap_instance(1)
    ep = blockset.solve_gbs_lp(inst)
    assert ep.objective == 8
    assert ep.x["x1"] == 1
    assert ep.classification == blockset.GoodCertificate("unit_vertex", vertex="x1")


def test_doubled_k3_host_value_two():
    d = bipartite_double(corpus.k3())
    host_inst = blockset.GbsInstance(d.host, d.host.edges, (), 2)
    value = blockset.relaxation_value(host_inst)
    # primal witness: unit mass on two opposite cycle vertices, two uncovered
    # edges at 1; dual witness: 1 per edge, budget multiplier 2 -> 6 - 2*2 = 2
    assert value == 2
    ep = blockset.solve_gbs_lp(host_inst)
    assert ep.objective == 2


def test_empty_droppable_class_value_zero():
    g = corpus.p3()
    inst = blockset.GbsInstance(g, (), g.edges, 1)
    assert blockset.relaxation_value(inst) == 0


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
        lp_value=blockset.relaxation_value(inst),
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


def test_ir_requires_bipartite():
    with pytest.raises(PreconditionError):
        blockset.ir_solve(blockset.root_instance(corpus.k3()))


def test_ir_doubled_k3_meets_certified_bound():
    d = bipartite_double(corpus.k3())
    host_inst = blockset.GbsInstance(d.host, d.host.edges, (), 2)
    omega_host = Fraction(2)  # twice the original graph's sparsity
    x, blocked = blockset.ir_solve(host_inst, omega=omega_host)
    assert len(blocked) <= (2 * omega_host + 1) * blockset.relaxation_value(host_inst)
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
    assert r.bound_holds
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
    assert r.bound_holds
    opt = oracle.brute_min_blocking_set(gap.graph, gap.nu, blockable=gap.e1)
    assert len(opt.blocking_set) == 8


def test_stabilize_nonempty_core_gives_empty_set():
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
    assert r.bound_holds


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


def test_stabilize_respects_omega_override():
    g = corpus.k3()
    r = blockset.stabilize(g, omega=Fraction(2))
    assert r.guarantee_factor == 8 * 2 + 2
    assert r.bound_holds


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
        root = blockset.root_instance(g)
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
