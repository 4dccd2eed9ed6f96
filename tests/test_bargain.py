from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from netbargain import bargain, blockset, matching, oracle
from netbargain.errors import InputError, InternalInvariantError, PreconditionError
from netbargain.graphcore import Graph, uncovered_edge

import corpus
import surplusbrute
from outcomecheck import verify_outcome

F = Fraction


def alloc(g, **vals):
    return {v: F(vals.get(v, 0)) for v in g.vertices}


# -- surpluses ---------------------------------------------------------------


def test_surpluses_p3_core_point():
    g = corpus.p3()
    st = bargain.surpluses(g, alloc(g, b=1))
    assert st.s[("a", "b")] == 0  # no alternative neighbour: degenerate term
    assert st.via[("a", "b")] is None
    assert st.s[("b", "a")] == 0
    assert st.s[("b", "c")] == 0
    assert st.s[("c", "b")] == 0
    assert st.violated == ()
    assert st.s_max is None and st.delta_cap == 0


def test_surpluses_single_edge_unbalanced():
    g = corpus.single_edge()
    st = bargain.surpluses(g, alloc(g, u=1))
    assert st.s[("u", "v")] == -1
    assert st.s[("v", "u")] == 0
    assert st.violated == (("v", "u"),)
    assert st.s_max == 0


def test_surpluses_p4():
    g = corpus.p4()
    st = bargain.surpluses(g, alloc(g, b=1, c=1))
    assert st.s[("a", "b")] == 0
    assert st.s[("b", "a")] == -1
    assert st.via[("b", "a")] == "c"


def test_surplus_defining_term_prefers_smallest_neighbour():
    g = corpus.star(3)  # hub with leaves leaf0 < leaf1 < leaf2, all at 0
    st = bargain.surpluses(g, alloc(g, hub=1))
    # all leaf options tie at 1 - 1 - 0: the smallest leaf defines the surplus
    assert st.via[("hub", "leaf2")] == "leaf0"


def test_surpluses_requires_full_allocation():
    with pytest.raises(PreconditionError):
        bargain.surpluses(corpus.p3(), {"a": F(0)})


# a few small shares, so that neighbours often tie on the cheapest one
_SHARES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]


@hst.composite
def graphs_with_allocations(draw):
    """A star, a tree or any graph on 2-10 vertices, with shuffled names."""
    n = draw(hst.integers(min_value=2, max_value=10))
    names = draw(hst.permutations([f"v{i}" for i in range(n)]))
    shape = draw(hst.sampled_from(["star", "tree", "any"]))
    if shape == "star":
        edges = [(names[0], w) for w in names[1:]]
    elif shape == "tree":
        edges = [(names[i], names[draw(hst.integers(0, i - 1))]) for i in range(1, n)]
    else:
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        edges = draw(hst.lists(hst.sampled_from(pairs), min_size=1, unique=True))
    return Graph.build(edges, names), {v: draw(hst.sampled_from(_SHARES)) for v in names}


@given(graphs_with_allocations())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_surpluses_match_every_option(case):
    g, x = case
    got = bargain.surpluses(g, x)
    s, term = surplusbrute.brute_surpluses(g, x)
    assert list(got.s.items()) == list(s.items())
    # the oracle's term for a pair (i, j) is the option (1, (i, k)) through k, or (0, (i,))
    assert [
        (p, (0, (p[0],)) if k is None else (1, (p[0], k))) for p, k in got.via.items()
    ] == list(term.items())


# -- local transfers ----------------------------------------------------------


def test_shift_single_edge():
    g = corpus.single_edge()
    st = bargain.surpluses(g, alloc(g, u=1))
    after = bargain.maschler_shift(st)
    assert after.x == {"u": F(1, 2), "v": F(1, 2)}
    assert after == bargain.surpluses(g, after.x)


def test_shift_p4_picks_smallest_top_pair():
    g = corpus.p4()
    st = bargain.surpluses(g, alloc(g, b=1, c=1))
    # (a, b) and (d, c) tie at surplus 0; lexicographic order selects (a, b)
    assert st.violated[0] == ("a", "b")
    after = bargain.maschler_shift(st)
    assert after.x == {"a": F(1, 2), "b": F(1, 2), "c": F(1), "d": F(0)}
    assert after == bargain.surpluses(g, after.x)


def test_shift_can_dip_negative_and_the_next_delta_lp_raises():
    # on the path c-a-b-d, (a, b) is the worst pair and a transfer of 1 from b
    # to a takes x_b below 0; the next acceleration LP refuses that state
    g = Graph.build([("c", "a"), ("a", "b"), ("b", "d")])
    st = bargain.surpluses(g, alloc(g, a=1, d=3))
    assert st.violated[0] == ("a", "b")
    after = bargain.maschler_shift(st)
    assert after.x == {"a": F(2), "b": F(-1), "c": F(0), "d": F(3)}
    with pytest.raises(InternalInvariantError, match="y b negative: -1"):
        bargain.build_delta_lp(after)


def test_shift_requires_unbalanced_pair():
    g = corpus.p3()
    st = bargain.surpluses(g, alloc(g, b=1))
    with pytest.raises(PreconditionError):
        bargain.maschler_shift(st)


# -- acceleration LP ----------------------------------------------------------


def test_delta_lp_p3_balanced_state():
    g = corpus.p3()
    st = bargain.surpluses(g, alloc(g, b=1))
    lp = bargain.build_delta_lp(st)
    from netbargain import exactlp

    sol = exactlp.solve(lp)
    assert sol.status == exactlp.OPTIMAL
    assert sol.values["delta"] == 0


def test_delta_lp_single_edge_nash_split():
    g = corpus.single_edge()
    st = bargain.surpluses(g, alloc(g, u=F(1, 2), v=F(1, 2)))
    lp = bargain.build_delta_lp(st)
    from netbargain import exactlp

    sol = exactlp.solve(lp)
    assert sol.objective == F(1, 2)
    assert sol.values["y u"] == F(1, 2) and sol.values["y v"] == F(1, 2)


def test_delta_lp_p4_prekernel_point_is_optimal():
    g = corpus.p4()
    x = {"a": F(1, 3), "b": F(2, 3), "c": F(2, 3), "d": F(1, 3)}
    st = bargain.surpluses(g, x)
    lp = bargain.build_delta_lp(st)
    from netbargain import exactlp

    sol = exactlp.solve(lp)
    assert sol.objective == 0  # the balanced point leaves no slack to push


def test_delta_lp_has_no_empty_row(monkeypatch):
    built = []
    build = bargain.build_delta_lp

    def recording(st):
        built.append(build(st))
        return built[-1]

    monkeypatch.setattr(bargain, "build_delta_lp", recording)
    g = corpus.random_tree(10, 12)
    out = bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))
    assert (len(built), out.lp_solves, out.shifts) == (3, 3, 10)
    # the dominance rows of a frozen pair skip its own defining neighbour
    assert sum(c.name.startswith("dominate") for lp in built for c in lp.constraints) == 18
    assert [c.name for lp in built for c in lp.constraints if not c.coeffs] == []


# -- full dynamics ------------------------------------------------------------


def test_prekernel_single_edge():
    g = corpus.single_edge()
    assert bargain.prekernel(g, alloc(g, u=1)) == {"u": F(1, 2), "v": F(1, 2)}


def test_prekernel_p4_unique_fixed_point():
    g = corpus.p4()
    out = bargain.prekernel(g, alloc(g, b=1, c=1))
    assert out == {"a": F(1, 3), "b": F(2, 3), "c": F(2, 3), "d": F(1, 3)}


def test_prekernel_p3_already_balanced():
    g = corpus.p3()
    assert bargain.prekernel(g, alloc(g, b=1)) == alloc(g, b=1)


def test_prekernel_rejects_uncovered_start():
    g = corpus.p3()
    with pytest.raises(PreconditionError):
        bargain.prekernel(g, alloc(g))


def test_prekernel_caps_and_balance_on_randoms():
    ran = 0
    for seed in range(24):
        g = corpus.corpus_graph(seed)
        result = blockset.stabilize(g)
        gprime = g.without_edges(result.blocking_set)
        nu = matching.matching_number(g)
        x0 = {v: F(result.x_hat.get(v, 0)) for v in g.vertices}
        deficit = nu - sum(x0.values(), F(0))
        if deficit > 0:
            x0[g.vertices[0]] += deficit
        run = bargain._prekernel_run(gprime, x0)
        assert run.lp_solves <= gprime.m
        assert run.shifts <= gprime.m**2
        st = bargain.surpluses(gprime, run.final.x)
        assert st == run.final
        assert st.violated == ()
        ran += 1
    assert ran == 24


# -- balanced outcomes ---------------------------------------------------------


def test_balanced_outcome_path_residual():
    # triangle with one edge blocked leaves the path b-a-c ... here: a-b, b-c
    g = corpus.k3()
    seed_result = blockset.BlockingSetResult(
        blocking_set=(("a", "c"),),
        x_hat={"a": F(0), "b": F(1), "c": F(0)},
        root_lp_value=F(1),
        omega=F(1),
        guarantee_factor=F(10),
        trace=(),
        stats={},
    )
    out = bargain.balanced_outcome(g, seed_result, 1)
    assert out.matching == (("a", "b"),)
    assert out.allocation == {"a": F(0), "b": F(1), "c": F(0)}
    assert out.alternatives == {"a": F(0), "b": F(1), "c": F(0)}
    assert out.balance_residual == {("a", "b"): F(0)}
    assert uncovered_edge([("a", "b"), ("b", "c")], out.allocation) is None


def test_balanced_outcome_p4():
    g = corpus.p4()
    out = bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))
    assert out.matching == (("a", "b"), ("c", "d"))
    assert out.allocation == {"a": F(1, 3), "b": F(2, 3), "c": F(2, 3), "d": F(1, 3)}


def test_balanced_outcome_single_edge():
    g = corpus.single_edge()
    out = bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))
    assert out.allocation == {"u": F(1, 2), "v": F(1, 2)}


def test_balanced_outcome_k3_passes_independent_verifier():
    g = corpus.k3()
    result = blockset.stabilize(g)
    out = bargain.balanced_outcome(g, result, matching.matching_number(g))
    gprime = g.without_edges(result.blocking_set)
    assert verify_outcome(gprime, matching.matching_number(g), out) == []


def test_balanced_outcome_tops_up_to_matching_number():
    gap = oracle.gen_gap(1)
    inst = blockset.GbsInstance(gap.graph, gap.e1, gap.e2, gap.nu)
    result = blockset.stabilize_instance(inst)
    out = bargain.balanced_outcome(gap.graph, result, matching.matching_number(gap.graph))
    assert sum(out.allocation.values(), F(0)) == matching.matching_number(gap.graph)
    gprime = gap.graph.without_edges(result.blocking_set)
    assert verify_outcome(gprime, matching.matching_number(gap.graph), out) == []


def test_balanced_outcome_rejects_allocation_above_matching_number():
    # protected triangle at budget 2: the stabilized allocation totals 3/2,
    # above the triangle's matching number 1
    g = corpus.k3()
    result = blockset.stabilize_instance(blockset.GbsInstance(g, (), g.edges, 2))
    assert sum(result.x_hat.values(), F(0)) > 1
    with pytest.raises(InputError, match="exceeds the matching number 1"):
        bargain.balanced_outcome(g, result, 1)


def test_outcomes_verify_on_random_corpus():
    for seed in range(24, 48):
        g = corpus.corpus_graph(seed)
        result = blockset.stabilize(g)
        out = bargain.balanced_outcome(g, result, matching.matching_number(g))
        gprime = g.without_edges(result.blocking_set)
        assert verify_outcome(gprime, matching.matching_number(g), out) == [], seed


def test_trace_line_format():
    g = corpus.single_edge()
    run = bargain._prekernel_run(g, {"u": F(1), "v": F(0)})
    assert run.trace
    import re

    pat = re.compile(r"^round=\d+ s=-?\d+/\d+ \|S\|=\d+ \|I\|=\d+ shifts=\d+$")
    for line in run.trace:
        assert pat.match(line), line


def test_acceleration_answer_is_certified(tampered_duals):
    g = corpus.single_edge()
    with pytest.raises(InternalInvariantError, match="surplus-acceleration LP not certified"):
        bargain._prekernel_run(g, {"u": F(1), "v": F(0)})
