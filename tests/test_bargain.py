from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from netbargain import bargain, blockset, exactlp, matching, oracle
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
    assert (len(built), out.lp_solves, out.simplex_fallbacks, out.shifts) == (3, 3, 0, 7)
    # the dominance rows of a frozen pair skip its own defining neighbour
    assert sum(c.name.startswith("dominate") for lp in built for c in lp.constraints) == 12
    assert [c.name for lp in built for c in lp.constraints if not c.coeffs] == []


def test_delta_lp_writes_each_dominance_row_once(monkeypatch):
    built = []
    build = bargain.build_delta_lp

    def recording(st):
        built.append(build(st))
        return built[-1]

    monkeypatch.setattr(bargain, "build_delta_lp", recording)
    for seed in range(24):
        g = corpus.corpus_graph(seed)
        bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))
    g = corpus.random_tree(10, 12)
    bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))
    assert any(c.name.startswith("dominate") for lp in built for c in lp.constraints)
    for lp in built:
        rows = [tuple(sorted(c.coeffs.items())) for c in lp.constraints if c.name.startswith("dominate")]
        assert len(rows) == len(set(rows))
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
        run = bargain._prekernel_run(gprime, x0, matching.max_matching(gprime).edges)
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


def test_outcomes_verify_on_random_corpus(monkeypatch):
    answered = []
    cycle_answer = bargain._cycle_answer

    def recording(lp, m):
        answered.append((lp, cycle_answer(lp, m)))
        return answered[-1][1]

    monkeypatch.setattr(bargain, "_cycle_answer", recording)
    for seed in range(24, 48):
        g = corpus.corpus_graph(seed)
        result = blockset.stabilize(g)
        before = len(answered)
        out = bargain.balanced_outcome(g, result, matching.matching_number(g))
        gprime = g.without_edges(result.blocking_set)
        assert verify_outcome(gprime, matching.matching_number(g), out) == [], seed
        assert out.simplex_fallbacks == sum(a is None for _, a in answered[before:])
    # the exact simplex, the cycle's fallback, as a reference on every LP
    cycles = [(lp, a) for lp, a in answered if a is not None]
    assert cycles
    for lp, a in cycles:
        assert a.values["delta"] == exactlp.solve(lp).objective
    print(f"\n{len(cycles)} acceleration LPs answered by the cycle, {len(answered) - len(cycles)} by the simplex")


def test_trace_line_format():
    g = corpus.single_edge()
    run = bargain._prekernel_run(g, {"u": F(1), "v": F(0)}, (("u", "v"),))
    assert run.trace
    import re

    pat = re.compile(r"^round=\d+ s=-?\d+/\d+ \|S\|=\d+ \|I\|=\d+ shifts=\d+$")
    for line in run.trace:
        assert pat.match(line), line


def test_acceleration_answer_is_certified(monkeypatch):
    g = corpus.single_edge()
    assert bargain._prekernel_run(g, {"u": F(1), "v": F(0)}, (("u", "v"),)).simplex_fallbacks == 0
    cycle_answer = bargain._cycle_answer

    def moved_point(s):
        return replace(s, values={**s.values, "y u": s.values["y u"] + F(1, 7)})

    def moved_dual(s):
        return replace(s, duals=(s.duals[0] + F(1, 7),) + s.duals[1:])

    for tamper in (moved_point, moved_dual):
        monkeypatch.setattr(bargain, "_cycle_answer", lambda lp, m: tamper(cycle_answer(lp, m)))
        with pytest.raises(InternalInvariantError, match="surplus-acceleration LP not certified"):
            bargain._prekernel_run(g, {"u": F(1), "v": F(0)}, (("u", "v"),))


def _balance_matching_shrinker():
    g = corpus.matching_shrinker()
    result = blockset.stabilize(g)
    assert len(result.blocking_set) == 4
    assert matching.matching_number(g.without_edges(result.blocking_set)) == 3
    return bargain.balanced_outcome(g, result, matching.matching_number(g))


def test_fallback_answer_is_certified(tampered_duals):
    with pytest.raises(InternalInvariantError, match="surplus-acceleration LP not certified"):
        _balance_matching_shrinker()


def test_total_above_the_residual_matching_number_falls_back_to_the_simplex():
    # the allocation totals 4 on a residual graph with matching number 3, so
    # the matched cover rows need not be tight.  The balanced allocation
    # pays some matched edges more than 1, a known fault, so it is not pinned
    assert _balance_matching_shrinker().simplex_fallbacks >= 1
