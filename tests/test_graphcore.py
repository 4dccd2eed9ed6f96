import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netbargain import cli
from netbargain import graphcore as gc
from netbargain.errors import InputError, InternalInvariantError, PreconditionError

import corpus
import densitybrute


def names(n):
    return [f"n{i}" for i in range(n)]


@st.composite
def random_graphs(draw, max_n=8, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    vs = names(n)
    pairs = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
    picked = [p for p in pairs if draw(st.booleans())]
    return gc.Graph.build(picked, vs)


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    g = gc.parse_edge_list("a b\nb c")
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("b", "c"))


def test_parse_dedup():
    g = gc.parse_edge_list("a b\na b")
    assert g.edges == (("a", "b"),)


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(InputError, match="line 1"):
        gc.parse_edge_list("a a")


def test_parse_malformed_line():
    with pytest.raises(InputError, match="line 2"):
        gc.parse_edge_list("a b\na b c")


def test_parse_comments_and_blanks():
    g = gc.parse_edge_list("# header\n\na b\n  # trailing comment line\n")
    assert g.edges == (("a", "b"),)


def test_parse_empty_file():
    g = gc.parse_edge_list("")
    assert g.n == 0 and g.m == 0


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(g):
    # isolated vertices are not representable in edge-list text
    again = gc.parse_edge_list(gc.edge_list_text(g))
    assert again.edges == g.edges
    assert set(again.vertices) == {v for e in g.edges for v in e}


# names without whitespace, some of them starting with the comment mark "#"
vertex_names = st.text(st.characters(blacklist_categories=("Z", "C")) | st.just("#"), min_size=1, max_size=4)


@given(st.lists(st.tuples(vertex_names, vertex_names).filter(lambda e: e[0] != e[1]), max_size=8))
@example([("a", "#b")])
@settings(max_examples=100, deadline=None)
def test_edge_list_text_round_trips_every_accepted_graph(edges):
    # written as "#b a", an edge a-#b would read back as a comment line
    if any(v.startswith("#") for e in edges for v in e):
        with pytest.raises(InputError, match="invalid vertex name"):
            gc.Graph.build(edges)
        return
    g = gc.Graph.build(edges)
    again = gc.parse_edge_list(gc.edge_list_text(g))
    assert (again.vertices, again.edges) == (g.vertices, g.edges)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(g):
    obj = {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}
    assert gc.graph_from_json_obj(obj) == g


def test_dot_export_marks_blocking_dashed():
    g = corpus.k3()
    dot = gc.to_dot(g, dashed_edges=[("b", "c")])
    assert '"b" -- "c" [style=dashed];' in dot
    assert '"a" -- "b";' in dot
    assert dot == gc.to_dot(g, dashed_edges=[("c", "b")])


# -- sparsity ---------------------------------------------------------------


def test_sparsity_k3():
    sp = gc.compute_sparsity(corpus.k3())
    assert sp.omega == 1 and sp.density == 1


def test_sparsity_k4():
    sp = gc.compute_sparsity(corpus.k4())
    assert sp.omega == Fraction(3, 2)
    assert sp.witness is not None and len(sp.witness) == 4


def test_sparsity_single_edge_clamped():
    sp = gc.compute_sparsity(corpus.single_edge())
    assert sp.density == Fraction(1, 2)
    assert sp.omega == 1


def test_sparsity_empty_graph():
    assert gc.compute_sparsity(gc.Graph.build()).omega == 1


def test_sparsity_witness_density_matches():
    for g in (corpus.k4(), corpus.petersen(), corpus.c5()):
        sp = gc.compute_sparsity(g)
        assert Fraction(g.induced_edge_count(sp.witness), len(sp.witness)) == sp.density


@given(random_graphs(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_sparsity_bounds_every_subset(g, data):
    sp = gc.compute_sparsity(g)
    subset = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    assert g.induced_edge_count(subset) <= sp.omega * len(subset)


@given(random_graphs(min_n=0, max_n=12))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_flow_path_agrees_with_enumeration(g):
    sp = gc.compute_sparsity(g)
    assert sp.density == densitybrute.max_density(g)
    assert sp.omega == max(Fraction(1), sp.density)
    if g.m == 0:
        assert sp.witness is None
    else:
        assert Fraction(g.induced_edge_count(sp.witness), len(sp.witness)) == sp.density


def test_flow_path_on_larger_graph():
    # K5 block plus a 19-vertex tail: the search must improve on the whole
    # graph's density 29/24 and settle on the K5 at density 2
    vs = [f"k{i}" for i in range(5)]
    edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    tail = ["k0"] + [f"t{i:02d}" for i in range(19)]
    edges += list(zip(tail, tail[1:]))
    g = gc.Graph.build(edges)
    assert g.n == 24
    sp = gc.compute_sparsity(g)
    assert sp.density == 2
    assert set(sp.witness) == set(vs)


def test_density_search_without_progress_is_an_invariant_violation(monkeypatch, capsys, tmp_path):
    # a cut that returns the whole graph does not improve its density
    monkeypatch.setattr(gc, "_density_improvement", lambda g, guess: g.vertices)
    with pytest.raises(InternalInvariantError, match="failed to improve"):
        gc.compute_sparsity(corpus.k3())
    path = tmp_path / "k3.txt"
    path.write_text("a b\nb c\na c\n")
    assert cli.main(["analyze", str(path)]) == 2
    assert "internal invariant violation" in capsys.readouterr().err


def test_flow_path_on_long_path_needs_no_recursion():
    # the augmenting path runs the whole 2001-vertex path: far past the
    # recursion limit of a recursive depth-first search
    names = [f"p{i:04d}" for i in range(2001)]
    g = gc.Graph.build(list(zip(names, names[1:])))
    assert gc.compute_sparsity(g).density == Fraction(2000, 2001)


@st.composite
def flow_networks(draw):
    """Up to 7 nodes; each arc has its own forward and reverse capacity."""
    n = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    cap = st.integers(min_value=0, max_value=5)
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        u, v = draw(node), draw(node)
        if u != v:
            arcs.append((u, v, draw(cap), draw(cap)))
    return n, arcs


# random networks almost never need flow sent back along an arc, so one that
# does is given: the first shortest path 0-1-3-5 must be undone via 3->1
@given(flow_networks())
@example((6, [(0, 1, 1, 0), (0, 2, 1, 0), (1, 3, 1, 0), (1, 4, 1, 0),
              (2, 3, 1, 0), (3, 5, 1, 0), (4, 5, 1, 0)]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_min_cut_agrees_with_cut_enumeration(network):
    n, arcs = network
    s, t = 0, n - 1
    cuts = {}
    for mask in range(1 << n):
        side = frozenset(i for i in range(n) if mask >> i & 1)
        if s in side and t not in side:
            cuts[side] = sum(
                cap if u in side else back_cap
                for u, v, cap, back_cap in arcs
                if (u in side) != (v in side)
            )
    least = min(cuts.values())
    flow, side, _ = gc._min_cut(n, arcs, s, t)
    assert flow == least
    # the minimal minimum cut: the source side that every minimum cut contains
    assert side == frozenset.intersection(*(c for c, value in cuts.items() if value == least))


@given(flow_networks())
@example((6, [(0, 1, 1, 0), (0, 2, 1, 0), (1, 3, 1, 0), (1, 4, 1, 0),
              (2, 3, 1, 0), (3, 5, 1, 0), (4, 5, 1, 0)]))
@example((4, [(0, 1, 2, 0), (1, 2, 1, 1), (2, 1, 3, 0), (0, 2, 1, 0), (1, 3, 5, 0), (2, 3, 2, 0)]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_min_cut_arc_flows_are_a_maximum_flow(network):
    n, arcs = network
    s, t = 0, n - 1
    flow, side, flows = gc._min_cut(n, arcs, s, t)
    assert len(flows) == len(arcs)
    net = [0] * n
    for (u, v, cap, back_cap), f in zip(arcs, flows):
        assert -back_cap <= f <= cap
        net[u] -= f
        net[v] += f
    # conserved at every node but the source and the sink, and as much as the flow value
    assert all(net[i] == 0 for i in range(n) if i not in (s, t))
    assert net[t] == flow == -net[s]
    # and as much as the capacity of the returned cut
    assert flow == sum(
        cap if u in side else back_cap for u, v, cap, back_cap in arcs if (u in side) != (v in side)
    )


def test_sparsity_is_unchanged_on_the_corpus():
    # density and witness of every acceptance-corpus graph and a few fixtures,
    # pinned by digest: `gen sparse` samples by sparsity, so a moved witness
    # or density would move every generated input
    graphs = [corpus.corpus_graph(seed) for seed in corpus.CORPUS_SEEDS]
    graphs += [corpus.petersen(), corpus.k4(), corpus.c5(), corpus.two_cover_tree()]
    h = hashlib.sha256()
    for g in graphs:
        sp = gc.compute_sparsity(g)
        h.update(f"{sp.density} {sp.witness}\n".encode())
    assert h.hexdigest() == "903d57ea8b5f657a698ad328928f82bee0e81d55d5846c804e4e2f38ae74b731"


def test_uncovered_edge_finds_first_bare_edge():
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    x = {"a": Fraction(1), "b": Fraction(0), "c": Fraction(1, 2), "d": Fraction(1, 3)}
    assert gc.uncovered_edge(edges, x) == ("b", "c")
    x["c"] = Fraction(1)
    assert gc.uncovered_edge(edges, x) is None
    assert gc.uncovered_edge([], {}) is None


# -- bipartiteness and doubling ---------------------------------------------


def test_is_bipartite_examples():
    assert gc.is_bipartite(corpus.c4()) is not None
    assert gc.is_bipartite(corpus.k3()) is None
    assert gc.is_bipartite(gc.Graph.build()) is not None


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_bipartite_coloring_valid(g):
    coloring = gc.is_bipartite(g)
    if coloring is not None:
        assert all(coloring[u] != coloring[v] for u, v in g.edges)


def test_double_k3_is_six_cycle():
    d = gc.bipartite_double(corpus.k3())
    host = d.host
    assert host.n == 6 and host.m == 6
    assert all(host.degree(v) == 2 for v in host.vertices)
    assert gc.is_bipartite(host) is not None
    # a connected 2-regular bipartite graph on 6 vertices is the 6-cycle
    seen = {host.vertices[0]}
    frontier = [host.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in host.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert len(seen) == 6


def test_double_single_edge_two_disjoint():
    d = gc.bipartite_double(corpus.single_edge())
    assert d.host.m == 2
    assert all(d.host.degree(v) == 1 for v in d.host.vertices)


def test_double_p3_two_paths():
    d = gc.bipartite_double(corpus.p3())
    host = d.host
    assert host.m == 4
    degs = sorted(host.degree(v) for v in host.vertices)
    assert degs == [1, 1, 1, 1, 2, 2]
    b1, b2 = d.side_map["b"]
    assert host.degree(b1) == 2 and host.degree(b2) == 2


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_double_edge_count_and_sparsity(g):
    d = gc.bipartite_double(g)
    assert d.host.m == 2 * g.m
    assert gc.compute_sparsity(d.host).omega <= 2 * gc.compute_sparsity(g).omega


def test_pull_back_symmetric_average():
    d = gc.bipartite_double(corpus.k3())
    half = Fraction(1, 2)
    x_host = {v: half for v in d.host.vertices}
    x, b = gc.pull_back(d, x_host, [])
    assert x == {"a": half, "b": half, "c": half}
    assert b == ()


def test_pull_back_collapses_both_copies():
    d = gc.bipartite_double(corpus.single_edge())
    pair = d.edge_map[("u", "v")]
    x, b = gc.pull_back(d, {v: Fraction(0) for v in d.host.vertices}, list(pair))
    assert b == (("u", "v"),)
    assert len(b) == 1 < 2


def test_pull_back_averages_asymmetric_mass():
    d = gc.bipartite_double(corpus.single_edge())
    u1, u2 = d.side_map["u"]
    x_host = {v: Fraction(0) for v in d.host.vertices}
    x_host[u1] = Fraction(1)
    x, _ = gc.pull_back(d, x_host, [])
    assert x["u"] == Fraction(1, 2)


def test_pull_back_rejects_an_edge_outside_the_host():
    d = gc.bipartite_double(corpus.single_edge())
    with pytest.raises(PreconditionError, match="edges not in host graph"):
        gc.pull_back(d, {}, [("u", "v")])


def test_pull_back_rejects_a_negative_copy():
    d = gc.bipartite_double(corpus.single_edge())
    u1, _ = d.side_map["u"]
    with pytest.raises(PreconditionError, match="negative host allocation"):
        gc.pull_back(d, {u1: Fraction(-1)}, [])


@given(random_graphs(max_n=6), st.data())
@settings(max_examples=40, deadline=None)
def test_pull_back_preserves_feasibility(g, data):
    d = gc.bipartite_double(g)
    vals = data.draw(
        st.lists(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
            min_size=d.host.n,
            max_size=d.host.n,
        )
    )
    x_host = dict(zip(d.host.vertices, vals))
    # block exactly the uncovered host edges: a feasible host pair by construction
    b_host = [e for e in d.host.edges if x_host[e[0]] + x_host[e[1]] < 1]
    x, b = gc.pull_back(d, x_host, b_host)
    b_set = set(b)
    for u, v in g.edges:
        if (u, v) not in b_set:
            assert x[u] + x[v] >= 1
    assert sum(x.values(), Fraction(0)) * 2 == sum(x_host.values(), Fraction(0))
