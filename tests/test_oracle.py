import ast
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from netbargain import exactlp, oracle
from netbargain.errors import InputError, PreconditionError
from netbargain.graphcore import Graph, compute_sparsity, uncovered_edge

import corpus
from matchbrute import brute_max_matching
from outcomecheck import verify_outcome
from relaxation import gap_fractional_solution

F = Fraction


# -- worst-case family ---------------------------------------------------------


def test_gen_gap_1_shape():
    gap = oracle.gen_gap(1)
    assert gap.graph.n == 11
    assert len(gap.e2) == 2
    assert len(gap.e1) == 8
    assert gap.nu == 1


def test_gen_gap_2_shape():
    gap = oracle.gen_gap(2)
    assert gap.graph.n == 22
    assert len(gap.e2) == 8
    assert len(gap.e1) == 16
    assert gap.nu == 3


def test_gen_gap_rejects_zero():
    with pytest.raises(InputError):
        oracle.gen_gap(0)


def test_gap_leaf_ids_encode_owner():
    gap = oracle.gen_gap(1)
    leaves = [v for v in gap.graph.vertices if v.startswith("o_")]
    assert len(leaves) == 8
    assert all(v.split("_")[1] in ("y1", "y2") for v in leaves)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_fractional_solution_value_eight(n):
    gap = oracle.gen_gap(n)
    x, z = gap_fractional_solution(gap)
    for u, v in gap.e1:
        assert x[u] + x[v] + z[(u, v)] >= 1
    for u, v in gap.e2:
        assert x[u] + x[v] >= 1
    assert sum(x.values(), F(0)) == gap.nu
    assert sum(z.values(), F(0)) == 8


# -- random sparse graphs --------------------------------------------------------


def test_gen_sparse_deterministic():
    a = oracle.gen_sparse(6, 1, seed=7)
    b = oracle.gen_sparse(6, 1, seed=7)
    assert a == b


def test_gen_sparse_meets_target():
    g = oracle.gen_sparse(6, 1, seed=7)
    assert compute_sparsity(g).omega <= 1


def test_gen_sparse_generous_target_always_succeeds():
    g = oracle.gen_sparse(10, 3, seed=0)
    assert compute_sparsity(g).omega <= 3
    assert g.n == 10


# -- exhaustive matching ----------------------------------------------------------


def test_brute_max_matching_values():
    assert brute_max_matching(corpus.k3()) == 1
    assert brute_max_matching(corpus.c4()) == 2
    assert brute_max_matching(corpus.petersen()) == 5


def test_brute_max_matching_size_guard():
    big = Graph.build([(f"a{i}", f"b{i}") for i in range(23)])
    with pytest.raises(PreconditionError):
        brute_max_matching(big)


# -- bipartite matching of the two-copy graph ------------------------------------


@st.composite
def bipartite_adjacencies(draw):
    left = [f"l{i}" for i in range(draw(st.integers(0, 9)))]
    right = [f"r{i}" for i in range(draw(st.integers(0, 9)))]
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    adj = {}
    for u in left:
        keep = draw(st.lists(st.floats(0, 1), min_size=len(right), max_size=len(right)))
        adj[u] = [w for w, r in zip(right, keep) if r < density]
    return adj, left


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bipartite_adjacencies())
def test_augmenting_matching_agrees_with_networkx(case):
    adj, left = case
    g = nx.Graph()
    g.add_nodes_from(left)
    g.add_edges_from((u, w) for u in left for w in adj[u])
    # networkx returns each matched pair in both directions
    nx_matching = nx.bipartite.maximum_matching(g, top_nodes=left)
    mate_l, reached = oracle._augmenting_matching(adj, left)
    assert len(mate_l) == len(nx_matching) // 2
    assert all(r in adj[u] for u, r in mate_l.items())
    assert len(set(mate_l.values())) == len(mate_l)
    # the König cover read off the last search is as small as networkx's
    cover = {u for u in left if u not in reached} | {w for u in reached for w in adj[u]}
    assert all(u in cover or w in cover for u in left for w in adj[u])
    assert len(cover) == len(nx.bipartite.to_vertex_cover(g, nx_matching, top_nodes=left))


# -- blocking set enumeration ------------------------------------------------------


def test_min_blocking_set_k3():
    res = oracle.brute_min_blocking_set(corpus.k3(), 1)
    assert res.found and len(res.blocking_set) == 1
    assert res.blocking_set == (("a", "b"),)  # lexicographically first optimum
    assert sum(res.witness.values(), F(0)) <= 1


def test_min_blocking_set_p3_empty():
    res = oracle.brute_min_blocking_set(corpus.p3(), 1)
    assert res.found and res.blocking_set == ()


def test_min_blocking_set_gap1_restricted():
    gap = oracle.gen_gap(1)
    res = oracle.brute_min_blocking_set(gap.graph, gap.nu, blockable=gap.e1)
    assert res.found and len(res.blocking_set) == 8


def test_min_blocking_set_respects_max_size():
    gap = oracle.gen_gap(1)
    res = oracle.brute_min_blocking_set(gap.graph, gap.nu, max_size=3, blockable=gap.e1)
    assert not res.found
    assert res.blocking_set is None


def test_min_blocking_set_size_guard():
    g = oracle.gen_sparse(10, 3, seed=1, n_edges=21)
    with pytest.raises(InputError):  # 2**21 candidate sets
        oracle.brute_min_blocking_set(g, 3)


def _lp_cover_value(g, blocked):
    names = [f"x {v}" for v in g.vertices]
    lp = exactlp.LpProblem("cover", "min", names)
    lp.set_objective({n: 1 for n in names})
    for u, v in g.edges:
        if (u, v) in blocked:
            continue
        lp.add_constraint({f"x {u}": 1, f"x {v}": 1}, exactlp.GE, 1)
    sol = exactlp.solve(lp)
    assert sol.status == exactlp.OPTIMAL
    return sol.objective


def test_feasibility_agrees_with_lp_on_random_candidates():
    import itertools
    import random

    rng = random.Random(99)
    for seed in range(12):
        g = corpus.corpus_graph(seed)
        nu = brute_max_matching(g) if g.m <= 22 else 3
        for _ in range(8):
            k = rng.randint(0, min(3, g.m))
            blocked = set(rng.sample(list(g.edges), k))
            by_matching = oracle.blocking_feasible(g, blocked, nu)
            lp_value = _lp_cover_value(g, blocked)
            assert by_matching == (lp_value <= nu)
            remaining = [e for e in g.edges if e not in blocked]
            witness = oracle.fractional_cover(g.vertices, remaining)
            assert sum(witness.values(), F(0)) == lp_value
            assert uncovered_edge(remaining, witness) is None


def test_oracle_shares_no_solver_with_the_pipeline():
    # the oracle is ground truth only while it imports no pipeline solver
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("netbargain"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("netbargain")}
    assert imported == {"errors", "graphcore"}


# -- outcome verification -----------------------------------------------------------


def _outcome(matching_edges, allocation):
    return SimpleNamespace(matching=matching_edges, allocation=allocation)


def test_verify_outcome_p4_balanced():
    g = corpus.p4()
    out = _outcome(
        (("a", "b"), ("c", "d")),
        {"a": F(1, 3), "b": F(2, 3), "c": F(2, 3), "d": F(1, 3)},
    )
    assert verify_outcome(g, 2, out) == []


def test_verify_outcome_p4_unbalanced_integral_point():
    g = corpus.p4()
    out = _outcome(
        (("a", "b"), ("c", "d")),
        {"a": F(0), "b": F(1), "c": F(1), "d": F(0)},
    )
    violations = verify_outcome(g, 2, out)
    assert len([v for v in violations if "unbalanced" in v]) == 2


def test_verify_outcome_path_core_point():
    g = corpus.p3()
    out = _outcome((("a", "b"),), {"a": F(0), "b": F(1), "c": F(0)})
    assert verify_outcome(g, 1, out) == []


def test_verify_outcome_flags_budget_and_cover():
    g = corpus.p3()
    out = _outcome((("a", "b"),), {"a": F(2), "b": F(1), "c": F(0)})
    violations = verify_outcome(g, 1, out)
    assert any("exceeds" in v for v in violations)
    out2 = _outcome((("a", "b"),), {"a": F(0), "b": F(0), "c": F(0)})
    violations2 = verify_outcome(g, 1, out2)
    assert any("uncovered" in v for v in violations2)
    assert any("not maximum" in v for v in verify_outcome(g, 1, _outcome((), {"b": F(1)})))
