from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from netbargain import matching, oracle
from netbargain.errors import PreconditionError
from netbargain.graphcore import Graph

import corpus
import matchbrute


def test_max_matching_small_cases():
    assert matching.max_matching(corpus.k3()).size == 1
    assert matching.max_matching(corpus.c4()).size == 2
    assert matching.max_matching(corpus.single_edge()).size == 1
    assert matching.max_matching(Graph.build()).size == 0


def test_max_matching_petersen():
    assert matching.max_matching(corpus.petersen()).size == 5
    assert oracle.brute_max_matching(corpus.petersen()) == 5


def test_matching_is_valid_and_exposed_consistent():
    m = matching.max_matching(corpus.petersen())
    used = [v for e in m.edges for v in e]
    assert len(used) == len(set(used))
    assert set(m.exposed) == set(corpus.petersen().vertices) - set(used)


def test_blossom_agrees_with_brute_force_on_200_seeds():
    for seed in range(200):
        n = 3 + seed % 10  # up to 12 vertices
        g = oracle.gen_sparse(n, 3, seed=seed, n_edges=min(14, n + seed % 4))
        assert matching.max_matching(g).size == oracle.brute_max_matching(g), seed


def test_inessential_p3():
    assert matching.inessential_vertices(corpus.p3()) == ("a", "c")


def test_inessential_k3_all():
    assert matching.inessential_vertices(corpus.k3()) == ("a", "b", "c")


def test_inessential_single_edge_none():
    assert matching.inessential_vertices(corpus.single_edge()) == ()


def _assert_diagnosis_matches_oracles(g):
    assert matching.inessential_vertices(g) == matchbrute.inessential_by_deletion(g)
    frac = matching.fractional_matching_value(g)
    assert frac == matchbrute.fractional_matching_lp(g)
    assert frac == oracle.fractional_cover_value(g.vertices, g.edges)  # LP duality


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 10))
    names = [f"v{i}" for i in range(n)]
    density = draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
    pairs = list(combinations(names, 2))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build([e for e, r in zip(pairs, keep) if r < density], names)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graphs())
def test_diagnosis_matches_oracles_on_small_graphs(g):
    _assert_diagnosis_matches_oracles(g)


@pytest.mark.parametrize(
    "build, inessential, frac",
    [
        (corpus.petersen, (), Fraction(5)),  # a perfect matching exists
        (corpus.c5, ("a", "b", "c", "d", "e"), Fraction(5, 2)),  # factor-critical
    ],
)
def test_diagnosis_matches_oracles_on_fixed_graphs(build, inessential, frac):
    g = build()
    _assert_diagnosis_matches_oracles(g)
    assert matching.inessential_vertices(g) == inessential
    assert matching.fractional_matching_value(g) == frac


def test_core_k3_empty():
    report = matching.core_status(corpus.k3())
    assert report.status == "empty"
    assert report.nu == 1
    assert report.fractional_value == Fraction(3, 2)
    assert report.offending_edge == ("a", "b")
    assert report.witness_allocation is None


def test_core_p3_nonempty_unique_witness():
    report = matching.core_status(corpus.p3())
    assert report.status == "nonempty"
    assert report.witness_allocation == {
        "a": Fraction(0),
        "b": Fraction(1),
        "c": Fraction(0),
    }


def test_core_single_edge():
    report = matching.core_status(corpus.single_edge())
    assert report.status == "nonempty"
    assert sum(report.witness_allocation.values()) == 1


def test_core_empty_graph_vacuous():
    report = matching.core_status(Graph.build())
    assert report.status == "nonempty"
    assert report.nu == 0


def _assert_stable(g, x, nu):
    assert sum(x.values(), Fraction(0)) == nu
    assert all(val >= 0 for val in x.values())
    for u, v in g.edges:
        assert x[u] + x[v] >= 1


def test_stable_allocation_p3():
    assert matching.stable_allocation(corpus.p3()) == {
        "a": Fraction(0),
        "b": Fraction(1),
        "c": Fraction(0),
    }


def test_stable_allocation_c4():
    g = corpus.c4()
    x = matching.stable_allocation(g)
    _assert_stable(g, x, 2)


def test_stable_allocation_requires_nonempty_core():
    with pytest.raises(PreconditionError):
        matching.stable_allocation(corpus.k3())


def test_stable_allocation_deterministic():
    g = corpus.single_edge()
    assert matching.stable_allocation(g) == matching.stable_allocation(g)
    _assert_stable(g, matching.stable_allocation(g), 1)


def test_core_criteria_agree_across_random_graphs():
    # core_status raises internally if its three criteria ever diverge
    nonempty = empty = 0
    for seed in range(60):
        g = corpus.corpus_graph(seed)
        _assert_diagnosis_matches_oracles(g)
        report = matching.core_status(g)
        if report.status == "nonempty":
            nonempty += 1
            _assert_stable(g, report.witness_allocation, report.nu)
        else:
            empty += 1
            u, v = report.offending_edge
            iness = set(report.inessential)
            assert u in iness and v in iness
            assert report.fractional_value > report.nu
    assert nonempty and empty
