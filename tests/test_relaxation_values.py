"""The rounding's relaxation values against independent references.

At every rounding node the value the pipeline certified must equal the
one `flowrelax` finds with networkx cuts by its own search, on bipartite
instances and doubled hosts of 20-40 vertices.
"""

import random
from itertools import count

import networkx as nx
import pytest

from netbargain import blockset, matching, oracle
from netbargain.graphcore import Graph

import flowrelax


def _recording(monkeypatch) -> list:
    """Every (instance, value) the rounding answers from now on."""
    answered = []
    solve = blockset.solve_gbs_lp

    def recording(inst):
        ep = solve(inst)
        answered.append((inst, ep.objective))
        return ep

    monkeypatch.setattr(blockset, "solve_gbs_lp", recording)
    return answered


def _bipartite_instance(seed: int) -> blockset.GbsInstance:
    """A connected-ish bipartite graph with a third of its edges
    protected and a budget between their matching number and its own."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    names = [f"v{i:02d}" for i in range(n)]
    left, right = names[: n // 2], names[n // 2:]
    edges = {(rng.choice(left), rng.choice(right)) for _ in range(int(1.6 * n))}
    g = Graph.build(edges, names)
    e2 = tuple([e for e in g.edges if rng.random() < 1 / 3])
    e1 = tuple([e for e in g.edges if e not in e2])
    low = len(nx.max_weight_matching(nx.Graph(e2), maxcardinality=True))
    return blockset.GbsInstance(g, e1, e2, rng.randint(low, max(low, matching.matching_number(g) - 1)))


def _check_every_node(answered: list) -> None:
    assert answered
    for inst, value in answered:
        got = flowrelax.relaxation_value(inst.graph.vertices, inst.e1, inst.e2, inst.nu)
        assert got == value, (inst, got, value)


@pytest.mark.parametrize("seed", range(6))
def test_bipartite_node_values_match_networkx_cuts(monkeypatch, seed):
    inst = _bipartite_instance(seed)
    answered = _recording(monkeypatch)
    blockset.stabilize_instance(inst)
    _check_every_node(answered)


def _unstable_sparse_graph(index: int) -> Graph:
    """The index-th graph, over seeds 0, 1, ..., of 10-20 vertices and
    twice as many edges whose core is empty: its host has 20-40 vertices."""
    for seed in count():
        n = random.Random(seed).randint(10, 20)
        g = oracle.gen_sparse(n, 3, seed, n_edges=2 * n)
        if matching.core_status(g).status == "empty":
            if index == 0:
                return g
            index -= 1


@pytest.mark.parametrize("index", range(6))
def test_doubled_host_node_values_match_networkx_cuts(monkeypatch, index):
    g = _unstable_sparse_graph(index)
    answered = _recording(monkeypatch)
    blockset.stabilize(g)
    _check_every_node(answered)
