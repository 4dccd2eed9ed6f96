"""Shared fixture graphs and the seeded random corpus used across suites."""

import random

from netbargain.graphcore import Graph
from netbargain.oracle import gen_sparse

CORPUS_SEEDS = range(200)


def k3() -> Graph:
    return Graph.build([("a", "b"), ("a", "c"), ("b", "c")])


def p3() -> Graph:
    return Graph.build([("a", "b"), ("b", "c")])


def p4() -> Graph:
    return Graph.build([("a", "b"), ("b", "c"), ("c", "d")])


def c4() -> Graph:
    return Graph.build([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])


def c5() -> Graph:
    return Graph.build([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])


def single_edge() -> Graph:
    return Graph.build([("u", "v")])


def star(leaves: int) -> Graph:
    return Graph.build([("hub", f"leaf{i}") for i in range(leaves)])


def k4() -> Graph:
    vs = "abcd"
    return Graph.build([(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]])


def petersen() -> Graph:
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return Graph.build(outer + inner + spokes)


def two_cover_tree() -> Graph:
    """A 10-vertex tree whose core witness and whose rounded allocation are
    two different stable covers of total `nu`."""
    return Graph.build([
        ("v05", "v00"), ("v06", "v05"), ("v01", "v06"), ("v08", "v05"), ("v07", "v05"),
        ("v03", "v05"), ("v02", "v06"), ("v04", "v05"), ("v09", "v03"),
    ])


def corpus_graph(seed: int) -> Graph:
    """Seeded sparse graph: n in 4..14, at most 18 edges, sparsity <= 3."""
    n = 4 + (seed % 11)
    m_target = min(18, n + 2 + (seed % 5))
    return gen_sparse(n, 3, seed=seed, n_edges=m_target)


def random_tree(seed: int, n: int) -> Graph:
    """Seeded random tree on t0..t{n-1}: each ti hangs below a random earlier vertex."""
    rng = random.Random(seed)
    return Graph.build([(f"t{i}", f"t{rng.randrange(i)}") for i in range(1, n)])
