"""Independent brute-force ground truth and instance generators.

The answers share no algorithmic code with the main pipeline, so they can
serve as test oracles: fractional covers and their witnesses come from a
Hopcroft-Karp matching of a local two-copy graph, blocking sets from subset
enumeration.  Only `gen_sparse` (`compute_sparsity`) calls into the pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import InputError, InternalInvariantError, PreconditionError
from .graphcore import Edge, Graph, compute_sparsity, edge_key

#: size caps, checked before anything is built: gen_gap makes 2n^2
#: protected edges, gen_sparse draws from all n(n-1)/2 vertex pairs, and
#: brute_min_blocking_set tries every candidate set up to its size cutoff
MAX_GAP_N = 100
MAX_SPARSE_N = 1000
MAX_ENUMERATED_SETS = 2**20
#: edge sets gen_sparse draws before it gives up on the sparsity target
SPARSE_TRIES = 200


# ---------------------------------------------------------------------------
# worst-case family: constant relaxation value, growing integral optimum


@dataclass(frozen=True)
class GapInstance:
    """Layered instance whose relaxation stays at 8 while the true optimum grows.

    n hub vertices are fully joined to 2n mid vertices by protected
    edges; each mid vertex owns 4 private leaves via droppable edges;
    the budget is 2n - 1.
    """

    n: int
    graph: Graph
    e1: tuple[Edge, ...]
    e2: tuple[Edge, ...]
    nu: int


def gen_gap(n: int) -> GapInstance:
    if not isinstance(n, int) or n < 1:
        raise InputError(f"gap family needs a positive size, got {n!r}")
    if n > MAX_GAP_N:
        raise InputError(f"gap family size {n} exceeds the cap of {MAX_GAP_N}")
    m = 2 * n
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{j}" for j in range(1, m + 1)]
    e2 = [edge_key(a, b) for a in xs for b in ys]
    e1 = []
    for y in ys:
        for k in range(1, 5):
            e1.append(edge_key(y, f"o_{y}_{k}"))
    graph = Graph.build(e1 + e2)
    return GapInstance(n, graph, tuple(sorted(e1)), tuple(sorted(e2)), 2 * n - 1)


# ---------------------------------------------------------------------------
# random sparse graphs


def gen_sparse(
    n: int,
    omega_target: Fraction | int,
    seed: int,
    n_edges: int | None = None,
) -> Graph:
    """Random graph with certified sparsity at most omega_target.

    Rejection sampling: draw an edge set of the requested size, keep it
    iff its exact sparsity fits.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    if n > MAX_SPARSE_N:
        raise InputError(f"{n} vertices exceed the cap of {MAX_SPARSE_N}")
    target = Fraction(omega_target)
    if target < 1:
        raise InputError("sparsity target must be at least 1")
    if n_edges is not None and n_edges < 0:
        raise InputError(f"edge count must be nonnegative, got {n_edges}")
    names = [f"v{i:02d}" for i in range(n)]
    pool = [edge_key(a, b) for a, b in combinations(names, 2)]
    want = min(len(pool), int(target * n)) if n_edges is None else min(n_edges, len(pool))
    rng = random.Random(seed)
    for _ in range(SPARSE_TRIES):
        edges = rng.sample(pool, want)
        g = Graph.build(edges, names)
        if compute_sparsity(g).omega <= target:
            return g
    raise InputError(
        f"could not sample a graph with sparsity <= {target} in {SPARSE_TRIES} tries"
    )


# ---------------------------------------------------------------------------
# blocking sets by enumeration


def _augmenting_matching(adj: dict[str, list[str]], left: list[str]) -> tuple[dict[str, str], set[str]]:
    """Maximum matching of a bipartite adjacency, by Hopcroft-Karp.

    Each phase layers the left vertices by a breadth-first search from the
    exposed ones, up to the length of a shortest augmenting path, then
    augments along vertex-disjoint shortest paths.  Their depth-first
    searches keep the path on an explicit stack, so that no path length
    meets the recursion limit.  O(m sqrt(n)) in all.  Returns the matching,
    left to right, and the left vertices that the last, failed search reached.
    """
    mate_l: dict[str, str] = {}
    mate_r: dict[str, str] = {}
    while True:
        roots = [u for u in left if u not in mate_l]
        layer = dict.fromkeys(roots, 0)
        queue = list(roots)
        last = -1  # the layer whose vertices see an exposed right vertex
        for u in queue:
            d = layer[u]
            if last >= 0 and d > last:
                break
            for w in adj[u]:
                x = mate_r.get(w)
                if x is None:
                    last = d
                elif last < 0 and x not in layer:
                    layer[x] = d + 1
                    queue.append(x)
        if last < 0:
            return mate_l, set(layer)
        for root in roots:
            # stack[i] is a left vertex and its untried neighbours; path[i] the
            # right vertex taken from it, matched to stack[i + 1]
            stack = [(root, iter(adj[root]))]
            path: list[str] = []
            while stack:
                u, untried = stack[-1]
                d = layer[u]
                for w in untried:
                    x = mate_r.get(w)
                    if (d == last) if x is None else (d < last and layer.get(x) == d + 1):
                        break
                else:
                    layer[u] = -1  # no shortest path through u in this phase
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                path.append(w)
                if x is None:
                    for (v, _), r in zip(stack, path):
                        mate_l[v] = r
                        mate_r[r] = v
                    break
                stack.append((x, iter(adj[x])))


def _two_copy(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, list[str]]:
    """Left copies v/L to their sorted right copies: edge uv gives arcs u/L-v/R and v/L-u/R."""
    adj: dict[str, list[str]] = {f"{v}/L": [] for v in sorted(set(vertices))}
    for u, v in edges:
        adj[f"{u}/L"].append(f"{v}/R")
        adj[f"{v}/L"].append(f"{u}/R")
    return {u: sorted(ws) for u, ws in adj.items()}


def fractional_cover_value(vertices: Iterable[str], edges: Iterable[Edge]) -> Fraction:
    """Smallest total of a fractional cover putting weight >= 1 on every edge.

    Computed combinatorially as half the matching number of the local
    two-copy graph; no LP involved.
    """
    adj = _two_copy(vertices, edges)
    return Fraction(len(_augmenting_matching(adj, list(adj))[0]), 2)


def fractional_cover(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, Fraction]:
    """A smallest fractional cover, x_v = |C & {v/L, v/R}| / 2 for a König cover C.

    C is the left copies that the last search of the two-copy matching M did
    not reach plus the right neighbours of those it did.  C covers every arc
    and |C| = |M|, which proves both optimal; all three facts are checked.
    """
    adj = _two_copy(vertices, edges)
    mate_l, reached = _augmenting_matching(adj, list(adj))
    if any(r not in adj[u] for u, r in mate_l.items()) or len(set(mate_l.values())) < len(mate_l):
        raise InternalInvariantError("two-copy matching is not a matching of its arcs")
    cover = {u for u in adj if u not in reached} | {w for u in reached for w in adj[u]}
    if bare := next(((u, w) for u in adj for w in adj[u] if u not in cover and w not in cover), None):
        raise InternalInvariantError(f"König cover misses the arc {bare[0]}-{bare[1]}")
    if len(cover) != len(mate_l):
        raise InternalInvariantError(f"König cover has {len(cover)} copies for {len(mate_l)} matched")
    return {u[:-2]: Fraction((u in cover) + (u[:-1] + "R" in cover), 2) for u in adj}


def blocking_feasible(g: Graph, blocked: Iterable[Edge], nu: int) -> bool:
    """Can the unblocked edges be covered within the budget?"""
    drop = {edge_key(*e) for e in blocked}
    remaining = [e for e in g.edges if e not in drop]
    return fractional_cover_value(g.vertices, remaining) <= nu


@dataclass(frozen=True)
class BruteForceResult:
    found: bool
    blocking_set: tuple[Edge, ...] | None
    witness: dict[str, Fraction] | None
    candidates_checked: int


def brute_min_blocking_set(
    g: Graph,
    nu: int,
    max_size: int | None = None,
    blockable: Iterable[Edge] | None = None,
) -> BruteForceResult:
    """Smallest blocking set by enumeration, ascending in cardinality.

    Ties break lexicographically on the sorted edge tuple.  `blockable`
    restricts which edges may enter the set (defaults to all).  Returns
    found=False when nothing within `max_size` works.  Raises InputError
    when there are more than MAX_ENUMERATED_SETS candidate sets.
    """
    pool = sorted(
        {edge_key(*e) for e in (g.edges if blockable is None else blockable)}
    )
    if any(e not in g.edge_set for e in pool):
        raise PreconditionError("blockable edges must belong to the graph")
    cap = len(pool) if max_size is None else min(max_size, len(pool))
    sets = sum(comb(len(pool), k) for k in range(cap + 1))
    if sets > MAX_ENUMERATED_SETS:
        raise InputError(
            f"{sets} candidate sets of at most {cap} of {len(pool)} edges exceed the "
            f"enumeration limit of {MAX_ENUMERATED_SETS}; lower the size cutoff"
        )
    checked = 0
    for k in range(cap + 1):
        for combo in combinations(pool, k):
            checked += 1
            if blocking_feasible(g, combo, nu):
                witness = fractional_cover(g.vertices, [e for e in g.edges if e not in combo])
                if sum(witness.values(), Fraction(0)) > nu:
                    raise InternalInvariantError(f"cover witness exceeds nu = {nu}")
                return BruteForceResult(True, combo, witness, checked)
    return BruteForceResult(False, None, None, checked)
