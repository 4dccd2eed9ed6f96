"""Maximum matchings, the induced cooperative game, and stable allocations.

The matching routine is an unweighted blossom search (BFS alternating
forest with cycle contraction), exact on general graphs.  Stability
analysis cross-checks three equivalent emptiness criteria and refuses to
return if they ever disagree.  Neither verdict solves an LP: an empty
core is proven by a fractional matching above the matching number, and a
nonempty one by a stable allocation read off the Gallai-Edmonds
decomposition that the blossom search already returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, PreconditionError
from .graphcore import Edge, Graph, edge_key, uncovered_edge


@dataclass(frozen=True)
class Matching:
    edges: tuple[Edge, ...]
    exposed: tuple[str, ...]
    inessential: tuple[str, ...]  # exposed by some maximum matching

    @property
    def size(self) -> int:
        return len(self.edges)


def _blossom(n: int, adj: list[list[int]]) -> tuple[list[int], set[int]]:
    """Maximum matching on vertices 0..n-1: the mate array, and the vertices that
    an even alternating path reaches from an exposed vertex.  By Gallai-Edmonds
    these are exactly the vertices that some maximum matching exposes."""
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    used: list[bool] = []

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        nonlocal p, base, used
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # even-level meeting point: contract the blossom
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_path(v)
            while end != -1:
                pv = p[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv

    # with no augmenting path left, a search marks exactly its even-reachable vertices
    even: set[int] = set()
    for root in (v for v in range(n) if match[v] == -1):
        if find_path(root) != -1:
            raise InternalInvariantError("augmenting path left after the last augmentation")
        even.update(i for i in range(n) if used[i])
    return match, even


def _adjacency(g: Graph) -> list[list[int]]:
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: list[list[int]] = [[] for _ in g.vertices]
    for u, v in g.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for lst in adj:
        lst.sort()
    return adj


def max_matching(g: Graph) -> Matching:
    """Maximum cardinality matching; deterministic for a fixed graph."""
    mate, even = _blossom(g.n, _adjacency(g))
    edges = sorted(
        edge_key(g.vertices[i], g.vertices[j])
        for i, j in enumerate(mate)
        if j != -1 and i < j
    )
    exposed = tuple([v for i, v in enumerate(g.vertices) if mate[i] == -1])
    inessential = tuple([v for i, v in enumerate(g.vertices) if i in even])
    return Matching(tuple(edges), exposed, inessential)


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def fractional_matching(g: Graph) -> dict[Edge, Fraction]:
    """A maximum fractional matching, half-integral as Balinski shows.

    Each edge gets half the number of its copies in a maximum matching of
    the bipartite double cover, where vertex i becomes i and n + i, and
    edge ij is (i, n + j) and (j, n + i)."""
    n = g.n
    adj = _adjacency(g)
    mate, _ = _blossom(2 * n, [[n + j for j in nbrs] for nbrs in adj] + adj)
    index = {v: i for i, v in enumerate(g.vertices)}
    y = {}
    for u, v in g.edges:
        i, j = index[u], index[v]
        y[(u, v)] = Fraction((mate[i] == n + j) + (mate[j] == n + i), 2)
    return y


def fractional_matching_value(g: Graph) -> Fraction:
    """Optimum of the degree-constrained fractional matching relaxation."""
    return sum(fractional_matching(g).values(), Fraction(0))


@dataclass(frozen=True)
class CoreReport:
    """Stability diagnosis of the matching game on a graph.

    The three criteria (integral vs fractional matching value, absence
    of an edge between two inessential vertices, a stable allocation of
    nu) are all computed and must agree.  An empty core is certified by
    a fractional matching of value above nu, a nonempty one by the
    Gallai-Edmonds witness allocation.
    """

    nu: int
    fractional_value: Fraction
    inessential: tuple[str, ...]
    status: str  # "nonempty" | "empty"
    witness_allocation: dict[str, Fraction] | None
    offending_edge: Edge | None


def _gallai_edmonds_witness(g: Graph, inessential: tuple[str, ...]) -> dict[str, Fraction]:
    """x = 0 on D, the inessential vertices, 1 on A, their neighbours outside
    D, and 1/2 on the rest C: a stable allocation of nu when D is independent.

    By Gallai-Edmonds nu = (|V| - c(D) + |A|) / 2, where c(D) counts the
    components of G[D].  D independent gives c(D) = |D|, so nu = |A| + |C|/2,
    the total of x.  No edge lies in D or joins D to C, A's 1 covers each
    edge at A, and an edge inside C gets 1/2 + 1/2.  This holds on bipartite
    and non-bipartite graphs alike.
    """
    d = set(inessential)
    a = {w for e in g.edges if d.intersection(e) for w in e} - d
    return {v: Fraction(0 if v in d else 2 if v in a else 1, 2) for v in g.vertices}


def stable_allocation(g: Graph) -> dict[str, Fraction]:
    """The Gallai-Edmonds witness of `core_status`: a nonnegative allocation
    of the matching number with every edge covered.

    Raises PreconditionError when no such allocation exists.
    """
    x = core_status(g).witness_allocation
    if x is None:
        raise PreconditionError("no stable allocation exists for this graph")
    return x


def core_status(g: Graph) -> CoreReport:
    """Diagnose the core with no LP: an empty verdict is certified by a
    fractional matching above nu, a nonempty one by the Gallai-Edmonds
    witness, checked as a stable allocation of nu."""
    m = max_matching(g)
    nu, iness = m.size, m.inessential
    y = fractional_matching(g)
    frac = sum(y.values(), Fraction(0))
    iness_set = set(iness)
    offending = next(
        (e for e in g.edges if e[0] in iness_set and e[1] in iness_set), None
    )
    if frac > nu:
        _assert_fractional_matching(g, y)
        witness = None
    else:
        witness = _gallai_edmonds_witness(g, iness)

    by_fractional_gap = frac == nu
    by_adjacency = offending is None
    feasible = witness is not None
    if not (by_fractional_gap == by_adjacency == feasible):
        raise InternalInvariantError(
            "stability criteria disagree: "
            f"fractional-gap={by_fractional_gap} adjacency={by_adjacency} feasible={feasible}"
        )

    if feasible:
        assert_stable(g, nu, witness)
        return CoreReport(nu, frac, iness, "nonempty", witness, None)
    return CoreReport(nu, frac, iness, "empty", None, offending)


def _assert_fractional_matching(g: Graph, y: dict[Edge, Fraction]) -> None:
    """Check y as a fractional matching of g.

    Then sum(y) <= sum over edges uv of y_uv (x_u + x_v) <= sum(x) for
    every allocation x that covers each edge, so y above nu proves that
    no stable allocation of nu exists (Farkas).
    """
    load = dict.fromkeys(g.vertices, Fraction(0))
    for (u, v), val in y.items():
        if (u, v) not in g.edge_set or val < 0:
            raise InternalInvariantError(f"fractional matching puts {val} on {u}-{v}")
        load[u] += val
        load[v] += val
    for v, total in load.items():
        if total > 1:
            raise InternalInvariantError(f"fractional matching overloads {v}: {total}")


def assert_stable(g: Graph, nu: int, x: dict[str, Fraction]) -> None:
    """Check x as a nonnegative allocation of exactly nu on g's vertices that
    covers every edge: a witness that the core of g is nonempty."""
    if set(x) != set(g.vertices):
        raise InternalInvariantError("witness does not allocate exactly the graph's vertices")
    total = sum(x.values(), Fraction(0))
    if total != nu:
        raise InternalInvariantError(f"witness total {total} != {nu}")
    bare = uncovered_edge(g.edges, x)
    if bare is not None:
        raise InternalInvariantError(f"witness uncovered edge {bare[0]}-{bare[1]}")
    if any(val < 0 for val in x.values()):
        raise InternalInvariantError("negative witness entry")
