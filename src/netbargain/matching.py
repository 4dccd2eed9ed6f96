"""Maximum matchings, the induced cooperative game, and stable allocations.

The matching routine is an unweighted blossom search (BFS alternating
forest with cycle contraction), exact on general graphs.  Stability
analysis cross-checks three equivalent emptiness criteria and refuses to
return if they ever disagree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import exactlp
from .errors import InternalInvariantError, PreconditionError
from .graphcore import Edge, Graph, edge_key, uncovered_edge


@dataclass(frozen=True)
class Matching:
    edges: tuple[Edge, ...]
    exposed: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def _blossom(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum cardinality matching on vertices 0..n-1; returns the mate array."""
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

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
        nonlocal p, base
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
    return match


def max_matching(g: Graph) -> Matching:
    """Maximum cardinality matching; deterministic for a fixed graph."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj: list[list[int]] = [[] for _ in g.vertices]
    for u, v in g.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for lst in adj:
        lst.sort()
    mate = _blossom(g.n, adj)
    edges = sorted(
        edge_key(g.vertices[i], g.vertices[j])
        for i, j in enumerate(mate)
        if j != -1 and i < j
    )
    exposed = tuple(v for i, v in enumerate(g.vertices) if mate[i] == -1)
    return Matching(tuple(edges), exposed)


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def inessential_vertices(g: Graph) -> tuple[str, ...]:
    """Vertices exposed by at least one maximum matching.

    Decided by the direct test: v is inessential iff removing it does
    not reduce the matching number.
    """
    nu = matching_number(g)
    return tuple(v for v in g.vertices if matching_number(g.without_vertex(v)) == nu)


def fractional_matching_value(g: Graph) -> Fraction:
    """Optimum of the degree-constrained fractional matching relaxation."""
    if g.m == 0:
        return Fraction(0)
    names = [f"y {u} {v}" for u, v in g.edges]
    lp = exactlp.LpProblem("fractional-matching", "max", names)
    lp.set_objective({name: 1 for name in names})
    for v in g.vertices:
        incident = {f"y {a} {b}": 1 for a, b in g.edges if v in (a, b)}
        if incident:
            lp.add_constraint(incident, exactlp.LE, 1, name=f"deg {v}")
    sol = exactlp.solve(lp)
    if sol.status != exactlp.OPTIMAL:
        raise InternalInvariantError("fractional matching relaxation must be solvable")
    return sol.objective


@dataclass(frozen=True)
class CoreReport:
    """Stability diagnosis of the matching game on a graph.

    The three criteria (integral vs fractional matching value, absence
    of an edge between two inessential vertices, feasibility of a stable
    allocation) are all computed and must agree.
    """

    nu: int
    fractional_value: Fraction
    inessential: tuple[str, ...]
    status: str  # "nonempty" | "empty"
    witness_allocation: dict[str, Fraction] | None
    offending_edge: Edge | None


def _stable_system(g: Graph, nu: int) -> exactlp.LpProblem:
    names = [f"x {v}" for v in g.vertices]
    lp = exactlp.LpProblem("stable-allocation", "min", names)
    lp.set_objective({name: 1 for name in names})
    for u, v in g.edges:
        lp.add_constraint({f"x {u}": 1, f"x {v}": 1}, exactlp.GE, 1, name=f"edge {u} {v}")
    lp.add_constraint({name: 1 for name in names}, exactlp.EQ, nu, name="total")
    return lp


def stable_allocation(g: Graph) -> dict[str, Fraction]:
    """A nonnegative allocation of the matching number with every edge covered.

    Raises PreconditionError when no such allocation exists.
    """
    nu = matching_number(g)
    if g.n == 0:
        return {}
    sol = exactlp.solve(_stable_system(g, nu))
    if sol.status != exactlp.OPTIMAL:
        raise PreconditionError("no stable allocation exists for this graph")
    return {v: sol.values[f"x {v}"] for v in g.vertices}


def core_status(g: Graph) -> CoreReport:
    nu = matching_number(g)
    frac = fractional_matching_value(g)
    iness = inessential_vertices(g)
    iness_set = set(iness)
    offending = next(
        (e for e in g.edges if e[0] in iness_set and e[1] in iness_set), None
    )

    by_lp_gap = frac == nu
    by_adjacency = offending is None
    if g.n == 0:
        feasible, witness = True, {}
    else:
        sol = exactlp.solve(_stable_system(g, nu))
        feasible = sol.status == exactlp.OPTIMAL
        witness = (
            {v: sol.values[f"x {v}"] for v in g.vertices} if feasible else None
        )

    if not (by_lp_gap == by_adjacency == feasible):
        raise InternalInvariantError(
            "stability criteria disagree: "
            f"lp-gap={by_lp_gap} adjacency={by_adjacency} feasible={feasible}"
        )

    if feasible:
        _assert_stable(g, nu, witness)
        return CoreReport(nu, frac, iness, "nonempty", witness, None)
    return CoreReport(nu, frac, iness, "empty", None, offending)


def _assert_stable(g: Graph, nu: int, x: dict[str, Fraction]) -> None:
    total = sum(x.values(), Fraction(0))
    if total != nu:
        raise InternalInvariantError(f"witness total {total} != {nu}")
    bare = uncovered_edge(g.edges, x)
    if bare is not None:
        raise InternalInvariantError(f"witness uncovered edge {bare[0]}-{bare[1]}")
    if any(val < 0 for val in x.values()):
        raise InternalInvariantError("negative witness entry")
