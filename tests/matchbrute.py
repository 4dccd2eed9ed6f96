"""Definitional oracles for `matching`.

Each one computes its quantity straight from the definition: the matching
number by exhaustive branching, and, the slow way the solver once did,
the inessential set by deleting every vertex in turn, and the fractional
matching number and a stable allocation by solving their LPs.
"""

from fractions import Fraction

from netbargain import exactlp, matching
from netbargain.errors import PreconditionError
from netbargain.graphcore import Graph


def brute_max_matching(g: Graph) -> int:
    """Exact matching number by branch-and-memo over the edge list."""
    if g.m > 22:
        raise PreconditionError("exhaustive matching limited to 22 edges")
    edges = list(g.edges)
    memo: dict[tuple[int, frozenset[str]], int] = {}

    def best(i: int, used: frozenset[str]) -> int:
        if i >= len(edges):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        u, v = edges[i]
        res = best(i + 1, used)
        if u not in used and v not in used:
            res = max(res, 1 + best(i + 1, used | {u, v}))
        memo[key] = res
        return res

    return best(0, frozenset())


def inessential_by_deletion(g: Graph) -> tuple[str, ...]:
    """v is inessential iff deleting it leaves the matching number unchanged."""
    nu = matching.matching_number(g)
    return tuple(v for v in g.vertices if matching.matching_number(g.without_vertex(v)) == nu)


def fractional_matching_lp(g: Graph) -> Fraction:
    """max sum y_e subject to y >= 0 and sum of y_e over the edges at v <= 1."""
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
    assert sol.status == exactlp.OPTIMAL
    return sol.objective


def stable_allocation_lp(g: Graph, nu: int) -> dict[str, Fraction] | None:
    """min sum x_v subject to x >= 0, x_u + x_v >= 1 on every edge and
    sum x_v = nu: a stable allocation of nu, or None if none exists."""
    if g.n == 0:
        return {}
    names = [f"x {v}" for v in g.vertices]
    lp = exactlp.LpProblem("stable-allocation", "min", names)
    lp.set_objective({name: 1 for name in names})
    for u, v in g.edges:
        lp.add_constraint({f"x {u}": 1, f"x {v}": 1}, exactlp.GE, 1, name=f"edge {u} {v}")
    lp.add_constraint({name: 1 for name in names}, exactlp.EQ, nu, name="total")
    sol = exactlp.solve(lp)
    if sol.status != exactlp.OPTIMAL:
        return None
    assert exactlp.check_certificates(lp, sol) == []
    return {v: sol.values[f"x {v}"] for v in g.vertices}
