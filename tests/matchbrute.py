"""Definitional oracles for the core diagnosis in `matching`.

Each one computes its quantity straight from the definition, the slow
way the solver once did: the inessential set by deleting every vertex in
turn, the fractional matching number by solving its LP.
"""

from fractions import Fraction

from netbargain import exactlp, matching
from netbargain.graphcore import Graph


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
