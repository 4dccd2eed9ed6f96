"""Independent checker for the JSON report of `netbargain balance`.

It shares no code with the program: it reads the edge list it wrote,
parses every rational itself with `Fraction`, and checks the matching
against `networkx`, which is a dependency of the benchmark only.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _edge(pair) -> tuple[str, str]:
    u, v = pair
    return (u, v) if u <= v else (v, u)


def _allocation(obj: dict) -> dict[str, Fraction]:
    return {v: Fraction(text) for v, text in obj.items()}


def check_balance_report(edges: list[tuple[str, str]], text: str) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    import networkx as nx

    try:
        rep = json.loads(text)
        edge_set = {_edge(e) for e in edges}
        blocked = {_edge(e) for e in rep["blocking_set"]}
        residual = edge_set - blocked
        x = _allocation(rep["allocation"])
        y = _allocation(rep["balanced_allocation"])
        nu, graph_nu = rep["nu"], rep["graph_nu"]
        factor = Fraction(rep["guarantee"]["factor"])
        root_value = Fraction(rep["guarantee"]["root_lp_value"])
        residuals = [Fraction(r) for r in rep["balance_residuals"].values()]
        matching = [_edge(e) for e in rep["matching"]]
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]

    problems = []
    full = nx.Graph(list(edge_set))
    true_nu = len(nx.max_weight_matching(full, maxcardinality=True))
    if nu != true_nu or graph_nu != true_nu:
        problems.append(f"nu={nu} graph_nu={graph_nu}, but the matching number is {true_nu}")
    if not blocked <= edge_set:
        problems.append("blocking set holds edges not in the graph")
    vertices = {u for e in edge_set for u in e}
    for name, alloc in (("allocation", x), ("balanced_allocation", y)):
        if set(alloc) != vertices:
            problems.append(f"{name} is not defined on exactly the vertices")
            return problems
        if any(val < 0 for val in alloc.values()):
            problems.append(f"{name} is negative somewhere")
    if any(x[u] + x[v] < 1 for u, v in residual):
        problems.append("allocation leaves a non-blocked edge uncovered")
    if sum(x.values()) > nu:
        problems.append("allocation exceeds nu")
    if len(blocked) > factor * root_value:
        problems.append(f"|B|={len(blocked)} > {factor} * {root_value}")
    if any(y[u] + y[v] < 1 for u, v in residual):
        problems.append("balanced allocation leaves a residual edge uncovered")
    if sum(y.values()) != graph_nu:
        problems.append("balanced allocation does not sum to graph_nu")
    if any(r != 0 for r in residuals):
        problems.append("a balance residual is not 0")
    ends = [u for e in matching for u in e]
    if len(ends) != len(set(ends)) or not set(matching) <= residual:
        problems.append("matching is not a matching of the residual graph")
    rest = nx.Graph(list(residual))
    best = len(nx.max_weight_matching(rest, maxcardinality=True))
    if len(matching) != best:
        problems.append(f"matching has {len(matching)} edges, the residual maximum is {best}")
    return problems
