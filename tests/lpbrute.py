"""Exhaustive vertex enumeration for tiny LPs; independent solver oracle.

Every n-subset of the tight-able constraints (rows plus the x >= 0
bounds) is solved as an exact square system; feasible solutions are the
vertices of the polyhedron.  Deliberately shares no code with the simplex.
"""

from fractions import Fraction
from itertools import combinations

from netbargain import exactlp

_Z = Fraction(0)


def solve_square(rows, rhs):
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _all_rows(lp: exactlp.LpProblem):
    n = len(lp.variables)
    idx = {v: i for i, v in enumerate(lp.variables)}
    rows = []
    for con in lp.constraints:
        dense = [_Z] * n
        for v, c in con.coeffs.items():
            dense[idx[v]] = c
        rows.append((dense, con.rel, con.rhs))
    for v in lp.variables:
        e = [_Z] * n
        e[idx[v]] = Fraction(1)
        rows.append((e, exactlp.GE, _Z))
    return rows


def _feasible(point, rows):
    for dense, rel, rhs in rows:
        lhs = sum((c * x for c, x in zip(dense, point)), _Z)
        if rel == exactlp.LE and lhs > rhs:
            return False
        if rel == exactlp.GE and lhs < rhs:
            return False
        if rel == exactlp.EQ and lhs != rhs:
            return False
    return True


def enumerate_vertices(lp: exactlp.LpProblem):
    n = len(lp.variables)
    rows = _all_rows(lp)
    seen = set()
    vertices = []
    for combo in combinations(range(len(rows)), n):
        point = solve_square([rows[i][0] for i in combo], [rows[i][2] for i in combo])
        if point is None or not _feasible(point, rows):
            continue
        key = tuple(point)
        if key not in seen:
            seen.add(key)
            vertices.append(point)
    return vertices


def best_vertex_value(lp: exactlp.LpProblem):
    """Optimal objective over vertices, or None when no vertex is feasible."""
    n = len(lp.variables)
    cost = [Fraction(lp.objective.get(v, 0)) for v in lp.variables]
    values = [
        sum((c * x for c, x in zip(cost, point)), _Z) for point in enumerate_vertices(lp)
    ]
    if not values:
        return None
    return max(values) if lp.sense == "max" else min(values)
