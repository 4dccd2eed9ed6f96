"""Whether an LP point is a vertex, by the rank of its tight system.

A feasible point of an LP over nonnegative variables is a vertex exactly
when the rows tight at it, together with the unit rows of its zero
variables, have full rank.  Plain `Fraction` Gaussian elimination;
deliberately shares no code with `src/`: it reads only the fields of the
LP and the point's values.
"""

from fractions import Fraction

_Z = Fraction(0)


def tight_system_rank(lp, values) -> int:
    """Rank of the rows tight at `values` and the unit rows of its zero variables."""
    idx = {v: i for i, v in enumerate(lp.variables)}
    n = len(lp.variables)
    rows = []
    for con in lp.constraints:
        if sum((c * values[v] for v, c in con.coeffs.items()), _Z) == con.rhs:
            dense = [_Z] * n
            for v, c in con.coeffs.items():
                dense[idx[v]] = c
            rows.append(dense)
    for v in lp.variables:
        if values[v] == 0:
            dense = [_Z] * n
            dense[idx[v]] = Fraction(1)
            rows.append(dense)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [a * inv for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def is_vertex(lp, values) -> bool:
    return tight_system_rank(lp, values) == len(lp.variables)
