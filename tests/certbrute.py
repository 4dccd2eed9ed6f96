"""Reference checks of an LP point and its certificates, in plain `Fraction`s.

The straightforward form of `exactlp.violations` and
`exactlp.check_certificates`: every row sum, y·A entry and reduced cost
is a `Fraction`, and complementary slackness sums a row again.  It
returns the same messages in the same order, so a test can compare the
two lists exactly.  Deliberately shares no code with `src/`: it reads
only the fields of the LP and of the solution.
"""

from fractions import Fraction

_Z = Fraction(0)


def _lhs(con, point):
    return sum((c * point[v] for v, c in con.coeffs.items()), _Z)


def violations(p, point):
    missing = [v for v in p.variables if v not in point]
    if missing:
        return [f"missing value for {v}" for v in missing]
    out = [f"{v} negative: {point[v]}" for v in p.variables if point[v] < 0]
    for i, con in enumerate(p.constraints):
        lhs = _lhs(con, point)
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            out.append(f"constraint {i} ({con.name or con.rel}) violated: {lhs} vs {con.rhs}")
    return out


def check_certificates(p, s):
    """The findings for an optimal answer `s`; empty when it is proven."""
    assert s.status == "optimal"
    vals = s.values
    out = violations(p, vals)
    if any(v not in vals for v in p.variables):
        return out
    if len(s.duals) != len(p.constraints):
        out.append("dual vector length mismatch")
        return out

    is_min = p.sense == "min"
    ya = dict.fromkeys(p.variables, _Z)
    for i, (con, y) in enumerate(zip(p.constraints, s.duals)):
        if con.rel == "<=" and ((is_min and y > 0) or (not is_min and y < 0)):
            out.append(f"dual sign violated on <= row {i}: {y}")
        if con.rel == ">=" and ((is_min and y < 0) or (not is_min and y > 0)):
            out.append(f"dual sign violated on >= row {i}: {y}")
        if y != 0:
            if _lhs(con, vals) != con.rhs:
                out.append(f"complementary slackness violated on row {i}")
            for v, a in con.coeffs.items():
                ya[v] += y * a

    dual_obj = sum((y * con.rhs for y, con in zip(s.duals, p.constraints)), _Z)
    for v in p.variables:
        r = p.objective.get(v, _Z) - ya[v]
        if not is_min:
            r = -r
        if r > 0 and vals[v] != 0:
            out.append(f"reduced cost of {v} pins it at 0 but it is {vals[v]}")
        if r < 0:
            out.append(f"dual infeasible at {v}: reduced cost {r} has the wrong sign")
    if s.objective != dual_obj:
        out.append(f"duality gap: primal {s.objective} vs dual {dual_obj}")
    return out
