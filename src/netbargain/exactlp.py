"""Exact rational linear programming via two-phase primal simplex.

Every LP is `min` or `max` of a linear objective over nonnegative
variables subject to `<=`, `=` and `>=` rows; there are no other
variable bounds.  The arithmetic is exact: the tableau holds Python
`int` rows, each with one positive `int` denominator, and a `Fraction`
is built only when the point, the objective and the duals are read out.
There is no floating-point phase, so callers can compare solution
values against thresholds like 1/3 exactly.  The solver returns optimal
*basic* solutions (vertices of the feasible region), row duals, and the
tableau's size and pivot counts.  Every row stays in the tableau for the
whole solve; an artificial left basic by phase 1 (a redundant row's,
say) stays at 0.  The pipeline solves only the acceleration LPs that
the matched-pair cycle does not answer.  `violations` checks any
point against an LP's rows and nonnegativity, and `check_certificates`
proves an optimal answer by its duals.  Both work in exact integer
arithmetic and build a `Fraction` only to word a finding and to compare
the duality gap.  `certified` is the one gate for an answer, solved or
built by the caller: it passes only what `check_certificates` proves.

Pivoting uses Bland's rule over the canonical variable order, which
guarantees termination and makes every solve deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import InternalInvariantError, PreconditionError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

_Z = Fraction(0)

#: (row, weight) of each basic row with a nonzero cost, for pricing
_Priced = list[tuple[list[int], int]]


@dataclass
class Constraint:
    coeffs: dict[str, Fraction]
    rel: str
    rhs: Fraction
    name: str


class LpProblem:
    """Linear program over named nonnegative variables, built row by row.

    The variable order given at construction is the canonical order used
    for deterministic pivoting.
    """

    def __init__(self, name: str, sense: str, variables: Sequence[str]):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.name = name
        self.sense = sense
        self.variables: tuple[str, ...] = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.objective: dict[str, Fraction] = {}
        self.constraints: list[Constraint] = []

    def _check_vars(self, coeffs: Mapping[str, object]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for v, c in coeffs.items():
            if v not in self._index:
                raise ValueError(f"unknown variable {v!r}")
            c = Fraction(c)
            if c:
                out[v] = c
        return out

    def set_objective(self, coeffs: Mapping[str, object]) -> None:
        self.objective = self._check_vars(coeffs)

    def add_constraint(self, coeffs: Mapping[str, object], rel: str, rhs: object, name: str = "") -> int:
        if rel not in _RELS:
            raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
        self.constraints.append(Constraint(self._check_vars(coeffs), rel, Fraction(rhs), name))
        return len(self.constraints) - 1


@dataclass(frozen=True)
class LpSolution:
    """An LP answer, solved or built; `duals` follow the convention under
    which the dual objective equals the primal one (see
    `check_certificates`).  The size of the tableau (rows; columns for the
    variables, slacks, surpluses and artificials) and the pivots of each
    phase are reported for observability and take no part in equality;
    phase 2 counts those that take artificials out.
    """

    status: str
    values: dict[str, Fraction] = field(default_factory=dict)
    objective: Fraction | None = None
    duals: tuple[Fraction, ...] = ()
    rows: int = field(default=0, compare=False)
    columns: int = field(default=0, compare=False)
    phase1_pivots: int = field(default=0, compare=False)
    phase2_pivots: int = field(default=0, compare=False)


class _Tableau:
    """Simplex tableau of integer rows with Bland pivoting.

    Entry j of row i stands for `rows[i][j] / dens[i]`, where the last
    entry is the right-hand side and `dens[i] > 0`.  A pivot touches only
    the rows that are nonzero in the pivot column, and in them only the
    columns where the pivot row is nonzero; each changed row is then
    divided by the gcd of its entries and its denominator.  Pricing and
    the ratio test cross-multiply, so no `Fraction` is built.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int], ncols: int):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.ncols = ncols
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        rows, dens = self.rows, self.dens
        prow = rows[r]
        cols = [j for j, a in enumerate(prow) if a]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            for j in cols:
                prow[j] //= g
        p = prow[c]
        dens[r] = p
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(f, p)
                s, t = p // g, f // g
                if s != 1:
                    row = rows[i] = [a * s for a in row]
                for j in cols:
                    row[j] -= t * prow[j]
                d = dens[i] * s
                g = gcd(d, *row)
                if g != 1:
                    rows[i] = [a // g for a in row]
                dens[i] = d // g
        self.basis[r] = c
        self.pivots += 1

    def priced(self, costs: list[int]) -> tuple[int, _Priced]:
        """A positive scale and the rows to price with: the reduced cost of
        column j, times the scale, is `_scaled_reduced_cost(costs, scale, priced, j)`."""
        rows, dens = self.rows, self.dens
        basic = [(i, costs[b]) for i, b in enumerate(self.basis) if costs[b]]
        scale = lcm(*[dens[i] for i, _ in basic])
        return scale, [(rows[i], cb * (scale // dens[i])) for i, cb in basic]

    def run(self, costs: list[int], banned: frozenset[int]) -> str:
        """Minimize `costs`; Bland's rule (lowest eligible index) throughout.

        A `banned` column never enters, and one still basic stays at 0: a
        feasible phase 1 leaves an artificial basic only at 0, so a pivot
        on its row is a zero step on either sign (`pivot` makes a negative
        pivot entry positive).  Such a pivot takes a banned column out for
        good, so Bland's rule, which guarantees termination, runs unchanged
        between at most as many of them as there are artificials.
        """
        rows, basis = self.rows, self.basis
        while True:
            scale, priced = self.priced(costs)
            basis_set = set(basis)
            enter = -1
            for j in range(self.ncols):
                if (
                    j not in banned
                    and j not in basis_set
                    and _scaled_reduced_cost(costs, scale, priced, j) < 0
                ):
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # the smallest rhs / a over a > 0; the denominators cancel.  A row
            # whose basic column is banned takes part on either sign, as |a|
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a < 0 and basis[i] in banned:
                    a = -a
                if a > 0:
                    if leave < 0:
                        leave, best = i, a
                    else:
                        lhs, rhs = row[-1] * best, rows[leave][-1] * a
                        if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                            leave, best = i, a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def _scaled_reduced_cost(costs: list[int], scale: int, priced: _Priced, j: int) -> int:
    """Reduced cost of column j times `scale`; the one pricing routine of
    phases 1, 2 and the duals."""
    cbar = scale * costs[j]
    for row, w in priced:
        a = row[j]
        if a:
            cbar -= w * a
    return cbar


@dataclass
class _Row:
    rel: str
    flipped: bool
    slack_col: int = -1       # slack (<=) or surplus (>=) column
    art_col: int = -1


def solve(p: LpProblem) -> LpSolution:
    """Solve to optimality, infeasibility, or unboundedness.

    When optimal, the returned point is a vertex of the feasible region,
    the duals satisfy complementary slackness, and repeated calls return
    the identical solution.
    """
    n = len(p.variables)
    cost_user = [p.objective.get(v, _Z) for v in p.variables]

    # a negative right-hand side flips the row
    rows = [
        _Row({LE: GE, GE: LE, EQ: EQ}[con.rel], True) if con.rhs < 0 else _Row(con.rel, False)
        for con in p.constraints
    ]

    # column layout: structural | slack/surplus | artificial
    ncols = n
    for row in rows:
        if row.rel in (LE, GE):
            row.slack_col = ncols
            ncols += 1
    art_cols = []
    for row in rows:
        if row.rel in (GE, EQ):
            row.art_col = ncols
            art_cols.append(ncols)
            ncols += 1

    # each line over the lcm of its row's denominators; the lines need no gcd
    # reduction, since some coefficient carries each prime power of the lcm
    tab_rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for con, row in zip(p.constraints, rows):
        den = lcm(con.rhs.denominator, *[c.denominator for c in con.coeffs.values()])
        sign = -1 if row.flipped else 1
        line = [0] * (ncols + 1)
        for v, c in con.coeffs.items():
            line[p._index[v]] = sign * c.numerator * (den // c.denominator)
        line[-1] = sign * con.rhs.numerator * (den // con.rhs.denominator)
        if row.rel == LE:
            line[row.slack_col] = den
            basis.append(row.slack_col)
        else:
            if row.rel == GE:
                line[row.slack_col] = -den
            line[row.art_col] = den
            basis.append(row.art_col)
        tab_rows.append(line)
        dens.append(den)

    tab = _Tableau(tab_rows, dens, basis, ncols)
    art_set = frozenset(art_cols)
    counts = {"rows": len(rows), "columns": ncols}

    if art_cols:
        cost1 = [0] * ncols
        for c in art_cols:
            cost1[c] = 1
        status = tab.run(cost1, frozenset())
        if status != OPTIMAL:
            raise InternalInvariantError("phase 1 cannot be unbounded")
        counts["phase1_pivots"] = tab.pivots
        _, priced = tab.priced(cost1)
        if sum(w * row[-1] for row, w in priced) > 0:
            return LpSolution(status=INFEASIBLE, **counts)

    # phase 2 prices with integer costs: the user's costs times the lcm of
    # their denominators, negated for a maximum
    unit = lcm(*[c.denominator for c in cost_user])
    if p.sense == "max":
        unit = -unit
    cost2 = [c.numerator * (unit // c.denominator) for c in cost_user] + [0] * (ncols - n)
    before = tab.pivots
    status = tab.run(cost2, art_set)
    counts["phase2_pivots"] = tab.pivots - before
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, **counts)

    point = [_Z] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            point[b] = Fraction(tab.rows[i][-1], tab.dens[i])
    values = dict(zip(p.variables, point))
    objective = sum((c * x for c, x in zip(cost_user, point)), _Z)

    # a row's dual is minus the reduced cost of its artificial column (else its
    # slack column), in the user's sense and for the row as the user wrote it;
    # a row whose artificial is still basic reads it the same way, as 0
    scale, priced = tab.priced(cost2)
    duals = []
    for row in rows:
        cbar = _scaled_reduced_cost(cost2, scale, priced, row.art_col if row.art_col >= 0 else row.slack_col)
        duals.append(Fraction(cbar if row.flipped else -cbar, scale * unit))
    return LpSolution(status=OPTIMAL, values=values, objective=objective, duals=tuple(duals), **counts)


def _row_pass(p: LpProblem, point: Mapping[str, Fraction]) -> tuple[list[str], list[int] | None, list[bool]]:
    """One integer pass over each row: the findings of `violations`, each
    row's denominator, and whether `point` makes the row tight.

    With the point over the lcm D of its denominators and row i over the
    lcm den_i of its own, den_i * D times each side of the row is an int.
    The denominators are None when a value is missing.
    """
    missing = [v for v in p.variables if v not in point]
    if missing:
        return [f"missing value for {v}" for v in missing], None, []
    xs = [point[v] for v in p.variables]
    d = lcm(*[x.denominator for x in xs])
    scaled = {v: x.numerator * (d // x.denominator) for v, x in zip(p.variables, xs)}
    out = [f"{v} negative: {point[v]}" for v, x in scaled.items() if x < 0]
    dens, tight = [], []
    for i, con in enumerate(p.constraints):
        den = lcm(con.rhs.denominator, *[c.denominator for c in con.coeffs.values()])
        lhs = sum([c.numerator * (den // c.denominator) * scaled[v] for v, c in con.coeffs.items()])
        rhs = con.rhs.numerator * (den // con.rhs.denominator) * d
        ok = lhs <= rhs if con.rel == LE else lhs >= rhs if con.rel == GE else lhs == rhs
        if not ok:
            out.append(f"constraint {i} ({con.name or con.rel}) violated: {Fraction(lhs, den * d)} vs {con.rhs}")
        dens.append(den)
        tight.append(lhs == rhs)
    return out, dens, tight


def violations(p: LpProblem, point: Mapping[str, Fraction]) -> list[str]:
    """Every way `point` fails to be feasible for `p`, in a fixed order.

    Checks that each variable has a value, then nonnegativity, then
    every row in construction order.  An empty list means feasible.
    """
    return _row_pass(p, point)[0]


def check_certificates(p: LpProblem, s: LpSolution) -> list[str]:
    """Exact verification of feasibility, strong duality, and complementary slackness.

    Returns the list of violated conditions; an optimal solve must yield
    an empty list.  The sums and signs are taken in `int`s; a `Fraction`
    is built only to word a finding and for the duality-gap comparison.
    """
    if s.status != OPTIMAL:
        raise PreconditionError("check_certificates requires an optimal solution")
    vals = s.values
    out, dens, tight = _row_pass(p, vals)
    if dens is None:
        return out
    if len(s.duals) != len(p.constraints):
        out.append("dual vector length mismatch")
        return out

    is_min = p.sense == "min"
    # the duals over their lcm E and row i weighted by L / den_i, L the lcm of
    # the rows' denominators: y^T A and the dual objective are ints over E * L,
    # accumulated in one pass over each row's nonzero coefficients
    e = lcm(*[y.denominator for y in s.duals])
    big = lcm(*dens)
    ya = dict.fromkeys(p.variables, 0)
    dual_obj = 0
    for i, (con, y, den, is_tight) in enumerate(zip(p.constraints, s.duals, dens, tight)):
        w = y.numerator * (e // y.denominator)
        if con.rel == LE and (w > 0 if is_min else w < 0):
            out.append(f"dual sign violated on <= row {i}: {y}")
        if con.rel == GE and (w < 0 if is_min else w > 0):
            out.append(f"dual sign violated on >= row {i}: {y}")
        if w:
            if not is_tight:
                out.append(f"complementary slackness violated on row {i}")
            w *= big // den
            for v, a in con.coeffs.items():
                ya[v] += w * a.numerator * (den // a.denominator)
            dual_obj += w * con.rhs.numerator * (den // con.rhs.denominator)

    # every variable's only bound is 0, so reduced costs add nothing to the
    # dual objective; they must have the sign that keeps the variable there.
    # With the objective over the lcm k of its denominators, k * E * L times
    # the reduced cost of v is an int
    k = lcm(*[c.denominator for c in p.objective.values()])
    el = e * big
    cost = {v: c.numerator * (k // c.denominator) * el for v, c in p.objective.items()}
    for v in p.variables:
        r = cost.get(v, 0) - k * ya[v]
        if not is_min:
            r = -r
        if r > 0 and vals[v] != 0:
            out.append(f"reduced cost of {v} pins it at 0 but it is {vals[v]}")
        if r < 0:
            out.append(f"dual infeasible at {v}: reduced cost {Fraction(r, k * el)} has the wrong sign")
    dual_value = Fraction(dual_obj, el)
    if s.objective != dual_value:
        out.append(f"duality gap: primal {s.objective} vs dual {dual_value}")
    return out


def certified(p: LpProblem, s: LpSolution) -> LpSolution:
    """`s`, once proven an optimal answer of `p`; otherwise raises
    `InternalInvariantError` naming `p` and the status or the findings.
    """
    if s.status != OPTIMAL:
        raise InternalInvariantError(f"{p.name} LP not optimal: {s.status}")
    bad = check_certificates(p, s)
    if bad:
        raise InternalInvariantError(f"{p.name} LP not certified: {'; '.join(bad)}")
    return s
