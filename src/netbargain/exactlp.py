"""Exact rational linear programming via two-phase primal simplex.

Every LP is `min` or `max` of a linear objective over nonnegative
variables subject to `<=`, `=` and `>=` rows; there are no other
variable bounds.  All arithmetic is over `Fraction`; there is no
floating-point phase, so callers can compare solution values against
thresholds like 1/3 exactly.  The solver returns optimal *basic*
solutions (vertices of the feasible region), row duals, and the rows
that define the returned vertex.  Every row stays in the tableau for the
whole solve; a redundant one keeps an artificial basic at 0 and is left
out of the defining rows.  `violations` checks any point against an LP's
rows and nonnegativity.

Pivoting uses Bland's rule over the canonical variable order, which
guarantees termination and makes every solve deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import PreconditionError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

_Z = Fraction(0)
_ONE = Fraction(1)

#: (row, cost) of each basic variable with a nonzero cost, for pricing
_Priced = list[tuple[list[Fraction], Fraction]]


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
    """Solve result.

    `defining_rows` are the constraints that participate in the
    full-rank tight system the simplex basis selects; together with the
    nonbasic variables (all at 0) they determine the returned point
    uniquely.  `duals` follow the convention under which the dual
    objective equals the primal one (see `check_certificates`).
    """

    status: str
    values: dict[str, Fraction] = field(default_factory=dict)
    objective: Fraction | None = None
    duals: tuple[Fraction, ...] = ()
    defining_rows: frozenset[int] = frozenset()


class _Tableau:
    """Dense simplex tableau over Fractions with Bland pivoting.

    The arithmetic skips zero entries: a pivot touches only the columns
    where the pivot row is nonzero, and pricing only nonzero entries.
    """

    def __init__(self, rows: list[list[Fraction]], basis: list[int], ncols: int):
        self.rows = rows          # each row: ncols coefficients + rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        inv = _ONE / prow[c]
        cols = [j for j, a in enumerate(prow) if a]
        for j in cols:
            prow[j] *= inv
        for i, row in enumerate(self.rows):
            f = row[c]
            if f and i != r:
                for j in cols:
                    row[j] -= f * prow[j]
        self.basis[r] = c

    def priced(self, costs: list[Fraction]) -> _Priced:
        return [(self.rows[i], costs[b]) for i, b in enumerate(self.basis) if costs[b]]

    def run(self, costs: list[Fraction], banned: frozenset[int]) -> str:
        """Minimize `costs`; Bland's rule (lowest eligible index) throughout."""
        rows, basis = self.rows, self.basis
        while True:
            priced = self.priced(costs)
            basis_set = set(basis)
            enter = -1
            for j in range(self.ncols):
                if j not in banned and j not in basis_set and _reduced_cost(costs, priced, j) < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_ratio: Fraction | None = None
            for i, row in enumerate(rows):
                t = row[enter]
                if t > 0:
                    ratio = row[-1] / t
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def _reduced_cost(costs: list[Fraction], priced: _Priced, j: int) -> Fraction:
    """Reduced cost of column j; the one pricing routine of phases 1, 2 and the duals."""
    cbar = costs[j]
    for row, cb in priced:
        a = row[j]
        if a:
            cbar -= cb * a
    return cbar


@dataclass
class _Row:
    coeffs: list[Fraction]
    rel: str
    rhs: Fraction
    flipped: bool = False
    slack_col: int = -1       # slack (<=) or surplus (>=) column
    art_col: int = -1


def solve(p: LpProblem) -> LpSolution:
    """Solve to optimality, infeasibility, or unboundedness.

    When optimal, the returned point is a vertex of the feasible region,
    the duals satisfy complementary slackness, and repeated calls return
    the identical solution.
    """
    n = len(p.variables)
    cost_user = [Fraction(p.objective.get(v, 0)) for v in p.variables]

    rows: list[_Row] = []
    for con in p.constraints:
        row = _Row([_Z] * n, con.rel, con.rhs)
        if con.rhs < 0:
            row.rhs = -con.rhs
            row.rel = {LE: GE, GE: LE, EQ: EQ}[con.rel]
            row.flipped = True
        for v, c in con.coeffs.items():
            row.coeffs[p._index[v]] = -c if row.flipped else c
        rows.append(row)

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

    tab_rows: list[list[Fraction]] = []
    basis: list[int] = []
    for row in rows:
        line = row.coeffs + [_Z] * (ncols - n) + [row.rhs]
        if row.rel == LE:
            line[row.slack_col] = _ONE
            basis.append(row.slack_col)
        elif row.rel == GE:
            line[row.slack_col] = -_ONE
            line[row.art_col] = _ONE
            basis.append(row.art_col)
        else:
            line[row.art_col] = _ONE
            basis.append(row.art_col)
        tab_rows.append(line)

    tab = _Tableau(tab_rows, basis, ncols)
    art_set = frozenset(art_cols)

    if art_cols:
        cost1 = [_Z] * ncols
        for c in art_cols:
            cost1[c] = _ONE
        status = tab.run(cost1, frozenset())
        if status != OPTIMAL:
            raise AssertionError("phase 1 cannot be unbounded")
        if sum((cb * row[-1] for row, cb in tab.priced(cost1)), _Z) > 0:
            return LpSolution(status=INFEASIBLE)
        _drive_out_artificials(tab, art_set)

    sense_factor = _ONE if p.sense == "min" else -_ONE
    cost2 = [c * sense_factor for c in cost_user] + [_Z] * (ncols - n)
    status = tab.run(cost2, art_set)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)

    point = [_Z] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            point[b] = tab.rows[i][-1]
    values = dict(zip(p.variables, point))
    objective = sum((c * x for c, x in zip(cost_user, point)), _Z)

    priced = tab.priced(cost2)
    duals = tuple([_user_dual(cost2, priced, row, p.sense) for row in rows])
    basis_set = set(tab.basis)
    defining_rows = frozenset(
        i
        for i, row in enumerate(rows)
        if tab.basis[i] not in art_set and (row.rel == EQ or row.slack_col not in basis_set)
    )
    return LpSolution(
        status=OPTIMAL,
        values=values,
        objective=objective,
        duals=duals,
        defining_rows=defining_rows,
    )


def _drive_out_artificials(tab: _Tableau, art_set: frozenset[int]) -> None:
    """Pivot zero-valued basic artificials out where the row allows it.

    A row whose basic variable stays artificial is zero in every other
    column, so phase 2, which bans artificial columns, never pivots on it
    or changes it, and pricing skips it because its basic cost is 0.
    """
    for i in range(len(tab.rows)):
        if tab.basis[i] in art_set:
            target = -1
            for j in range(tab.ncols):
                if j not in art_set and tab.rows[i][j] != 0:
                    target = j
                    break
            if target >= 0:
                tab.pivot(i, target)


def _user_dual(costs: list[Fraction], priced: _Priced, row: _Row, sense: str) -> Fraction:
    # a redundant row, whose basic variable stays artificial, reads its dual the same way
    col = row.art_col if row.art_col >= 0 else row.slack_col
    y = -_reduced_cost(costs, priced, col)
    if row.flipped:
        y = -y
    if sense == "max":
        y = -y
    return y


def _lhs(con: Constraint, point: Mapping[str, Fraction]) -> Fraction:
    return sum((c * point[v] for v, c in con.coeffs.items()), _Z)


def violations(p: LpProblem, point: Mapping[str, Fraction]) -> list[str]:
    """Every way `point` fails to be feasible for `p`, in a fixed order.

    Checks that each variable has a value, then nonnegativity, then
    every row in construction order.  An empty list means feasible.
    """
    missing = [v for v in p.variables if v not in point]
    if missing:
        return [f"missing value for {v}" for v in missing]
    out = [f"{v} negative: {point[v]}" for v in p.variables if point[v] < 0]
    for i, con in enumerate(p.constraints):
        lhs = _lhs(con, point)
        ok = lhs <= con.rhs if con.rel == LE else lhs >= con.rhs if con.rel == GE else lhs == con.rhs
        if not ok:
            out.append(f"constraint {i} ({con.name or con.rel}) violated: {lhs} vs {con.rhs}")
    return out


def check_certificates(p: LpProblem, s: LpSolution) -> list[str]:
    """Exact verification of feasibility, strong duality, and complementary slackness.

    Returns the list of violated conditions; an optimal solve must yield
    an empty list.
    """
    if s.status != OPTIMAL:
        raise PreconditionError("check_certificates requires an optimal solution")
    vals = s.values
    out = violations(p, vals)
    if any(v not in vals for v in p.variables):
        return out
    if len(s.duals) != len(p.constraints):
        out.append("dual vector length mismatch")
        return out

    is_min = p.sense == "min"
    # y^T A accumulated in one pass over each row's nonzero coefficients
    ya = dict.fromkeys(p.variables, _Z)
    for i, (con, y) in enumerate(zip(p.constraints, s.duals)):
        if con.rel == LE and ((is_min and y > 0) or (not is_min and y < 0)):
            out.append(f"dual sign violated on <= row {i}: {y}")
        if con.rel == GE and ((is_min and y < 0) or (not is_min and y > 0)):
            out.append(f"dual sign violated on >= row {i}: {y}")
        if y != 0:
            if _lhs(con, vals) != con.rhs:
                out.append(f"complementary slackness violated on row {i}")
            for v, a in con.coeffs.items():
                ya[v] += y * a

    # every variable's only bound is 0, so reduced costs add nothing to the
    # dual objective; they must have the sign that keeps the variable there
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
