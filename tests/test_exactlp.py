from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netbargain import bargain, blockset, exactlp, matching
from netbargain.errors import InternalInvariantError, PreconditionError
from netbargain.graphcore import Graph

import certbrute
import corpus
import lpbrute
from vertexrank import tight_system_rank


def fractional_matching_lp(edges, vertices):
    names = [f"y {u} {v}" for u, v in edges]
    lp = exactlp.LpProblem("fm", "max", names)
    lp.set_objective({n: 1 for n in names})
    for w in vertices:
        coeffs = {f"y {u} {v}": 1 for u, v in edges if w in (u, v)}
        lp.add_constraint(coeffs, exactlp.LE, 1, name=f"deg {w}")
    return lp


def test_trivial_box_maximum():
    lp = exactlp.LpProblem("t", "max", ["y1", "y2"])
    lp.set_objective({"y1": 1, "y2": 1})
    lp.add_constraint({"y1": 1}, exactlp.LE, 1)
    lp.add_constraint({"y2": 1}, exactlp.LE, 1)
    s = exactlp.solve(lp)
    assert s.status == exactlp.OPTIMAL
    assert s.objective == 2
    assert s.values == {"y1": Fraction(1), "y2": Fraction(1)}
    assert exactlp.check_certificates(lp, s) == []


def test_k3_fractional_matching_half_point():
    lp = fractional_matching_lp([("a", "b"), ("a", "c"), ("b", "c")], "abc")
    s = exactlp.solve(lp)
    assert s.objective == Fraction(3, 2)
    assert set(s.values.values()) == {Fraction(1, 2)}
    assert exactlp.check_certificates(lp, s) == []
    # independently: best vertex of the polytope
    assert lpbrute.best_vertex_value(lp) == Fraction(3, 2)


def test_single_edge_matching_integral():
    lp = fractional_matching_lp([("u", "v")], "uv")
    s = exactlp.solve(lp)
    assert s.objective == 1
    assert s.values["y u v"] == 1


def test_perturbed_solution_flagged():
    lp = fractional_matching_lp([("a", "b"), ("a", "c"), ("b", "c")], "abc")
    s = exactlp.solve(lp)
    bad_values = dict(s.values)
    bad_values["y a b"] += Fraction(1, 1000)
    perturbed = replace(s, values=bad_values)
    assert exactlp.check_certificates(lp, perturbed) != []


def test_infeasible_reports_farkas():
    lp = exactlp.LpProblem("inf", "min", ["x"])
    lp.add_constraint({"x": 1}, exactlp.LE, 1)
    lp.add_constraint({"x": 1}, exactlp.GE, 2)
    s = exactlp.solve(lp)
    assert s.status == exactlp.INFEASIBLE
    with pytest.raises(PreconditionError):
        exactlp.check_certificates(lp, s)


def test_violations_lists_sign_and_row_failures():
    lp = exactlp.LpProblem("v", "min", ["x", "y"])
    lp.add_constraint({"x": 1, "y": 1}, exactlp.GE, 1, name="cover")
    lp.add_constraint({"x": 1}, exactlp.EQ, 0)
    assert exactlp.violations(lp, {"x": Fraction(0), "y": Fraction(1)}) == []
    out = exactlp.violations(lp, {"x": Fraction(-1), "y": Fraction(1)})
    assert len(out) == 3
    assert "x negative" in out[0] and "cover" in out[1] and "constraint 1" in out[2]
    assert exactlp.violations(lp, {"x": Fraction(0)}) == ["missing value for y"]


def test_unbounded():
    lp = exactlp.LpProblem("unb", "max", ["x"])
    lp.set_objective({"x": 1})
    s = exactlp.solve(lp)
    assert s.status == exactlp.UNBOUNDED


def test_equality_and_bounds():
    lp = exactlp.LpProblem("eq", "min", ["x", "y"])
    lp.set_objective({"x": 2, "y": 1})
    lp.add_constraint({"x": 1, "y": 1}, exactlp.EQ, 3)
    cap = lp.add_constraint({"y": 1}, exactlp.LE, 2, name="y cap")
    s = exactlp.solve(lp)
    assert s.status == exactlp.OPTIMAL
    assert s.values == {"x": Fraction(1), "y": Fraction(2)}
    assert s.objective == 4
    assert exactlp.check_certificates(lp, s) == []


def test_redundant_equalities_dropped():
    lp = exactlp.LpProblem("red", "min", ["x", "y"])
    lp.set_objective({"x": 1, "y": 1})
    lp.add_constraint({"x": 1, "y": 1}, exactlp.EQ, 2)
    lp.add_constraint({"x": 2, "y": 2}, exactlp.EQ, 4)
    s = exactlp.solve(lp)
    assert s.status == exactlp.OPTIMAL
    assert s.objective == 2
    assert exactlp.check_certificates(lp, s) == []


def _redundant_row_lp():
    # 2*x0 + x1 = 8 follows from x0 = 3 and x1 = 2, so phase 1 drops one of the
    # three equalities
    lp = exactlp.LpProblem("dead", "min", ["x0", "x1"])
    lp.set_objective({"x0": -1})
    lp.add_constraint({"x0": 1}, exactlp.EQ, 3)
    lp.add_constraint({"x0": 2, "x1": 1}, exactlp.EQ, 8)
    lp.add_constraint({"x1": 1}, exactlp.EQ, 2)
    lp.add_constraint({"x0": 1}, exactlp.LE, 4)
    lp.add_constraint({"x1": 1}, exactlp.LE, 4)
    return lp


def test_duals_of_a_row_dropped_after_phase_1():
    # the dropped row's dual still counts in the dual objective
    lp = _redundant_row_lp()
    s = exactlp.solve(lp)
    assert s.objective == -3
    assert s.duals == (0, Fraction(-1, 2), Fraction(1, 2), 0, 0)
    assert exactlp.check_certificates(lp, s) == []


def test_solution_reports_size_and_pivots():
    s = exactlp.solve(_redundant_row_lp())
    # 2 variables, 2 slacks and 3 artificials
    assert (s.rows, s.columns) == (5, 7)
    assert (s.phase1_pivots, s.phase2_pivots) == (3, 0)
    # the counts take no part in equality
    assert s == replace(s, phase1_pivots=0, rows=0)


def test_vacuous_row_keeps_its_artificial_through_phase_2():
    # the vacuous row 0 >= 0 starts feasible with its artificial basic at 0, so
    # phase 1 makes no pivot; the row is zero in every column phase 2 can enter,
    # so its artificial stays basic and phase 2 makes the one pivot x1 needs
    lp = exactlp.LpProblem("vacuous", "max", ["x0", "x1"])
    lp.set_objective({"x1": 1})
    lp.add_constraint({}, exactlp.GE, 0)
    lp.add_constraint({"x1": 1}, exactlp.LE, 1)
    s = exactlp.solve(lp)
    assert s.values == {"x0": 0, "x1": 1}
    assert (s.phase1_pivots, s.phase2_pivots) == (0, 1)
    assert exactlp.check_certificates(lp, s) == []


def test_leftover_artificial_leaves_on_a_negative_entry():
    # phase 1 leaves the artificial of -x0 >= 0 basic at 0.  x0 enters phase 2
    # with entry -1 in that row: the ratio test must still pick the row, as a
    # zero step, or x0 would rise to 1 and break -x0 >= 0
    lp = exactlp.LpProblem("negative-entry", "min", ["x0"])
    lp.set_objective({"x0": -1})
    lp.add_constraint({"x0": -1}, exactlp.GE, 0)
    lp.add_constraint({"x0": 1}, exactlp.LE, 1)
    s = exactlp.solve(lp)
    assert s.values == {"x0": 0}
    assert s.objective == 0
    assert s.duals == (1, 0)
    assert (s.phase1_pivots, s.phase2_pivots) == (0, 1)
    assert exactlp.check_certificates(lp, s) == []


def test_determinism():
    lp = fractional_matching_lp([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")], "abcd")
    s1 = exactlp.solve(lp)
    s2 = exactlp.solve(lp)
    assert s1 == s2


@st.composite
def small_lps(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    names = [f"v{i}" for i in range(n)]
    lp = exactlp.LpProblem("rand", draw(st.sampled_from(["min", "max"])), names)
    coeff = st.integers(min_value=-3, max_value=3)
    lp.set_objective({v: draw(coeff) for v in names})
    for _ in range(m):
        lp.add_constraint(
            {v: draw(coeff) for v in names},
            draw(st.sampled_from([exactlp.LE, exactlp.GE, exactlp.EQ])),
            draw(st.integers(min_value=-4, max_value=6)),
        )
    # the box keeps every LP bounded; its caps are ordinary rows
    for v in names:
        lp.add_constraint({v: 1}, exactlp.LE, draw(st.integers(min_value=1, max_value=5)))
    return lp


@given(small_lps())
@settings(max_examples=120, deadline=None)
def test_random_lps_match_vertex_enumeration(lp):
    s = exactlp.solve(lp)
    best = lpbrute.best_vertex_value(lp)
    if s.status == exactlp.INFEASIBLE:
        assert best is None
    else:
        # bounded by the box, so never unbounded
        assert s.status == exactlp.OPTIMAL
        assert best is not None
        assert s.objective == best
        assert exactlp.check_certificates(lp, s) == []
        assert tight_system_rank(lp, s.values) == len(lp.variables)


@given(small_lps(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_an_empty_row_changes_no_answer(lp, data):
    # the row 0 >= 0 at any position: its surplus column never enters, so
    # Bland's rule takes the same pivots on every other row
    at = data.draw(st.integers(min_value=0, max_value=len(lp.constraints)))
    padded = exactlp.LpProblem(lp.name, lp.sense, lp.variables)
    padded.set_objective(lp.objective)
    rows = list(lp.constraints)
    rows.insert(at, exactlp.Constraint({}, exactlp.GE, Fraction(0), "empty"))
    for con in rows:
        padded.add_constraint(con.coeffs, con.rel, con.rhs, con.name)
    a, b = exactlp.solve(lp), exactlp.solve(padded)
    assert (b.status, b.values, b.objective) == (a.status, a.values, a.objective)
    assert (b.phase1_pivots, b.phase2_pivots) == (a.phase1_pivots, a.phase2_pivots)
    assert b.duals[:at] + b.duals[at + 1:] == a.duals


@st.composite
def lps_with_a_dependent_row(draw):
    """A feasible, boxed LP with fractional coefficients, right-hand sides of
    either sign (negative ones flip their rows), and an equality that combines
    two others, so phase 1 has a redundant row to drop.  Every row holds at a
    drawn point `x`, which keeps the LP feasible."""
    n = draw(st.integers(min_value=1, max_value=3))
    names = [f"v{i}" for i in range(n)]
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = {v: draw(st.fractions(min_value=0, max_value=3, max_denominator=2)) for v in names}

    def at_x(coeffs):
        return sum((c * x[v] for v, c in coeffs.items()), Fraction(0))

    a1, a2 = ({v: draw(frac) for v in names} for _ in range(2))
    k1, k2 = draw(frac), draw(frac)
    combo = {v: k1 * a1[v] + k2 * a2[v] for v in names}
    rows = [(a, exactlp.EQ, at_x(a)) for a in (a1, a2, combo)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        coeffs = {v: draw(frac) for v in names}
        slack = draw(st.fractions(min_value=0, max_value=1, max_denominator=2))
        if draw(st.booleans()):
            rows.append((coeffs, exactlp.LE, at_x(coeffs) + slack))
        else:
            rows.append((coeffs, exactlp.GE, at_x(coeffs) - slack))
    lp = exactlp.LpProblem("dep", draw(st.sampled_from(["min", "max"])), names)
    lp.set_objective({v: draw(frac) for v in names})
    for coeffs, rel, rhs in draw(st.permutations(rows)):
        lp.add_constraint(coeffs, rel, rhs)
    for v in names:
        lp.add_constraint({v: 1}, exactlp.LE, x[v] + draw(st.integers(min_value=0, max_value=2)))
    return lp


def _dependent_rows_example():
    # phase 1 leaves the second equality's artificial basic in the tableau row of
    # v2 <= 1, whose slack is nonbasic: rows 0-2 have rank 2 at the point (1, 1, 1)
    lp = exactlp.LpProblem("dep", "min", ["v0", "v1", "v2"])
    lp.add_constraint({"v1": -1, "v2": -1}, exactlp.EQ, -2)
    lp.add_constraint({"v0": -1, "v2": Fraction(1, 2)}, exactlp.EQ, Fraction(-1, 2))
    lp.add_constraint({"v0": Fraction(-1, 2), "v2": Fraction(1, 4)}, exactlp.EQ, Fraction(-1, 4))
    for v in ("v0", "v1", "v2"):
        lp.add_constraint({v: 1}, exactlp.LE, 1)
    return lp


@given(lps_with_a_dependent_row())
@example(_dependent_rows_example())
@settings(max_examples=200, deadline=None)
def test_certificates_hold_when_phase_1_drops_a_row(lp):
    s = exactlp.solve(lp)
    assert s.status == exactlp.OPTIMAL
    assert s.objective == lpbrute.best_vertex_value(lp)
    assert exactlp.check_certificates(lp, s) == []
    # the point is a vertex: its tight rows and zero variables have full rank
    assert tight_system_rank(lp, s.values) == len(lp.variables)


def _x_equal_to_1(sense):
    lp = exactlp.LpProblem("pin", sense, ["x"])
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": 1}, exactlp.LE, 1)
    lp.add_constraint({"x": 1}, exactlp.GE, 1)
    return lp


def _claimed(values, objective, duals):
    return exactlp.LpSolution(exactlp.OPTIMAL, values, Fraction(objective), tuple(map(Fraction, duals)))


@pytest.mark.parametrize(
    "sense, message",
    [
        # a minimum wants y <= 0 on a <= row and y >= 0 on a >= row; a maximum the reverse
        ("min", "dual sign violated on <= row 0: 1/2"),
        ("max", "dual sign violated on >= row 1: 1/2"),
    ],
)
def test_certificate_dual_of_the_wrong_sign(sense, message):
    # x = 1 makes both rows tight and the duals 1/2, 1/2 keep the reduced cost of x at 0
    lp = _x_equal_to_1(sense)
    assert exactlp.check_certificates(lp, _claimed({"x": Fraction(1)}, 1, ("1/2", "1/2"))) == [message]


def test_certificate_broken_complementary_slackness():
    # the dual 3/2, -1/2 is feasible but charges the slack row x <= 3
    lp = exactlp.LpProblem("cs", "min", ["x"])
    lp.set_objective({"x": 1})
    lp.add_constraint({"x": 1}, exactlp.GE, 1)
    lp.add_constraint({"x": 1}, exactlp.LE, 3)
    s = _claimed({"x": Fraction(1)}, 1, ("3/2", "-1/2"))
    assert exactlp.check_certificates(lp, s) == [
        "complementary slackness violated on row 1",
        "duality gap: primal 1 vs dual 0",
    ]


def _cover_xy(cost_y):
    lp = exactlp.LpProblem("cover", "min", ["x", "y"])
    lp.set_objective({"x": 1, "y": cost_y})
    lp.add_constraint({"x": 1, "y": 1}, exactlp.GE, 1, name="cover")
    return lp


def test_certificate_reduced_cost_of_the_wrong_sign():
    # y costs 0 but the cover row's dual 1 prices it at 1
    lp = _cover_xy(0)
    s = _claimed({"x": Fraction(1), "y": Fraction(0)}, 1, (1,))
    assert exactlp.check_certificates(lp, s) == ["dual infeasible at y: reduced cost -1 has the wrong sign"]


def test_certificate_variable_pinned_at_zero_is_nonzero():
    # y's reduced cost 2 - 1 > 0 holds it at 0, and the half it carries opens a gap
    lp = _cover_xy(2)
    s = _claimed({"x": Fraction(1, 2), "y": Fraction(1, 2)}, "3/2", (1,))
    assert exactlp.check_certificates(lp, s) == [
        "reduced cost of y pins it at 0 but it is 1/2",
        "duality gap: primal 3/2 vs dual 1",
    ]


def test_certificate_duality_gap():
    lp = _cover_xy(2)
    s = _claimed({"x": Fraction(1), "y": Fraction(0)}, 2, (1,))
    assert exactlp.check_certificates(lp, s) == ["duality gap: primal 2 vs dual 1"]


def test_certificate_dual_length_mismatch():
    # the row findings come first, then the length ends the check
    lp = _cover_xy(2)
    s = _claimed({"x": Fraction(0), "y": Fraction(0)}, 0, ())
    assert exactlp.check_certificates(lp, s) == [
        "constraint 0 (cover) violated: 0 vs 1",
        "dual vector length mismatch",
    ]


_MUTATIONS = ("none", "point", "dual", "dual sign", "objective", "short duals", "missing value")


@given(lps_with_a_dependent_row(), st.sampled_from(_MUTATIONS), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_certificates_match_the_fraction_reference(lp, mutation, data):
    """The integer checks word every finding as the plain `Fraction` ones do,
    on optimal answers and on answers broken in one of six ways."""
    s = exactlp.solve(lp)
    assert s.status == exactlp.OPTIMAL
    delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=6).filter(bool))
    values, duals, objective = dict(s.values), list(s.duals), s.objective
    if mutation == "point":
        v = data.draw(st.sampled_from(lp.variables))
        values[v] += delta
    elif mutation == "dual":
        duals[data.draw(st.integers(0, len(duals) - 1))] += delta
    elif mutation == "dual sign":
        i = data.draw(st.integers(0, len(duals) - 1))
        duals[i] = -duals[i] if duals[i] else delta
    elif mutation == "objective":
        objective += delta
    elif mutation == "short duals":
        duals.pop()
    elif mutation == "missing value":
        del values[data.draw(st.sampled_from(lp.variables))]
    claimed = replace(s, values=values, duals=tuple(duals), objective=objective)
    assert exactlp.violations(lp, values) == certbrute.violations(lp, values)
    assert exactlp.check_certificates(lp, claimed) == certbrute.check_certificates(lp, claimed)


# -- the callers take only certified answers -----------------------------------


def _round_p4():
    # P4 at budget 1 has relaxation value 1: the cut answers it
    blockset.solve_gbs_lp(blockset.root_instance(corpus.p4(), 1))


def _round_bad_star():
    # the star's cut answer has no good certificate: the walk answers it
    e2 = [("x0", f"y{i}") for i in range(1, 6)]
    e1 = [(f"y{i}", f"o{i}") for i in range(1, 6)]
    blockset.solve_gbs_lp(blockset.GbsInstance(Graph.build(e1 + e2), tuple(e1), tuple(e2), 4))


def _balance_stable_tree():
    # a stable tree: the rounding solves no LP, and the cycle answers its acceleration LPs
    g = corpus.random_tree(10, 12)
    bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))


def _balance_matching_shrinker():
    # the blocking set lowers the matching number: the simplex answers the acceleration LP
    g = corpus.matching_shrinker()
    bargain.balanced_outcome(g, blockset.stabilize(g), matching.matching_number(g))


@pytest.mark.parametrize(
    "caller, lp_name, answerer",
    [
        pytest.param(_round_p4, "blockset", (blockset, "_cut_answer"), id="_round_p4-blockset"),
        pytest.param(_round_bad_star, "blockset", (blockset, "_walk"), id="_round_bad_star-blockset"),
        pytest.param(
            _balance_stable_tree,
            "surplus-acceleration",
            (bargain, "_cycle_answer"),
            id="_balance_stable_tree-surplus-acceleration",
        ),
        pytest.param(
            _balance_matching_shrinker,
            "surplus-acceleration",
            (exactlp, "solve"),
            id="_balance_matching_shrinker-surplus-acceleration",
        ),
    ],
)
def test_caller_rejects_an_answer_that_is_not_optimal(monkeypatch, caller, lp_name, answerer):
    # `answerer` is what answers the caller's LP: the cut, the walk, the cycle or the simplex
    answered = []

    def infeasible(*args):
        answered.append(args)
        return exactlp.LpSolution(exactlp.INFEASIBLE)

    monkeypatch.setattr(*answerer, infeasible)
    with pytest.raises(InternalInvariantError, match=f"^{lp_name} LP not optimal: infeasible$"):
        caller()
    assert len(answered) == 1


def test_certified_returns_the_proven_answer_itself():
    lp = fractional_matching_lp([("a", "b"), ("b", "c")], ["a", "b", "c"])
    s = exactlp.solve(lp)
    assert exactlp.certified(lp, s) is s
    tampered = replace(s, duals=(s.duals[0] + Fraction(1, 7),) + s.duals[1:])
    with pytest.raises(InternalInvariantError, match="^fm LP not certified: "):
        exactlp.certified(lp, tampered)
