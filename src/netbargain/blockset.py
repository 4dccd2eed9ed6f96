"""Approximate minimum blocking sets in sparse graphs via LP iterative rounding.

A blocking set is a set of edges whose stability constraints may be
dropped so that an allocation of the matching number covers everything
else.  The rounding recursion works on a generalized instance (only a
designated edge class is droppable, the budget is a parameter), peels
off certified structure from an optimal basic solution of the exact
relaxation, and falls back to a direct rounding step when the extreme
point is uniformly fractional.  Three invariants are asserted at every
return:

  I1  the allocation covers every non-blocked edge,
  I2  the allocation total stays within the budget,
  I3  the blocking set is at most (2*omega + 1) times the node's
      relaxation value, omega being the sparsity of the solved graph.

Non-bipartite inputs are handled by the two-copy reduction at a factor-2
cost in the certified approximation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from . import exactlp
from .errors import InternalInvariantError, PreconditionError
from .graphcore import (
    DoubledGraph,
    Edge,
    Graph,
    bipartite_double,
    compute_sparsity,
    edge_key,
    is_bipartite,
    pull_back,
    uncovered_edge,
)
from .matching import matching_number

_Z = Fraction(0)
_ONE = Fraction(1)
_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class GbsInstance:
    """Graph, droppable/protected edge partition, and integer budget."""

    graph: Graph
    e1: tuple[Edge, ...]
    e2: tuple[Edge, ...]
    nu: int

    def __post_init__(self):
        e1 = tuple(sorted(edge_key(*e) for e in self.e1))
        e2 = tuple(sorted(edge_key(*e) for e in self.e2))
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        s1, s2 = set(e1), set(e2)
        if s1 & s2:
            raise PreconditionError("edge classes overlap")
        if s1 | s2 != self.graph.edge_set:
            raise PreconditionError("edge classes do not partition the edge set")
        if not isinstance(self.nu, int) or isinstance(self.nu, bool) or self.nu < 0:
            raise PreconditionError(f"budget must be a nonnegative integer, got {self.nu!r}")


@dataclass(frozen=True)
class GoodCertificate:
    """A structure admitting a standard peeling step.

    kind is one of "unit_vertex" (x hits 1 at `vertex`), "zero_edge"
    (z vanishes at `edge`), "heavy_edge" (z at least 1/3 at `edge`).
    """

    kind: str
    vertex: str | None = None
    edge: Edge | None = None


@dataclass(frozen=True)
class BadPartition:
    """Validated shape of a uniformly fractional budget-tight extreme point.

    All x values are 1-alpha on `x_side`, alpha on `y_side` and 0 on
    `o_side`, with alpha above 2/3 and every droppable-edge variable
    equal to 1-alpha.
    """

    x_side: tuple[str, ...]
    y_side: tuple[str, ...]
    o_side: tuple[str, ...]
    alpha: Fraction


@dataclass(frozen=True)
class ExtremePoint:
    """Optimal basic solution of the relaxation with tight-set bookkeeping."""

    x: dict[str, Fraction]
    z: dict[Edge, Fraction]
    objective: Fraction
    alpha: Fraction | None
    tight_e1: frozenset[Edge]
    tight_e2: frozenset[Edge]
    budget_tight: bool
    classification: GoodCertificate | BadPartition | None


@dataclass(frozen=True)
class BlockingSetResult:
    blocking_set: tuple[Edge, ...]
    x_hat: dict[str, Fraction]
    root_lp_value: Fraction
    guarantee_factor: Fraction
    bound_holds: bool
    trace: tuple[str, ...]
    stats: dict[str, int]


def root_instance(g: Graph) -> GbsInstance:
    """Every edge droppable; budget equals the matching number."""
    return GbsInstance(g, g.edges, (), matching_number(g))


# ---------------------------------------------------------------------------
# relaxation


def _build_lp(inst: GbsInstance) -> tuple[exactlp.LpProblem, dict[Edge, int], dict[Edge, int], int]:
    g = inst.graph
    xnames = [f"x {v}" for v in g.vertices]
    znames = [f"z {u} {v}" for u, v in inst.e1]
    lp = exactlp.LpProblem("blockset", "min", xnames + znames)
    lp.set_objective({zn: 1 for zn in znames})
    e1_rows = {}
    for u, v in inst.e1:
        e1_rows[(u, v)] = lp.add_constraint(
            {f"x {u}": 1, f"x {v}": 1, f"z {u} {v}": 1}, exactlp.GE, 1, name=f"cov1 {u} {v}"
        )
    e2_rows = {}
    for u, v in inst.e2:
        e2_rows[(u, v)] = lp.add_constraint(
            {f"x {u}": 1, f"x {v}": 1}, exactlp.GE, 1, name=f"cov2 {u} {v}"
        )
    budget_row = lp.add_constraint({xn: 1 for xn in xnames}, exactlp.LE, inst.nu, name="budget")
    return lp, e1_rows, e2_rows, budget_row


def relaxation_value(inst: GbsInstance) -> Fraction:
    """Optimal value of the relaxation, with no structural analysis.

    Works on any graph; used for the certificate that lower-bounds the
    optimum blocking set size.
    """
    lp, _, _, _ = _build_lp(inst)
    sol = exactlp.solve(lp)
    if sol.status != exactlp.OPTIMAL:
        raise InternalInvariantError(f"relaxation not solvable: {sol.status}")
    return sol.objective


def _uniform_alpha(values: Iterable[Fraction]) -> Fraction:
    """The single fractional level of a budget-tight fractional vertex.

    All fractional entries must lie in {a, 1-a} for one a; returns the
    larger of the pair.  Raises when the two-level structure fails.
    """
    fracs = sorted({v for v in values if 0 < v < 1})
    if not fracs:
        raise InternalInvariantError("no fractional entries")
    lo = fracs[0]
    allowed = {lo, 1 - lo}
    if any(v not in allowed for v in fracs):
        raise InternalInvariantError(f"fractional levels {fracs} exceed one complementary pair")
    return max(lo, 1 - lo)


def solve_gbs_lp(inst: GbsInstance) -> ExtremePoint:
    """Optimal basic solution of the relaxation, classified when positive.

    The instance graph must be bipartite: fractional solutions are
    checked against the two-level value structure, and a returned
    BadPartition has passed all shape checks.  Zero-value solutions are
    never classified: the caller terminates on them directly.
    """
    lp, e1_rows, e2_rows, budget_row = _build_lp(inst)
    sol = exactlp.solve(lp)
    if sol.status != exactlp.OPTIMAL:
        raise InternalInvariantError(f"relaxation not solvable: {sol.status}")
    bad = exactlp.violations(lp, sol.values)
    if bad:
        raise InternalInvariantError(f"relaxation solution infeasible: {'; '.join(bad)}")
    g = inst.graph
    x = {v: sol.values[f"x {v}"] for v in g.vertices}
    z = {(u, v): sol.values[f"z {u} {v}"] for u, v in inst.e1}

    tight_e1 = frozenset(e for e, row in e1_rows.items() if row in sol.defining_rows)
    tight_e2 = frozenset(e for e, row in e2_rows.items() if row in sol.defining_rows)
    budget_tight = budget_row in sol.defining_rows
    fractional = any(
        val.denominator != 1 for val in chain(x.values(), z.values())
    )

    alpha = None
    if fractional:
        if not budget_tight:
            raise InternalInvariantError(
                "fractional basic solution without a tight budget row on a bipartite instance"
            )
        alpha = _uniform_alpha(chain(x.values(), z.values()))

    ep = ExtremePoint(
        x=x,
        z=z,
        objective=sol.objective,
        alpha=alpha,
        tight_e1=tight_e1,
        tight_e2=tight_e2,
        budget_tight=budget_tight,
        classification=None,
    )
    if sol.objective > 0:
        ep = replace(ep, classification=classify(ep, inst))
    return ep


def classify(ep: ExtremePoint, inst: GbsInstance) -> GoodCertificate | BadPartition:
    """Certificate selection: unit vertex, then zero edge, then heavy edge.

    Within a kind the first hit in canonical order wins.  A point with
    no certificate must exhibit the uniformly fractional shape, which is
    fully validated before being returned.
    """
    for v in inst.graph.vertices:
        if ep.x[v] == 1:
            return GoodCertificate("unit_vertex", vertex=v)
    for e in inst.e1:
        if ep.z[e] == 0:
            return GoodCertificate("zero_edge", edge=e)
    for e in inst.e1:
        if ep.z[e] >= _THIRD:
            return GoodCertificate("heavy_edge", edge=e)
    return _validate_bad(ep, inst)


def _validate_bad(ep: ExtremePoint, inst: GbsInstance) -> BadPartition:
    g = inst.graph
    if not ep.budget_tight or ep.alpha is None:
        raise InternalInvariantError("uncertified point is not budget-tight fractional")
    alpha = ep.alpha
    if alpha <= Fraction(2, 3):
        raise InternalInvariantError(f"uncertified point with dominant level {alpha} <= 2/3")
    one_minus = 1 - alpha
    if any(val != one_minus for val in ep.z.values()):
        raise InternalInvariantError("edge variables are not uniformly at the low level")

    x_side, y_side, o_side = [], [], []
    for v in g.vertices:
        val = ep.x[v]
        if val == one_minus:
            x_side.append(v)
        elif val == alpha:
            y_side.append(v)
        elif val == 0:
            o_side.append(v)
        else:
            raise InternalInvariantError(f"allocation level {val} at {v} outside the partition")
    y_set = set(y_side)
    quiet = set(x_side) | set(o_side)

    for u, v in g.edges:
        if u in quiet and v in quiet:
            raise InternalInvariantError(f"edge {u}-{v} inside the low-allocation set")
        if (u in y_set) == (v in y_set):
            raise InternalInvariantError(f"edge {u}-{v} does not cross the high-allocation set")
    o_set = set(o_side)
    for u, v in ep.tight_e1:
        if not ((u in o_set and v in y_set) or (v in o_set and u in y_set)):
            raise InternalInvariantError(f"defining droppable edge {u}-{v} not between zero and high side")
    _check_spanning_tree(ep.tight_e2, set(x_side) | y_set)

    nu = inst.nu
    if not (2 * nu > len(x_side) + len(y_side) and nu < len(y_side)):
        raise InternalInvariantError(
            f"budget {nu} outside ({(len(x_side) + len(y_side))}/2, {len(y_side)})"
        )
    return BadPartition(tuple(x_side), tuple(y_side), tuple(o_side), alpha)


def _check_spanning_tree(edges: frozenset[Edge], vertices: set[str]) -> None:
    if len(edges) != max(len(vertices) - 1, 0):
        raise InternalInvariantError(
            f"defining protected edges: {len(edges)} edges cannot span {len(vertices)} vertices as a tree"
        )
    parent: dict[str, str] = {v: v for v in vertices}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if u not in parent or v not in parent:
            raise InternalInvariantError(f"tree edge {u}-{v} leaves the two allocation classes")
        ru, rv = find(u), find(v)
        if ru == rv:
            raise InternalInvariantError(f"cycle among defining protected edges at {u}-{v}")
        parent[ru] = rv
    if vertices and len({find(v) for v in vertices}) != 1:
        raise InternalInvariantError("defining protected edges do not connect both allocation classes")


# ---------------------------------------------------------------------------
# rounding recursion


class _Recorder:
    __slots__ = ("trace", "stats", "step", "root_lp_value")

    def __init__(self) -> None:
        self.trace: list[str] = []
        self.stats = {
            "lp_solves": 0,
            "ir_returns": 0,
            "lemma_two_checks": 0,
            "bad_leaves": 0,
            "case1": 0,
            "case2": 0,
            "case3": 0,
            "leaf": 0,
        }
        self.step = 0
        self.root_lp_value: Fraction | None = None

    def line(self, case: str, inst: GbsInstance) -> None:
        self.step += 1
        self.trace.append(
            f"step={self.step} case={case} |V|={inst.graph.n} "
            f"|E1|={len(inst.e1)} |E2|={len(inst.e2)} nu={inst.nu}"
        )


def _drop_isolated(inst: GbsInstance) -> tuple[GbsInstance, tuple[str, ...]]:
    isolated = tuple(v for v in inst.graph.vertices if inst.graph.degree(v) == 0)
    if not isolated:
        return inst, ()
    kept = tuple(v for v in inst.graph.vertices if inst.graph.degree(v) > 0)
    g = Graph(kept, inst.graph.edges)
    return GbsInstance(g, inst.e1, inst.e2, inst.nu), isolated


def _assert_node_invariants(
    inst: GbsInstance,
    x: Mapping[str, Fraction],
    blocked: frozenset[Edge],
    omega: Fraction,
    lp_value: Fraction,
) -> None:
    bare = uncovered_edge((e for e in inst.graph.edges if e not in blocked), x)
    if bare is not None:
        raise InternalInvariantError(f"I1 violated at {bare[0]}-{bare[1]}")
    if sum(x.values(), _Z) > inst.nu:
        raise InternalInvariantError("I2 violated")
    if len(blocked) > (2 * omega + 1) * lp_value:
        raise InternalInvariantError(
            f"I3 violated: {len(blocked)} > (2*{omega}+1)*{lp_value}"
        )


def _ir(
    inst: GbsInstance, omega: Fraction, rec: _Recorder, depth: int, limit: int | None = None
) -> tuple[dict[str, Fraction], frozenset[Edge]]:
    if limit is None:
        # every recursive step strictly decreases |V| + |E1|
        limit = inst.graph.n + len(inst.e1) + 1
    if depth > limit:
        raise InternalInvariantError("recursion failed to make progress")
    inst0 = inst
    inst, isolated = _drop_isolated(inst)

    if inst.graph.m == 0:
        rec.line("leaf", inst)
        rec.stats["leaf"] += 1
        lp_value = _Z
        x: dict[str, Fraction] = {v: _Z for v in inst.graph.vertices}
        blocked: frozenset[Edge] = frozenset()
    else:
        ep = solve_gbs_lp(inst)
        rec.stats["lp_solves"] += 1
        if ep.alpha is not None:
            rec.stats["lemma_two_checks"] += 1
        if depth == 0 and rec.root_lp_value is None:
            rec.root_lp_value = ep.objective
        lp_value = ep.objective
        if ep.objective == 0:
            # every droppable edge already at zero: the point itself settles the node
            rec.line("leaf", inst)
            rec.stats["leaf"] += 1
            x, blocked = dict(ep.x), frozenset()
        else:
            cert = ep.classification
            if isinstance(cert, GoodCertificate):
                if cert.kind == "unit_vertex":
                    rec.line("1", inst)
                    rec.stats["case1"] += 1
                    u = cert.vertex
                    sub = GbsInstance(
                        inst.graph.without_vertex(u),
                        tuple(e for e in inst.e1 if u not in e),
                        tuple(e for e in inst.e2 if u not in e),
                        inst.nu - 1,
                    )
                    x, blocked = _ir(sub, omega, rec, depth + 1, limit)
                    x = dict(x)
                    x[u] = _ONE
                elif cert.kind == "zero_edge":
                    rec.line("2", inst)
                    rec.stats["case2"] += 1
                    e = cert.edge
                    sub = GbsInstance(
                        inst.graph,
                        tuple(d for d in inst.e1 if d != e),
                        inst.e2 + (e,),
                        inst.nu,
                    )
                    x, blocked = _ir(sub, omega, rec, depth + 1, limit)
                else:  # heavy_edge
                    rec.line("3", inst)
                    rec.stats["case3"] += 1
                    e = cert.edge
                    sub = GbsInstance(
                        inst.graph.without_edges([e]),
                        tuple(d for d in inst.e1 if d != e),
                        inst.e2,
                        inst.nu,
                    )
                    x, blocked = _ir(sub, omega, rec, depth + 1, limit)
                    blocked = blocked | {e}
            else:
                rec.line("bad", inst)
                rec.stats["bad_leaves"] += 1
                x, blocked = bad_leaf_round(inst, cert, omega=omega, lp_value=ep.objective)

    x = dict(x)
    for v in isolated:
        x[v] = _Z
    _assert_node_invariants(inst0, x, blocked, omega, lp_value)
    rec.stats["ir_returns"] += 1
    return x, blocked


def ir_solve(
    inst: GbsInstance, omega: Fraction | None = None
) -> tuple[dict[str, Fraction], frozenset[Edge]]:
    """Run the rounding recursion on a bipartite instance.

    Returns the allocation and blocking set; every internal return has
    passed the I1-I3 assertions against the node's own relaxation value.
    """
    if is_bipartite(inst.graph) is None:
        raise PreconditionError("rounding runs on bipartite instances; see stabilize()")
    om = Fraction(omega) if omega is not None else compute_sparsity(inst.graph).omega
    rec = _Recorder()
    return _ir(inst, om, rec, 0)


def pick_min_degree_removals(
    candidates: Iterable[str], edges: Iterable[Edge], count: int
) -> tuple[tuple[str, int], ...]:
    """Repeatedly remove the minimum-degree candidate (ties: lexicographic).

    Degrees are recomputed against the surviving edges each round.
    Returns (vertex, degree-at-removal) pairs in removal order.
    """
    remaining = sorted(candidates)
    live = [edge_key(*e) for e in edges]
    picked: list[tuple[str, int]] = []
    for _ in range(count):
        deg = {y: 0 for y in remaining}
        for u, v in live:
            if u in deg:
                deg[u] += 1
            if v in deg:
                deg[v] += 1
        choice = min(remaining, key=lambda y: (deg[y], y))
        picked.append((choice, deg[choice]))
        remaining.remove(choice)
        live = [e for e in live if choice not in e]
    return tuple(picked)


def bad_leaf_round(
    inst: GbsInstance,
    bad: BadPartition,
    omega: Fraction,
    lp_value: Fraction,
) -> tuple[dict[str, Fraction], frozenset[Edge]]:
    """Direct rounding of a uniformly fractional extreme point.

    Keeps a unit allocation on all but the |Y|-budget lowest-degree
    high-side vertices and blocks every edge at the removed ones.
    """
    y_side = list(bad.y_side)
    nu = inst.nu
    if not (2 * nu > len(bad.x_side) + len(y_side) and nu < len(y_side)):
        raise InternalInvariantError("fractional-leaf budget bounds violated")

    surplus = len(y_side) - nu
    picked = pick_min_degree_removals(y_side, inst.e2, surplus)
    removed = {v for v, _ in picked}

    degree_sum = sum(d for _, d in picked)
    if degree_sum > 2 * omega * surplus:
        raise InternalInvariantError(
            f"greedy degree bound violated: {degree_sum} > 2*{omega}*{surplus}"
        )

    keep = set(y_side) - removed
    x = {v: (_ONE if v in keep else _Z) for v in inst.graph.vertices}
    blocked = frozenset(e for e in inst.graph.edges if e[0] in removed or e[1] in removed)

    if sum(x.values(), _Z) != nu:
        raise InternalInvariantError("fractional-leaf allocation total != budget")
    _assert_node_invariants(inst, x, blocked, omega, lp_value)
    return x, blocked


# ---------------------------------------------------------------------------
# full pipeline


def _double_instance(inst: GbsInstance, d: DoubledGraph) -> GbsInstance:
    host_e1 = [h for e in inst.e1 for h in d.edge_map[e]]
    host_e2 = [h for e in inst.e2 for h in d.edge_map[e]]
    return GbsInstance(d.host, tuple(host_e1), tuple(host_e2), 2 * inst.nu)


def stabilize_instance(inst: GbsInstance, omega: Fraction | None = None) -> BlockingSetResult:
    """Blocking set plus allocation with a certified approximation factor.

    Bipartite graphs are rounded directly (factor 2*omega + 1); others go
    through the two-copy reduction (factor 8*omega + 2).  The reported
    relaxation value of the root instance is a lower bound on the optimum
    blocking set size, so bound_holds certifies the factor without
    knowing the optimum.
    """
    g = inst.graph
    om = Fraction(omega) if omega is not None else compute_sparsity(g).omega
    if om < 1:
        raise PreconditionError("sparsity parameter must be at least 1")
    rec = _Recorder()

    if is_bipartite(g) is not None:
        x, blocked = _ir(inst, om, rec, 0)
        root_value = rec.root_lp_value if rec.root_lp_value is not None else _Z
        factor = 2 * om + 1
    else:
        root_value = relaxation_value(inst)
        d = bipartite_double(g)
        host_inst = _double_instance(inst, d)
        xh, bh = _ir(host_inst, 2 * om, rec, 0)
        host_root = rec.root_lp_value if rec.root_lp_value is not None else _Z
        if host_root > 2 * root_value:
            raise InternalInvariantError("host relaxation exceeded twice the original value")
        x, blocked = pull_back(d, xh, bh)
        factor = 8 * om + 2

    bare = uncovered_edge((e for e in g.edges if e not in blocked), x)
    if bare is not None:
        raise InternalInvariantError(f"final cover violated at {bare[0]}-{bare[1]}")
    if sum(x.values(), _Z) > inst.nu:
        raise InternalInvariantError("final allocation exceeds the budget")

    bound_holds = len(blocked) <= factor * root_value
    if not bound_holds:
        raise InternalInvariantError("certified approximation bound violated")
    return BlockingSetResult(
        blocking_set=tuple(sorted(blocked)),
        x_hat=x,
        root_lp_value=root_value,
        guarantee_factor=factor,
        bound_holds=bound_holds,
        trace=tuple(rec.trace),
        stats=dict(rec.stats),
    )


def stabilize(g: Graph, omega: Fraction | None = None) -> BlockingSetResult:
    """Stabilize a plain graph: every edge droppable, budget = matching number."""
    return stabilize_instance(root_instance(g), omega=omega)
