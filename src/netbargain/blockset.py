"""Approximate minimum blocking sets in sparse graphs via LP iterative rounding.

A blocking set is a set of edges whose stability constraints may be
dropped so that an allocation of the matching number covers everything
else.  The rounding recursion works on a generalized instance (only a
designated edge class is droppable, the budget is a parameter), peels
off certified structure from an optimal solution of the exact
relaxation, and falls back to a direct rounding step when the extreme
point is uniformly fractional.  The relaxation is answered by
parametric minimum cut: on a bipartite instance the cover rows are
totally unimodular, so a few cuts over the budget row's multiplier find
two optimal covers whose mix is an optimal point, and the arc flows are
its duals.  A mix with no good certificate is replaced by the mix of an
adjacent pair of optimal covers, a vertex, which the bad-leaf rounding
needs; a walk through the minimum cuts of the last flow finds the pair.
Every answer passes the LP certificate check.  Three invariants are
asserted at every node, and once more on the final answer, by one
function:

  I1  the allocation covers every non-blocked edge,
  I2  the allocation total stays within the budget,
  I3  the blocking set is at most the factor times the relaxation value:
      (2*omega + 1) at a node, omega being the sparsity of the solved
      graph, and the certified factor of the answer at the root.

Non-bipartite inputs are handled by the two-copy reduction at a factor-2
cost in the certified approximation ratio.  A root instance whose game
has a nonempty core needs neither: the core's witness allocation settles
it with an empty blocking set and no LP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from . import exactlp
from .errors import InputError, InternalInvariantError, PreconditionError
from .graphcore import (
    DoubledGraph,
    Edge,
    Graph,
    _min_cut,
    bipartite_double,
    compute_sparsity,
    edge_key,
    is_bipartite,
    pull_back,
    uncovered_edge,
)
from .matching import CoreReport, assert_stable, core_status, fractional_matching_value

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
        # repeated edges collapse, as they do in Graph.build
        e1 = tuple(sorted({edge_key(*e) for e in self.e1}))
        e2 = tuple(sorted({edge_key(*e) for e in self.e2}))
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
    """Optimal solution of the relaxation: a mix of two optimal covers, a
    vertex when `walked`.  `budget_tight` says whether sum(x) = nu."""

    x: dict[str, Fraction]
    z: dict[Edge, Fraction]
    objective: Fraction
    alpha: Fraction | None
    budget_tight: bool
    classification: GoodCertificate | BadPartition | None
    #: row duals in the order `_build_lp` adds the rows: e1 covers, e2 covers, budget
    duals: tuple[Fraction, ...] = ()
    walked: bool = False


@dataclass(frozen=True)
class BlockingSetResult:
    blocking_set: tuple[Edge, ...]
    x_hat: dict[str, Fraction]
    root_lp_value: Fraction
    #: the computed sparsity of the input graph; `guarantee_factor` is derived from it
    omega: Fraction
    guarantee_factor: Fraction
    trace: tuple[str, ...]
    stats: dict[str, int]


def root_instance(g: Graph, nu: int) -> GbsInstance:
    """Every edge droppable; the budget `nu` is the caller's matching number of g."""
    return GbsInstance(g, g.edges, (), nu)


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


def _cover_cut(
    inst: GbsInstance, side: Mapping[str, int], lam: Fraction
) -> tuple[int, frozenset[str], frozenset[Edge], list[tuple[tuple[int, int, int, int], int]]]:
    """A vertex set X minimizing lam*|X| + (droppable edges X leaves bare)
    over the sets that cover every protected edge, as one minimum cut.

    With lam = p/q, s->u (colour 0) and v->t (colour 1) have capacity p
    and each edge is an arc from its colour-0 end, of capacity q when
    droppable and too heavy to cut when protected; X is the colour-0
    vertices on the sink side and the colour-1 vertices on the source
    side.  Returns the cut's capacity (q times the minimum), X, the
    droppable edges X leaves bare and each arc with its flow (vertex i is
    node i, s is n, t is n + 1; vertex arcs, then e1's, then e2's).
    """
    g = inst.graph
    p, q = lam.numerator, lam.denominator
    index = {v: i for i, v in enumerate(g.vertices)}
    s, t = g.n, g.n + 1
    # more than the cut that puts every vertex in X
    heavy = p * g.n + q * len(inst.e1) + 1
    arcs = [(s, i, p, 0) if side[v] == 0 else (i, t, p, 0) for i, v in enumerate(g.vertices)]
    for edges, cap in ((inst.e1, q), (inst.e2, heavy)):
        for u, v in edges:
            if side[u]:
                u, v = v, u
            arcs.append((index[u], index[v], cap, 0))
    flow, source_side, flows = _min_cut(g.n + 2, arcs, s, t)
    cover = frozenset([v for i, v in enumerate(g.vertices) if (i in source_side) == (side[v] == 1)])
    bare = frozenset([(u, v) for u, v in inst.e1 if u not in cover and v not in cover])
    return flow, cover, bare, list(zip(arcs, flows))


def _optimal_covers(inst: GbsInstance, side: Mapping[str, int]) -> tuple | None:
    """lam*, the budget row's optimal multiplier, two covers optimal at
    lam*, X_a of at least nu vertices and X_b of at most nu, and the arcs
    and flows of a maximum flow at lam*; None when no cover of e2 fits.

    The cover rows are totally unimodular, so the Lagrangian minimum at a
    multiplier lam is one `_cover_cut`.  At lam = 1/(n+1) it is a minimum
    vertex cover; if that fits the budget, it is optimal at lam* = 0 with
    no flow.  Otherwise Eisner-Severance search runs between it and the
    cut at lam = |E1|+1, a minimum cover of e2: it cuts where the lines
    of the two covers meet, and keeps the new cover on the side of nu its
    size falls, until a cut finds nothing below both lines.
    """
    g, nu = inst.graph, inst.nu
    _, a, bare_a, flows = _cover_cut(inst, side, Fraction(1, g.n + 1))
    if len(a) <= nu:
        return _Z, a, a, [(arc, 0) for arc, _ in flows]
    lam = Fraction(len(inst.e1) + 1)
    _, b, bare_b, flows = _cover_cut(inst, side, lam)
    if len(b) > nu:
        return None
    while len(b) < nu:
        lam = Fraction(len(bare_b) - len(bare_a), len(a) - len(b))
        flow, c, bare_c, flows = _cover_cut(inst, side, lam)
        if flow == lam.numerator * len(a) + lam.denominator * len(bare_a):
            break  # nothing below the two lines: lam is lam*
        if len(c) >= nu:
            a, bare_a = c, bare_c
        if len(c) <= nu:
            b, bare_b = c, bare_c
    return lam, a, b, flows


def _cut_answer(inst: GbsInstance, covers: tuple | None) -> exactlp.LpSolution:
    """The optimal point theta*X_a + (1-theta)*X_b with sum(x) = nu of
    two `_optimal_covers`, INFEASIBLE when there are none; the edge arcs'
    flows over q are the cover rows' duals and -lam* the budget row's.
    The caller certifies the answer."""
    if covers is None:
        return exactlp.LpSolution(exactlp.INFEASIBLE)
    lam, a, b, flows = covers
    g, nu = inst.graph, inst.nu
    bare_a, bare_b = [{(u, v) for u, v in inst.e1 if u not in x and v not in x} for x in (a, b)]
    theta = Fraction(nu - len(b), len(a) - len(b)) if len(a) != len(b) else _ONE
    # the point is theta on X_a's entries plus 1-theta on X_b's
    level = {(True, True): _ONE, (True, False): theta, (False, True): 1 - theta, (False, False): _Z}
    values = {f"x {v}": level[v in a, v in b] for v in g.vertices}
    values.update({f"z {u} {v}": level[(u, v) in bare_a, (u, v) in bare_b] for u, v in inst.e1})
    objective = theta * len(bare_a) + (1 - theta) * len(bare_b)
    duals = tuple([Fraction(f, lam.denominator) for _, f in flows[g.n:]]) + (-lam,)
    return exactlp.LpSolution(exactlp.OPTIMAL, values, objective, duals)


def _walk(inst: GbsInstance, side: Mapping[str, int], covers: tuple) -> exactlp.LpSolution:
    """The `_cut_answer` of an adjacent pair of optimal covers, a vertex.

    The minimum cuts at lam* are the closed sets of the residual graph
    (Picard-Queyranne); two that differ by one connected piece are
    adjacent (Stanley).  From S_a, the source side of X_a, the walk drops
    what reaches each vertex of S_a - S_b in turn, then adds what each
    vertex of S_b - S_a reaches.  Each set is closed, and the first two
    in a row whose cover sizes straddle nu are mixed.
    """
    lam, a, b, flows = covers
    g = inst.graph
    # the residual arcs of the flow, and the same arcs reversed
    ahead = [(u, v) for (u, v, cap, _), f in flows if f < cap] + [(v, u) for (u, v, _, _), f in flows if f > 0]
    behind = [(v, u) for u, v in ahead]

    def reach(i: int, arcs: list[tuple[int, int]]) -> set[int]:
        seen = {i}
        while new := {v for u, v in arcs if u in seen} - seen:
            seen |= new
        return seen

    s_a, s_b = [{i for i, v in enumerate(g.vertices) if (v in x) == (side[v] == 1)} for x in (a, b)]
    closed, last = s_a, a
    for i, arcs in [(i, behind) for i in sorted(s_a - s_b)] + [(i, ahead) for i in sorted(s_b - s_a)]:
        closed = closed - reach(i, arcs) if arcs is behind else closed | reach(i, arcs)
        cover = frozenset([v for j, v in enumerate(g.vertices) if (j in closed) == (side[v] == 1)])
        if len(cover) <= inst.nu:
            return _cut_answer(inst, (lam, last, cover, flows))
        last = cover
    raise InternalInvariantError("the walk between two minimum cuts left the minimum cuts")


def solve_gbs_lp(inst: GbsInstance) -> ExtremePoint:
    """Optimal solution of the relaxation of a bipartite instance,
    classified when positive.

    Cases 1-3 hold at any optimal point, so a `_cut_answer` with a good
    certificate is kept.  Only the bad-leaf shape needs a vertex: a
    positive one with none is replaced by the `_walk`'s vertex, whose
    classification is a fully validated BadPartition if it has none
    either.  Every answer is certified on the LP `_build_lp` builds, and
    a fractional one must be budget-tight and two-level.  Zero-value
    solutions are never classified: the caller terminates on them.
    """
    side = is_bipartite(inst.graph)
    if side is None:
        raise PreconditionError("the relaxation is answered on bipartite instances only")
    lp = _build_lp(inst)[0]
    covers = _optimal_covers(inst, side)
    ep = _optimal_point(inst, exactlp.certified(lp, _cut_answer(inst, covers)))
    if ep.objective == 0:
        return ep
    cert = _good_certificate(ep, inst)
    if cert is None:
        ep = _optimal_point(inst, exactlp.certified(lp, _walk(inst, side, covers)), walked=True)
        cert = classify(ep, inst)
    return replace(ep, classification=cert)


def _optimal_point(inst: GbsInstance, sol: exactlp.LpSolution, walked: bool = False) -> ExtremePoint:
    """The certified answer `sol` as an unclassified point, with the
    two-level check of a fractional one."""
    x = {v: sol.values[f"x {v}"] for v in inst.graph.vertices}
    z = {(u, v): sol.values[f"z {u} {v}"] for u, v in inst.e1}
    budget_tight = sum(x.values(), _Z) == inst.nu
    alpha = None
    if any(val.denominator != 1 for val in chain(x.values(), z.values())):
        if not budget_tight:
            raise InternalInvariantError(
                "fractional optimal point without a tight budget row on a bipartite instance"
            )
        alpha = _uniform_alpha(chain(x.values(), z.values()))
    return ExtremePoint(
        x=x,
        z=z,
        objective=sol.objective,
        alpha=alpha,
        budget_tight=budget_tight,
        classification=None,
        duals=sol.duals,
        walked=walked,
    )


def classify(ep: ExtremePoint, inst: GbsInstance) -> GoodCertificate | BadPartition:
    """Certificate selection: unit vertex, then zero edge, then heavy edge.

    Within a kind the first hit in canonical order wins.  A point with
    no certificate must exhibit the uniformly fractional shape, which is
    fully validated before being returned.
    """
    return _good_certificate(ep, inst) or _validate_bad(ep, inst)


def _good_certificate(ep: ExtremePoint, inst: GbsInstance) -> GoodCertificate | None:
    for v in inst.graph.vertices:
        if ep.x[v] == 1:
            return GoodCertificate("unit_vertex", vertex=v)
    for e in inst.e1:
        if ep.z[e] == 0:
            return GoodCertificate("zero_edge", edge=e)
    for e in inst.e1:
        if ep.z[e] >= _THIRD:
            return GoodCertificate("heavy_edge", edge=e)
    return None


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
    o_set, x, z = set(o_side), ep.x, ep.z
    for u, v in inst.e1:
        if x[u] + x[v] + z[(u, v)] == 1 and not ((u in o_set and v in y_set) or (v in o_set and u in y_set)):
            raise InternalInvariantError(f"tight droppable edge {u}-{v} not between zero and high side")
    _check_spanning_tree(_spanning_forest([e for e in inst.e2 if x[e[0]] + x[e[1]] == 1]), set(x_side) | y_set)

    nu = inst.nu
    if not (2 * nu > len(x_side) + len(y_side) and nu < len(y_side)):
        raise InternalInvariantError(
            f"budget {nu} outside ({(len(x_side) + len(y_side))}/2, {len(y_side)})"
        )
    return BadPartition(tuple(x_side), tuple(y_side), tuple(o_side), alpha)


def _spanning_forest(edges: Iterable[Edge]) -> frozenset[Edge]:
    """The edges, in order, that join two components of the edges before them."""
    component: dict[str, frozenset[str]] = {}
    forest = []
    for u, v in edges:
        cu, cv = component.get(u, frozenset([u])), component.get(v, frozenset([v]))
        if u not in cv:
            forest.append((u, v))
            component.update(dict.fromkeys(cu | cv, cu | cv))
    return frozenset(forest)


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


@dataclass(frozen=True)
class _Node:
    """One rounding step: its instance without isolated vertices, its LP
    value (0 for an edgeless leaf and for a root settled by the core
    witness, neither of which answers a relaxation), how the relaxation
    was answered ("cut", "walk", or None when it was not), whether
    the two-level check ran, its case, and what it adds to its child's
    answer: `unit_vertex` set to 1 or `blocked_edge`.
    """

    inst: GbsInstance
    isolated: tuple[str, ...]
    lp_value: Fraction
    answered_by: str | None
    two_level: bool
    case: str
    unit_vertex: str | None = None
    blocked_edge: Edge | None = None


def _drop_isolated(inst: GbsInstance) -> tuple[GbsInstance, tuple[str, ...]]:
    isolated = tuple([v for v in inst.graph.vertices if inst.graph.degree(v) == 0])
    if not isolated:
        return inst, ()
    kept = tuple([v for v in inst.graph.vertices if inst.graph.degree(v) > 0])
    g = Graph(kept, inst.graph.edges)
    return GbsInstance(g, inst.e1, inst.e2, inst.nu), isolated


def _assert_node_invariants(
    inst: GbsInstance,
    x: Mapping[str, Fraction],
    blocked: frozenset[Edge],
    factor: Fraction,
    lp_value: Fraction,
) -> None:
    """I1-I3 of an answer `(x, blocked)` to `inst`, whose relaxation value is `lp_value`."""
    bare = uncovered_edge((e for e in inst.graph.edges if e not in blocked), x)
    if bare is not None:
        raise InternalInvariantError(f"I1 violated at {bare[0]}-{bare[1]}")
    if sum(x.values(), _Z) > inst.nu:
        raise InternalInvariantError("I2 violated")
    if len(blocked) > factor * lp_value:
        raise InternalInvariantError(f"I3 violated: {len(blocked)} > {factor}*{lp_value}")


def _ir(
    inst: GbsInstance, omega: Fraction
) -> tuple[dict[str, Fraction], frozenset[Edge], list[_Node], ExtremePoint | None]:
    """The rounding recursion: every node has at most one child, so descend
    to a leaf, then unwind the nodes, asserting I1-I3 at each one.  Also
    returns the root's extreme point, None when the root solves no LP.
    """
    # every step strictly decreases |V| + |E1|
    limit = inst.graph.n + len(inst.e1) + 1
    nodes: list[_Node] = []
    root = None
    while True:
        if len(nodes) > limit:
            raise InternalInvariantError("recursion failed to make progress")
        inst, isolated = _drop_isolated(inst)
        if inst.graph.m == 0:
            nodes.append(_Node(inst, isolated, _Z, None, False, "leaf"))
            x, blocked = {v: _Z for v in inst.graph.vertices}, frozenset()
            break
        ep = solve_gbs_lp(inst)
        if not nodes:
            root = ep
        cert = ep.classification
        solved = (inst, isolated, ep.objective, "walk" if ep.walked else "cut", ep.alpha is not None)
        if ep.objective == 0:
            # every droppable edge already at zero: the point itself settles the node
            nodes.append(_Node(*solved, "leaf"))
            x, blocked = dict(ep.x), frozenset()
            break
        if not isinstance(cert, GoodCertificate):
            nodes.append(_Node(*solved, "bad"))
            x, blocked = bad_leaf_round(inst, cert, omega=omega, lp_value=ep.objective)
            break
        if cert.kind == "unit_vertex":
            u = cert.vertex
            nodes.append(_Node(*solved, "1", unit_vertex=u))
            inst = GbsInstance(
                inst.graph.without_vertex(u),
                tuple([e for e in inst.e1 if u not in e]),
                tuple([e for e in inst.e2 if u not in e]),
                inst.nu - 1,
            )
        elif cert.kind == "zero_edge":
            e = cert.edge
            nodes.append(_Node(*solved, "2"))
            inst = replace(inst, e1=tuple([d for d in inst.e1 if d != e]), e2=inst.e2 + (e,))
        else:  # heavy_edge
            e = cert.edge
            nodes.append(_Node(*solved, "3", blocked_edge=e))
            inst = replace(
                inst, graph=inst.graph.without_edges([e]), e1=tuple([d for d in inst.e1 if d != e])
            )

    for node in reversed(nodes):
        if node.unit_vertex is not None:
            x[node.unit_vertex] = _ONE
        if node.blocked_edge is not None:
            blocked |= {node.blocked_edge}
        for v in node.isolated:
            x[v] = _Z
        _assert_node_invariants(node.inst, x, blocked, 2 * omega + 1, node.lp_value)
    return x, blocked, nodes, root


def _trace(nodes: list[_Node]) -> tuple[str, ...]:
    return tuple([
        f"step={step} case={n.case} |V|={n.inst.graph.n} "
        f"|E1|={len(n.inst.e1)} |E2|={len(n.inst.e2)} nu={n.inst.nu}"
        for step, n in enumerate(nodes, 1)
    ])


def _stats(nodes: list[_Node]) -> dict[str, int]:
    cases = Counter(n.case for n in nodes)
    return {
        # relaxations answered: edgeless leaves and a root settled by the core witness answer none
        "lp_solves": sum(n.answered_by is not None for n in nodes),
        "ir_returns": len(nodes),
        "lemma_two_checks": sum(n.two_level for n in nodes),
        "bad_leaves": cases["bad"],
        **{f"case{c}": cases[c] for c in "123"},
        "leaf": cases["leaf"],
    }


def ir_solve(inst: GbsInstance) -> tuple[dict[str, Fraction], frozenset[Edge]]:
    """Run the rounding recursion on a bipartite instance.

    Returns the allocation and blocking set; the answer at every node has
    passed the I1-I3 assertions against the node's own relaxation value,
    with the factor 2*omega + 1 of the instance's computed sparsity.
    """
    if is_bipartite(inst.graph) is None:
        raise PreconditionError("rounding runs on bipartite instances; see stabilize()")
    x, blocked, _, _ = _ir(inst, compute_sparsity(inst.graph).omega)
    return x, blocked


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
    _assert_node_invariants(inst, x, blocked, 2 * omega + 1, lp_value)
    return x, blocked


# ---------------------------------------------------------------------------
# full pipeline


def _double_instance(inst: GbsInstance, d: DoubledGraph) -> GbsInstance:
    host_e1 = [h for e in inst.e1 for h in d.edge_map[e]]
    host_e2 = [h for e in inst.e2 for h in d.edge_map[e]]
    return GbsInstance(d.host, tuple(host_e1), tuple(host_e2), 2 * inst.nu)


def _halved_host_value(
    inst: GbsInstance, d: DoubledGraph, host_inst: GbsInstance, root: ExtremePoint
) -> Fraction:
    """The relaxation value of `inst`, proven from the optimal root of its double.

    Swapping the two copies of every vertex maps the host relaxation onto
    itself, so the host root point and row duals, averaged over the two
    copies of every vertex and edge, are optimal for the relaxation of
    `inst`, at half the value; the budget dual carries over unchanged.
    They are checked as a certificate, and that LP is never solved.
    """
    lp, e1_rows, e2_rows, budget_row = _build_lp(inst)
    host_rows = {h: i for i, h in enumerate(host_inst.e1 + host_inst.e2)}
    duals = [_Z] * len(lp.constraints)
    for e, row in chain(e1_rows.items(), e2_rows.items()):
        h1, h2 = d.edge_map[e]
        duals[row] = (root.duals[host_rows[h1]] + root.duals[host_rows[h2]]) / 2
    duals[budget_row] = root.duals[-1]
    # the rounding drops isolated vertices, which sit at 0
    values = {
        f"x {v}": (root.x.get(c1, _Z) + root.x.get(c2, _Z)) / 2 for v, (c1, c2) in d.side_map.items()
    }
    for u, v in inst.e1:
        h1, h2 = d.edge_map[(u, v)]
        values[f"z {u} {v}"] = (root.z[h1] + root.z[h2]) / 2
    averaged = exactlp.LpSolution(exactlp.OPTIMAL, values, root.objective / 2, tuple(duals))
    return exactlp.certified(lp, averaged).objective


def stabilize_instance(inst: GbsInstance, core: CoreReport | None = None) -> BlockingSetResult:
    """Blocking set plus allocation with a certified approximation factor.

    omega is the sparsity of the graph, computed here exactly and returned
    on the result; no caller can set it.  Bipartite graphs are rounded
    directly (factor 2*omega + 1); others go through the two-copy
    reduction (factor 8*omega + 2).  The reported relaxation value of the
    root instance is a lower bound on the optimum blocking set size, so
    checking the answer's I3 against it certifies the factor without
    knowing the optimum.  On the two-copy path that value is half the host
    root's, proven by the averaged host point and duals passing a dual
    certificate check on the root instance's own LP, which is never
    solved.  Raises InputError when the budget cannot cover the protected
    edges, where the relaxation has no solution.

    `core` is the caller's `core_status` of the graph, and `inst` must then
    be the graph's root instance with the report's `nu`.  When that core is
    nonempty, its witness settles the instance with no rounding and no LP:
    with z = 0 the witness is a feasible point of the relaxation, whose
    objective sum(z) is never negative, so the relaxation value is 0 and
    the empty blocking set is optimal.  The factor is the one the rounding
    would certify.  The witness is checked as a stable allocation of `nu`,
    and I1-I3 of the answer are checked on it as on every other answer.
    """
    g = inst.graph
    om = compute_sparsity(g).omega
    if core is not None and (inst.e2 or inst.nu != core.nu):
        raise PreconditionError("a core report settles only the root instance of its graph")
    if inst.e2 and (need := fractional_matching_value(Graph(g.vertices, inst.e2))) > inst.nu:
        # by LP duality the relaxation is feasible iff this fractional matching fits the budget
        raise InputError(f"budget {inst.nu} cannot cover e2, whose fractional matching is {need}")

    bipartite = is_bipartite(g) is not None
    if core is not None and core.status == "nonempty":
        x, blocked = dict(core.witness_allocation), frozenset()
        assert_stable(g, inst.nu, x)  # the report is an input: check its witness again
        nodes = [_Node(inst, (), _Z, None, False, "core")]
        root_value = _Z
    elif bipartite:
        x, blocked, nodes, _ = _ir(inst, om)
        root_value = nodes[0].lp_value
    else:
        d = bipartite_double(g)
        host_inst = _double_instance(inst, d)
        xh, bh, nodes, root = _ir(host_inst, 2 * om)  # an odd cycle: the root solves its LP
        root_value = _halved_host_value(inst, d, host_inst, root)
        x, blocked = pull_back(d, xh, bh)
    factor = 2 * om + 1 if bipartite else 8 * om + 2
    # I1-I3 of the answer itself, against the root value and the factor it certifies
    _assert_node_invariants(inst, x, blocked, factor, root_value)
    return BlockingSetResult(
        blocking_set=tuple(sorted(blocked)),
        x_hat=x,
        root_lp_value=root_value,
        omega=om,
        guarantee_factor=factor,
        trace=_trace(nodes),
        stats=_stats(nodes),
    )


def stabilize(g: Graph) -> BlockingSetResult:
    """Stabilize a plain graph: every edge droppable, budget = matching number.

    Runs the core diagnosis first, so a stable graph is settled by its
    core witness, as the CLI settles it.
    """
    core = core_status(g)
    return stabilize_instance(root_instance(g, core.nu), core=core)
