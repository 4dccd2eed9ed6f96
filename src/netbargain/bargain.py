"""Balanced allocations on the stabilized graph via surplus-equalizing dynamics.

Once a blocking set has been removed, an allocation of the matching
number that covers every remaining edge can be driven to a state where,
for every remaining edge ij, the best outside option of i against j
equals that of j against i.  With a maximum matching this is exactly the
per-edge Nash split relative to outside options.  The best option of i
against j is 1 - x_i - x_k for the cheapest neighbour k != j of i, or
0 - x_i when i has no other neighbour, so every surplus at i is read off
i's two cheapest neighbours.

The driver alternates two moves, both exact over rationals:

  * a local transfer between the worst unbalanced pair, which never
    raises the top unbalanced surplus and shrinks the set of pairs
    sitting at it; and
  * an acceleration LP that pushes every surplus outside the frozen top
    group as low as possible, forcing the frozen group to grow.

Every acceleration LP answer passes `exactlp.certified`, and the run
checks its final allocation once: the start's total, a cover of every
edge, no negative share and every edge balanced.
Work is capped at |E'| LP solves and |E'|^2 transfers; exceeding either
cap signals an implementation bug, never an input problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import exactlp
from .blockset import BlockingSetResult
from .errors import InputError, InternalInvariantError, PreconditionError
from .graphcore import Edge, Graph, edge_key, uncovered_edge
from .matching import max_matching

_Z = Fraction(0)

Pair = tuple[str, str]


def _option(x: Mapping[str, Fraction], i: str, k: str | None) -> Fraction:
    """The outside option of i through neighbour k: 1 - x_i - x_k, or 0 - x_i for None."""
    return -x[i] if k is None else 1 - x[i] - x[k]


@dataclass(frozen=True)
class SurplusState:
    """All directed surpluses of an allocation plus the derived quantities.

    s[(i, j)] is the best outside option of i ignoring j; via[(i, j)] is
    the neighbour whose option attains it (ties: smallest neighbour), None
    when i has no neighbour but j.  s_max is the largest surplus among
    unbalanced pairs (None when balanced), upper_pairs the pairs strictly
    above it, level_pairs those exactly at it, and delta_cap the smallest
    surplus inside upper_pairs (0 when empty).
    """

    graph: Graph
    x: dict[str, Fraction]
    s: dict[Pair, Fraction]
    via: dict[Pair, str | None]
    violated: tuple[Pair, ...]
    s_max: Fraction | None
    upper_pairs: frozenset[Pair]
    level_pairs: frozenset[Pair]
    delta_cap: Fraction

    def level_edges(self) -> frozenset[Edge]:
        return frozenset(edge_key(i, j) for i, j in self.level_pairs)


def surpluses(g: Graph, x: Mapping[str, Fraction]) -> SurplusState:
    """Evaluate every directed surplus of adjacent pairs under x."""
    if set(x) != set(g.vertices):
        raise PreconditionError("allocation must be defined on every vertex")
    xs = {v: Fraction(x[v]) for v in g.vertices}
    cheapest = {i: sorted(g.neighbors(i), key=lambda k: (xs[k], k))[:2] for i in g.vertices}
    s: dict[Pair, Fraction] = {}
    via: dict[Pair, str | None] = {}
    for u, v in g.edges:
        for i, j in ((u, v), (v, u)):
            k = next((k for k in cheapest[i] if k != j), None)
            s[(i, j)] = _option(xs, i, k)
            via[(i, j)] = k

    violated = tuple(
        sorted((p for p in s if s[p] > s[(p[1], p[0])]), key=lambda p: (-s[p], p))
    )
    if violated:
        s_max = s[violated[0]]
        upper = frozenset(p for p in s if s[p] > s_max)
        level = frozenset(p for p in s if s[p] == s_max)
        delta = min((s[p] for p in upper), default=_Z)
    else:
        s_max = None
        upper = frozenset()
        level = frozenset()
        delta = _Z
    return SurplusState(
        graph=g,
        x=xs,
        s=s,
        via=via,
        violated=violated,
        s_max=s_max,
        upper_pairs=upper,
        level_pairs=level,
        delta_cap=delta,
    )


def maschler_shift(st: SurplusState) -> SurplusState:
    """Transfer half the surplus difference along the worst unbalanced pair.

    The recipient is the pair (i, j) with the largest surplus, smallest
    pair id on ties.  After the move the four exactness clauses are
    asserted: the pair balances at s_max - mu; the top unbalanced surplus
    never rises and the set at the old level shrinks when it stays; all
    pairs frozen above keep their surpluses and defining-option values;
    the allocation total and the unit cover of every edge survive.
    Returns the surplus state of the new allocation.

    A transfer can take x_j below 0, but no dip reaches an output: the
    next `build_delta_lp` checks y >= 0, and so does `_prekernel_run`.
    """
    if not st.violated:
        raise PreconditionError("no unbalanced pair to shift")
    i, j = st.violated[0]
    mu = (st.s[(i, j)] - st.s[(j, i)]) / 2
    if mu <= 0:
        raise InternalInvariantError("transfer amount must be positive")
    x2 = dict(st.x)
    x2[i] += mu
    x2[j] -= mu

    after = surpluses(st.graph, x2)
    s0 = st.s_max
    if after.s[(i, j)] != s0 - mu or after.s[(j, i)] != s0 - mu:
        raise InternalInvariantError("shifted pair did not balance at s_max - mu")
    if after.s_max is not None:
        if after.s_max > s0:
            raise InternalInvariantError("top unbalanced surplus increased")
        if after.s_max == s0 and not len(after.level_edges()) < len(st.level_edges()):
            raise InternalInvariantError("level set failed to shrink at constant s_max")
    for p in st.upper_pairs:
        if after.s[p] != st.s[p]:
            raise InternalInvariantError(f"frozen pair {p} changed surplus")
        if _option(x2, p[0], st.via[p]) != _option(st.x, p[0], st.via[p]):
            raise InternalInvariantError(f"frozen pair {p} changed defining-option value")
    if sum(x2.values(), _Z) != sum(st.x.values(), _Z):
        raise InternalInvariantError("transfer changed the allocation total")
    bare = uncovered_edge(st.graph.edges, x2)
    if bare is not None:
        raise InternalInvariantError(f"transfer uncovered edge {bare[0]}-{bare[1]}")
    return after


def _var(v: str) -> str:
    return f"y {v}"


def build_delta_lp(st: SurplusState) -> exactlp.LpProblem:
    """Acceleration LP: push all surpluses outside the frozen group down by delta.

    Constraint families, in construction order: total conservation;
    frozen defining-option values; for each frozen pair (i, j) with
    defining option 1 - y_i - y_k*, dominance y_k >= y_k* for every
    other alternative k of i; a delta-gap cap on every outside option of
    every unfrozen pair; unit cover of every edge.  The current allocation
    with delta = delta_cap - s_max is feasible by construction (asserted).
    """
    g = st.graph
    names = [_var(v) for v in g.vertices] + ["delta"]
    lp = exactlp.LpProblem("surplus-acceleration", "max", names)
    lp.set_objective({"delta": 1})
    total = sum(st.x.values(), _Z)
    lp.add_constraint({_var(v): 1 for v in g.vertices}, exactlp.EQ, total, name="total")

    frozen = sorted(st.upper_pairs)
    seen_freeze: set[tuple] = set()
    for i, j in frozen:
        members = (i,) if st.via[(i, j)] is None else (i, st.via[(i, j)])
        key = tuple(sorted(members))
        if key in seen_freeze:
            continue
        seen_freeze.add(key)
        lp.add_constraint(
            {_var(m): 1 for m in members},
            exactlp.EQ,
            sum((st.x[m] for m in members), _Z),
            name=f"freeze {' '.join(members)}",
        )
    for i, j in frozen:
        # i has no other alternative when no neighbour defines its option
        best = st.via[(i, j)]
        for k in g.neighbors(i):
            if k not in (j, best):
                lp.add_constraint(
                    {_var(k): 1, _var(best): -1}, exactlp.GE, 0, name=f"dominate {i} {j} {k}"
                )

    seen_caps: set[tuple] = set()
    for u, v in g.edges:
        for i, j in ((u, v), (v, u)):
            if (i, j) in st.upper_pairs:
                continue
            for k in [w for w in g.neighbors(i) if w != j] or [None]:
                members = (i,) if k is None else (i, k)
                key = tuple(sorted(members))
                if key in seen_caps:
                    continue
                seen_caps.add(key)
                coeffs = {_var(m): -1 for m in members}
                coeffs["delta"] = Fraction(1)
                constant = len(members) - 1
                lp.add_constraint(
                    coeffs, exactlp.LE, st.delta_cap - constant,
                    name=f"cap {constant} {' '.join(members)}",
                )
    for u, v in g.edges:
        lp.add_constraint({_var(u): 1, _var(v): 1}, exactlp.GE, 1, name=f"cover {u} {v}")

    delta0 = st.delta_cap - st.s_max if st.s_max is not None else _Z
    candidate = {_var(v): st.x[v] for v in g.vertices}
    candidate["delta"] = delta0
    bad = exactlp.violations(lp, candidate)
    if bad:
        raise InternalInvariantError(
            f"current allocation infeasible for acceleration LP: {'; '.join(bad)}"
        )
    return lp


@dataclass
class PrekernelRun:
    final: SurplusState | None = None
    lp_solves: int = 0
    shifts: int = 0
    trace: list[str] = field(default_factory=list)


def _prekernel_run(g: Graph, x0: Mapping[str, Fraction]) -> PrekernelRun:
    run = PrekernelRun()
    x = {v: Fraction(x0[v]) for v in g.vertices}
    _check_start(g, x)
    m = g.m
    total0 = sum(x.values(), _Z)

    st = surpluses(g, x)
    while st.violated:
        run.lp_solves += 1
        if run.lp_solves > m:
            raise InternalInvariantError("LP-solve cap |E'| exceeded")
        round_shifts = 0
        s_str = f"{st.s_max.numerator}/{st.s_max.denominator}"

        lp = build_delta_lp(st)
        sol = exactlp.certified(lp, exactlp.solve(lp))
        y = {v: sol.values[_var(v)] for v in g.vertices}
        st_y = surpluses(g, y)
        if st_y.violated:
            if st_y.s_max > st.s_max:
                raise InternalInvariantError("acceleration raised the top unbalanced surplus")
            if not st.upper_pairs <= st_y.upper_pairs:
                raise InternalInvariantError("acceleration lost frozen pairs")

        if st_y.violated and st_y.upper_pairs == st.upper_pairs:
            # no new frozen pairs: transfer locally until the level drops
            target = st_y.s_max
            cur = st_y
            feasible_push = st_y.delta_cap - st_y.s_max
            while cur.violated and cur.s_max == target:
                cur = maschler_shift(cur)
                run.shifts += 1
                round_shifts += 1
                if round_shifts > m:
                    raise InternalInvariantError("per-round transfer cap |E'| exceeded")
                if run.shifts > m * m:
                    raise InternalInvariantError("total transfer cap |E'|^2 exceeded")
                if cur.violated and cur.upper_pairs == st_y.upper_pairs:
                    # with the frozen group unchanged, the feasible push never shrinks
                    push = cur.delta_cap - cur.s_max
                    if push < feasible_push:
                        raise InternalInvariantError("feasible push decreased along transfers")
                    feasible_push = push
            if cur.violated and not st_y.upper_pairs < cur.upper_pairs:
                raise InternalInvariantError("frozen group failed to grow after transfers")
            st = cur
        else:
            st = st_y

        run.trace.append(
            f"round={run.lp_solves} s={s_str} |S|={len(st.upper_pairs)} "
            f"|I|={len(st.level_pairs)} shifts={round_shifts}"
        )

    x = st.x
    if sum(x.values(), _Z) != total0:
        raise InternalInvariantError("dynamics changed the allocation total")
    bare = uncovered_edge(g.edges, x)
    if bare is not None:
        raise InternalInvariantError(f"final allocation uncovers {bare[0]}-{bare[1]}")
    for u, v in g.edges:
        if st.s[(u, v)] != st.s[(v, u)]:
            raise InternalInvariantError(f"final surpluses unbalanced on {u}-{v}")
    negative = [v for v in g.vertices if x[v] < 0]
    if negative:
        raise InternalInvariantError(f"final allocation negative at {negative}")
    run.final = st
    return run


def _check_start(g: Graph, x: Mapping[str, Fraction]) -> None:
    if any(x[v] < 0 for v in g.vertices):
        raise PreconditionError("starting allocation must be nonnegative")
    bare = uncovered_edge(g.edges, x)
    if bare is not None:
        raise PreconditionError(f"starting allocation uncovers {bare[0]}-{bare[1]}")


def prekernel(g: Graph, x0: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """Balance all directed surpluses over the edges of g, exactly.

    The start must cover every edge.  The returned allocation preserves
    the start's total and satisfies s_ij = s_ji on every edge.
    """
    return _prekernel_run(g, x0).final.x


@dataclass(frozen=True)
class BalancedOutcome:
    """Maximum matching plus an allocation balanced against outside options."""

    matching: tuple[Edge, ...]
    allocation: dict[str, Fraction]
    alternatives: dict[str, Fraction]
    balance_residual: dict[Edge, Fraction]
    lp_solves: int
    shifts: int
    trace: tuple[str, ...]


def balanced_outcome(g: Graph, result: BlockingSetResult, nu: int) -> BalancedOutcome:
    """Run the full pipeline tail: residual graph, matching, balancing.

    `nu` is the matching number of g.  The stabilization allocation is
    topped up to it (deficit onto the lexicographically smallest vertex,
    which can only help coverage), then balanced on the residual graph.
    Raises InputError when the allocation already exceeds it, as one
    from an instance with a larger budget can.
    """
    blocked = set(result.blocking_set)
    gprime = g.without_edges(blocked)

    x0 = {v: Fraction(result.x_hat.get(v, 0)) for v in g.vertices}
    total = sum(x0.values(), _Z)
    if total > nu:
        raise InputError(f"balance: allocation exceeds the matching number {nu}")
    if total < nu and g.vertices:
        x0[g.vertices[0]] += nu - total

    mprime = max_matching(gprime)
    run = _prekernel_run(gprime, x0)
    final = run.final
    x = final.x

    matched_with = {}
    for u, v in mprime.edges:
        matched_with[u] = v
        matched_with[v] = u
    alternatives: dict[str, Fraction] = {}
    for v in gprime.vertices:
        options = [
            1 - x[w]
            for w in gprime.neighbors(v)
            if matched_with.get(v) != w
        ]
        alternatives[v] = max(options) if options else _Z

    residual: dict[Edge, Fraction] = {}
    for u, v in mprime.edges:
        lhs = x[u] - alternatives[u]
        rhs = x[v] - alternatives[v]
        residual[(u, v)] = lhs - rhs
        # the alternative-based balance must agree with surplus balance
        balanced_by_alpha = lhs == rhs
        balanced_by_surplus = final.s[(u, v)] == final.s[(v, u)]
        if balanced_by_alpha != balanced_by_surplus:
            raise InternalInvariantError(f"balance criteria disagree on {u}-{v}")
        if not balanced_by_alpha:
            raise InternalInvariantError(f"matching edge {u}-{v} left unbalanced")

    return BalancedOutcome(
        matching=mprime.edges,
        allocation=x,
        alternatives=alternatives,
        balance_residual=residual,
        lp_solves=run.lp_solves,
        shifts=run.shifts,
        trace=tuple(run.trace),
    )
