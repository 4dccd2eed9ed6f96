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

The acceleration LP is answered by a minimum-ratio cycle on the pairs of
a maximum matching (`_cycle_answer`).  Only where that reduction does not
apply, as when the allocation's total exceeds the matching number, does
the exact simplex answer it, counted as `simplex_fallbacks`.  Every
answer passes `exactlp.certified`, and the run checks its final
allocation once: the start's total, a cover of every edge, no negative
share and every edge balanced.
Work is capped at |E'| LP solves and |E'|^2 transfers; exceeding either
cap signals an implementation bug, never an input problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

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
    other alternative k of i, each (k, k*) once; a delta-gap cap on every
    outside option of every unfrozen pair; unit cover of every edge.
    `_cycle_answer` reads the rows by their shape, not by their names or
    order, except that `total` comes first.  The current allocation
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
    seen_dominate: set[tuple] = set()
    for i, j in frozen:
        # i has no other alternative when no neighbour defines its option
        best = st.via[(i, j)]
        for k in g.neighbors(i):
            if k not in (j, best) and (k, best) not in seen_dominate:
                seen_dominate.add((k, best))
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


def _node(p: int, sign: int) -> int:
    """The node of the doubled constraint graph that stands for sign * r_p."""
    return 2 * p + (sign < 0)


def _cycle_answer(lp: exactlp.LpProblem, matching: Sequence[Edge]) -> exactlp.LpSolution | None:
    """An optimal answer of an acceleration LP by a minimum-ratio cycle on
    the matched pairs; None when the reduction does not apply.

    `matching` is a maximum matching M of the LP's graph.  When the
    `total` row equals |M|, summing the cover rows of M gives
    sum over matched y >= |M| = sum y, so every matched cover row is tight
    and y is 0 at every exposed vertex.  With one variable r_p per matched
    edge a < b, y_a = r_p and y_b = 1 - r_p, every other row becomes an
    identity, a bound on delta, or a unit row (+-r_p +- r_q, +-r_p or
    +-2 r_p, plus delta on a cap row) <= c; any other shape returns None.
    Such a system is feasible iff its doubled constraint graph, with
    nodes for r_p and -r_p and arcs for 0 <= r_p <= 1, has no negative
    cycle, so the largest delta is a minimum-ratio cycle (Dantzig,
    Blattner and Rao), found by Newton steps from above, each one
    Bellman-Ford in ints.  The point is the potentials at delta*; the
    duals are the last cycle's rows, plus `total` and the matched cover
    rows, which carry the substitution.  The caller certifies the answer.
    """
    rows = lp.constraints
    if rows[0].rhs != len(matching):
        return None
    place: dict[str, tuple[int, int, int]] = {}  # y = constant + sign * r_p
    for p, (a, b) in enumerate(matching):
        place[_var(a)] = (p, 1, 0)
        place[_var(b)] = (p, -1, 1)
    # arc u -> v is the row x_v - x_u <= num / den - k * delta, x = +-r at each
    # node; `mult` times the LP row as written is that row, and 0 on a bound
    arcs: list[tuple[int, int, int, int, int, int, int]] = []
    for p in range(len(matching)):
        arcs.append((_node(p, 1), _node(p, -1), 0, 1, 0, 0, 0))  # -2 r_p <= 0
        arcs.append((_node(p, -1), _node(p, 1), 2, 1, 0, 0, 0))  # 2 r_p <= 2
    cover = [-1] * len(matching)
    cap: tuple[Fraction, int] | None = None  # the tightest bound on delta alone
    for i in range(1, len(rows)):
        con = rows[i]
        lin: dict[int, int] = {}
        const = k = 0
        for name, coef in con.coeffs.items():
            if coef.denominator != 1:
                return None
            a = coef.numerator
            if name == "delta":
                k = a
            elif name in place:
                p, s, base = place[name]
                const += a * base
                lin[p] = lin.get(p, 0) + a * s
        terms = [(p, a) for p, a in lin.items() if a]
        if con.rel == exactlp.GE and not terms and not k and const == 1 == con.rhs and len(con.coeffs) == 2:
            # y_a + y_b >= 1 on a matched pair
            p = place[next(iter(con.coeffs))][0]
            if cover[p] < 0:
                cover[p] = i
        c0 = con.rhs - const
        den = c0.denominator
        for sign in (1, -1) if con.rel == exactlp.EQ else (1,) if con.rel == exactlp.LE else (-1,):
            num, kk = sign * c0.numerator, sign * k
            if kk not in (0, 1):
                return None
            if not terms:
                if kk and (cap is None or Fraction(num, den) < cap[0]):
                    cap = (Fraction(num, den), i)
                elif not kk and num < 0:
                    return None
            elif len(terms) == 1:
                p, a = terms[0]
                a *= sign
                if abs(a) == 1:
                    arcs.append((_node(p, -a), _node(p, a), 2 * num, den, 2 * kk, i, 2 * sign))
                elif abs(a) == 2:
                    arcs.append((_node(p, -a), _node(p, a), num, den, kk, i, sign))
                else:
                    return None
            elif len(terms) == 2:
                (p, a), (q, b) = terms
                a, b = sign * a, sign * b
                if abs(a) != 1 or abs(b) != 1:
                    return None
                arcs.append((_node(q, -b), _node(p, a), num, den, kk, i, sign))
                arcs.append((_node(p, -a), _node(q, b), num, den, kk, i, sign))
            else:
                return None
    if min(cover, default=0) < 0:
        return None

    big = lcm(*[den for _, _, _, den, _, _, _ in arcs])
    ends = [(u, v) for u, v, _, _, _, _, _ in arcs]
    cw = [num * (big // den) for _, _, num, den, _, _, _ in arcs]
    kd = [kk for _, _, _, _, kk, _, _ in arcs]
    # start above every cycle ratio: as |x| <= 1, an arc with k > 0 gives
    # k * delta <= c + 2, so delta* <= c + 2 since delta* >= 0
    starts = [cap[0]] if cap is not None else []
    if any(kd):
        starts.append(Fraction(min([c for c, kk in zip(cw, kd) if kk]) + 3 * big, big))
    if not starts:
        return None
    delta = min(starts)
    cycle = None
    while True:
        # the arc weights c - k * delta times q * big, at delta = p / q
        p, q = delta.numerator, delta.denominator
        weights = [c * q - kk * p * big for c, kk in zip(cw, kd)]
        dist, found = _negative_cycle(2 * len(matching), ends, weights)
        if found is None:
            break
        cycle = found
        ratio = sum([kd[j] for j in cycle])
        if not ratio:
            return None
        delta = Fraction(sum([cw[j] for j in cycle]), ratio * big)

    # the certificate: the rows of the last cycle over its delta count K,
    # or the bound on delta alone that no cycle undercuts
    uses: dict[int, int] = {}
    if cycle is None:
        if cap is None or delta != cap[0]:
            return None
        uses[cap[1]] = ratio = 1
    else:
        for j in cycle:
            _, _, _, _, _, i, mult = arcs[j]
            if mult:
                uses[i] = uses.get(i, 0) + mult
    duals = [_Z] * len(rows)
    ell: dict[str, int] = {}  # K times each y's coefficient in the rows' sum
    for i, w in uses.items():
        duals[i] = Fraction(w, ratio)
        for name, coef in rows[i].coeffs.items():
            if name != "delta":
                ell[name] = ell.get(name, 0) + w * coef.numerator
    exposed = [v for v in lp.variables if v != "delta" and v not in place]
    low = [min(ell.get(_var(a), 0), ell.get(_var(b), 0)) for a, b in matching]
    mu = max([0] + [-ell.get(v, 0) for v in exposed] + [-m for m in low])
    duals[0] = Fraction(mu, ratio)
    for p, m in enumerate(low):
        duals[cover[p]] = Fraction(-(m + mu), ratio)

    scale = 2 * delta.denominator * big
    values = dict.fromkeys(exposed, _Z)
    for p, (a, b) in enumerate(matching):
        r = Fraction(dist[_node(p, 1)] - dist[_node(p, -1)], scale)
        values[_var(a)] = r
        values[_var(b)] = 1 - r
    values["delta"] = delta
    return exactlp.LpSolution(exactlp.OPTIMAL, values, delta, tuple(duals))


def _negative_cycle(
    n: int, ends: Sequence[tuple[int, int]], weights: Sequence[int]
) -> tuple[list[int], list[int] | None]:
    """Bellman-Ford from a virtual source with a 0 arc to each node.

    Returns the distances and None when no cycle is negative, else a
    negative cycle as arc indices in reverse order.  A cycle of the
    predecessor graph is negative, and one forms within n passes when a
    negative cycle exists.
    """
    dist = [0] * n
    pred = [-1] * n
    for _ in range(n + 1):
        changed = False
        for j, (u, v) in enumerate(ends):
            d = dist[u] + weights[j]
            if d < dist[v]:
                dist[v] = d
                pred[v] = j
                changed = True
        if not changed:
            return dist, None
        seen = [0] * n
        for s in range(n):
            v = s
            while v >= 0 and not seen[v]:
                seen[v] = s + 1
                v = ends[pred[v]][0] if pred[v] >= 0 else -1
            if v >= 0 and seen[v] == s + 1:
                cycle, u = [], v
                while True:
                    cycle.append(pred[u])
                    u = ends[pred[u]][0]
                    if u == v:
                        return dist, cycle
    raise InternalInvariantError("Bellman-Ford found no cycle after n passes")


@dataclass
class PrekernelRun:
    final: SurplusState | None = None
    lp_solves: int = 0
    simplex_fallbacks: int = 0
    shifts: int = 0
    trace: list[str] = field(default_factory=list)


def _prekernel_run(g: Graph, x0: Mapping[str, Fraction], matching: Sequence[Edge]) -> PrekernelRun:
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
        answer = _cycle_answer(lp, matching)
        if answer is None:
            run.simplex_fallbacks += 1
            answer = exactlp.solve(lp)
        sol = exactlp.certified(lp, answer)
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
    return _prekernel_run(g, x0, max_matching(g).edges).final.x


@dataclass(frozen=True)
class BalancedOutcome:
    """Maximum matching plus an allocation balanced against outside options."""

    matching: tuple[Edge, ...]
    allocation: dict[str, Fraction]
    alternatives: dict[str, Fraction]
    balance_residual: dict[Edge, Fraction]
    lp_solves: int
    simplex_fallbacks: int
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
    run = _prekernel_run(gprime, x0, mprime.edges)
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
        simplex_fallbacks=run.simplex_fallbacks,
        shifts=run.shifts,
        trace=tuple(run.trace),
    )
