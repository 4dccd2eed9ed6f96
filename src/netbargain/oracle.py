"""Independent brute-force ground truth and instance generators.

The yes/no answers share no algorithmic code with the main pipeline, so they
can serve as test oracles: matchings come from exhaustive branching or a local
two-copy graph, blocking sets from subset enumeration.  Only `_cover_witness`
(an `exactlp` solve) and `gen_sparse` (`compute_sparsity`) call into the pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from . import exactlp
from .errors import InputError, PreconditionError
from .graphcore import Edge, Graph, compute_sparsity, edge_key

_Z = Fraction(0)


# ---------------------------------------------------------------------------
# worst-case family: constant relaxation value, growing integral optimum


@dataclass(frozen=True)
class GapInstance:
    """Layered instance whose relaxation stays at 8 while the true optimum grows.

    n hub vertices are fully joined to 2n mid vertices by protected
    edges; each mid vertex owns 4 private leaves via droppable edges;
    the budget is 2n - 1.
    """

    n: int
    graph: Graph
    e1: tuple[Edge, ...]
    e2: tuple[Edge, ...]
    nu: int

    def fractional_solution(self) -> tuple[dict[str, Fraction], dict[Edge, Fraction]]:
        """The hand-built fractional point of value exactly 8."""
        alpha = Fraction(self.n - 1, self.n)
        x: dict[str, Fraction] = {}
        for v in self.graph.vertices:
            if v.startswith("x"):
                x[v] = 1 - alpha
            elif v.startswith("y"):
                x[v] = alpha
            else:
                x[v] = _Z
        z = {e: Fraction(1, self.n) for e in self.e1}
        return x, z


def gen_gap(n: int) -> GapInstance:
    if not isinstance(n, int) or n < 1:
        raise InputError(f"gap family needs a positive size, got {n!r}")
    m = 2 * n
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{j}" for j in range(1, m + 1)]
    e2 = [edge_key(a, b) for a in xs for b in ys]
    e1 = []
    for y in ys:
        for k in range(1, 5):
            e1.append(edge_key(y, f"o_{y}_{k}"))
    graph = Graph.build(e1 + e2)
    return GapInstance(n, graph, tuple(sorted(e1)), tuple(sorted(e2)), 2 * n - 1)


# ---------------------------------------------------------------------------
# random sparse graphs


def gen_sparse(
    n: int,
    omega_target: Fraction | int,
    seed: int,
    n_edges: int | None = None,
    max_tries: int = 200,
) -> Graph:
    """Random graph with certified sparsity at most omega_target.

    Rejection sampling: draw an edge set of the requested size, keep it
    iff its exact sparsity fits.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    target = Fraction(omega_target)
    if target < 1:
        raise InputError("sparsity target must be at least 1")
    if n_edges is not None and n_edges < 0:
        raise InputError(f"edge count must be nonnegative, got {n_edges}")
    names = [f"v{i:02d}" for i in range(n)]
    pool = [edge_key(a, b) for a, b in combinations(names, 2)]
    want = min(len(pool), int(target * n)) if n_edges is None else min(n_edges, len(pool))
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = rng.sample(pool, want)
        g = Graph.build(edges, names)
        if compute_sparsity(g).omega <= target:
            return g
    raise InputError(
        f"could not sample a graph with sparsity <= {target} in {max_tries} tries"
    )


# ---------------------------------------------------------------------------
# exhaustive matchings


def brute_max_matching(g: Graph) -> int:
    """Exact matching number by branch-and-memo over the edge list."""
    if g.m > 22:
        raise PreconditionError("exhaustive matching limited to 22 edges")
    edges = list(g.edges)
    memo: dict[tuple[int, frozenset[str]], int] = {}

    def best(i: int, used: frozenset[str]) -> int:
        if i >= len(edges):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        u, v = edges[i]
        res = best(i + 1, used)
        if u not in used and v not in used:
            res = max(res, 1 + best(i + 1, used | {u, v}))
        memo[key] = res
        return res

    return best(0, frozenset())


# ---------------------------------------------------------------------------
# blocking sets by enumeration


def _augmenting_matching(adj: dict[str, list[str]], left: list[str]) -> int:
    """Simple alternating-path maximum matching on a bipartite adjacency."""
    mate: dict[str, str] = {}

    def try_augment(u: str, seen: set[str]) -> bool:
        for w in adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w not in mate or try_augment(mate[w], seen):
                mate[w] = u
                return True
        return False

    size = 0
    for u in left:
        if try_augment(u, set()):
            size += 1
    return size


def fractional_cover_value(vertices: Iterable[str], edges: Iterable[Edge]) -> Fraction:
    """Smallest total of a fractional cover putting weight >= 1 on every edge.

    Computed combinatorially as half the matching number of the local
    two-copy graph; no LP involved.
    """
    vs = sorted(set(vertices))
    adj: dict[str, list[str]] = {f"{v}/L": [] for v in vs}
    for u, v in edges:
        adj[f"{u}/L"].append(f"{v}/R")
        adj[f"{v}/L"].append(f"{u}/R")
    for lst in adj.values():
        lst.sort()
    size = _augmenting_matching(adj, [f"{v}/L" for v in vs])
    return Fraction(size, 2)


def blocking_feasible(g: Graph, blocked: Iterable[Edge], nu: int) -> bool:
    """Can the unblocked edges be covered within the budget?"""
    drop = {edge_key(*e) for e in blocked}
    remaining = [e for e in g.edges if e not in drop]
    return fractional_cover_value(g.vertices, remaining) <= nu


@dataclass(frozen=True)
class BruteForceResult:
    found: bool
    blocking_set: tuple[Edge, ...] | None
    witness: dict[str, Fraction] | None
    candidates_checked: int


def _cover_witness(g: Graph, blocked: set[Edge], nu: int) -> dict[str, Fraction]:
    remaining = [e for e in g.edges if e not in blocked]
    names = [f"x {v}" for v in g.vertices]
    lp = exactlp.LpProblem("cover-witness", "min", names)
    lp.set_objective({nm: 1 for nm in names})
    for u, v in remaining:
        lp.add_constraint({f"x {u}": 1, f"x {v}": 1}, exactlp.GE, 1, name=f"edge {u} {v}")
    sol = exactlp.solve(lp)
    assert sol.status == exactlp.OPTIMAL and sol.objective <= nu
    return {v: sol.values[f"x {v}"] for v in g.vertices}


def brute_min_blocking_set(
    g: Graph,
    nu: int,
    max_size: int | None = None,
    blockable: Iterable[Edge] | None = None,
) -> BruteForceResult:
    """Smallest blocking set by enumeration, ascending in cardinality.

    Ties break lexicographically on the sorted edge tuple.  `blockable`
    restricts which edges may enter the set (defaults to all).  Returns
    found=False when nothing within `max_size` works.
    """
    pool = sorted(
        {edge_key(*e) for e in (g.edges if blockable is None else blockable)}
    )
    if any(e not in g.edge_set for e in pool):
        raise PreconditionError("blockable edges must belong to the graph")
    if len(pool) > 20:
        raise PreconditionError("enumeration limited to 20 candidate edges")
    cap = len(pool) if max_size is None else min(max_size, len(pool))
    checked = 0
    for k in range(cap + 1):
        for combo in combinations(pool, k):
            checked += 1
            if blocking_feasible(g, combo, nu):
                witness = _cover_witness(g, set(combo), nu)
                return BruteForceResult(True, combo, witness, checked)
    return BruteForceResult(False, None, None, checked)


# ---------------------------------------------------------------------------
# outcome verification


def verify_outcome(gprime: Graph, nu: int, outcome) -> list[str]:
    """Re-check a claimed balanced outcome from first principles.

    `outcome` only needs `.matching` and `.allocation` attributes.
    Validates the matching, the budget, per-edge coverage, and the
    outside-option balance on every matching edge; alternatives are
    recomputed here rather than trusted.  Returns violation messages.
    """
    out: list[str] = []
    m_edges = sorted(edge_key(*e) for e in outcome.matching)
    x = {v: Fraction(outcome.allocation.get(v, 0)) for v in gprime.vertices}

    seen: set[str] = set()
    for u, v in m_edges:
        if (u, v) not in gprime.edge_set:
            out.append(f"matching edge {u}-{v} not in residual graph")
        if u in seen or v in seen:
            out.append(f"matching reuses an endpoint of {u}-{v}")
        seen.update((u, v))
    if gprime.m <= 22 and len(m_edges) != brute_max_matching(gprime):
        out.append("matching is not maximum")

    total = sum(x.values(), _Z)
    if total > nu:
        out.append(f"allocation total {total} exceeds {nu}")
    if any(val < 0 for val in x.values()):
        out.append("allocation has negative entries")
    for u, v in gprime.edges:
        if x[u] + x[v] < 1:
            out.append(f"uncovered edge {u}-{v}")

    matched_with = {}
    for u, v in m_edges:
        matched_with[u] = v
        matched_with[v] = u

    def alternative(v: str) -> Fraction:
        opts = [1 - x[w] for w in gprime.neighbors(v) if matched_with.get(v) != w]
        return max(opts) if opts else _Z

    for u, v in m_edges:
        if x[u] - alternative(u) != x[v] - alternative(v):
            out.append(f"unbalanced matching edge {u}-{v}")
    return out
