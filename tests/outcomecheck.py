"""Independent re-check of a balanced outcome, from first principles.

It shares no algorithmic code with `bargain` or `matching`: maximality of
the matching comes from `matchbrute`'s exhaustive branching, and every
outside option is recomputed here.
"""

from fractions import Fraction

from netbargain.graphcore import Graph, edge_key

from matchbrute import brute_max_matching

_Z = Fraction(0)


def verify_outcome(gprime: Graph, nu: int, outcome) -> list[str]:
    """Violations of a claimed balanced outcome on the residual graph.

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
