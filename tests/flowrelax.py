"""The relaxation value of a bipartite blocking-set instance, by networkx cuts.

An independent oracle for the rounding's cut answers: it shares no code
with `graphcore`, `blockset` or `exactlp`, and takes plain vertex and
edge lists.  The cover rows are totally unimodular, so for a multiplier
lam of the budget row the least lam*|X| + (droppable edges X leaves
bare), over the vertex sets X that cover every protected edge, is one
minimum s-t cut.  The relaxation value is the maximum over lam >= 0 of
that least value less lam*nu.  It is concave in lam, and its slope at
lam is |X| - nu for the X of a cut there, so bisection on the sign of
the slope brackets a maximizer.  The breakpoints are fractions whose
denominators are at most n, the difference of two cover sizes; once the
bracket is shorter than 1/(2 n^2) it holds at most one of them, which
`Fraction.limit_denominator` reads off.  (The pipeline intersects lines
instead, and keeps its covers and flows.)
"""

from fractions import Fraction

import networkx as nx


def _lagrangian(vertices, e1, e2, nu, colour, lam: Fraction) -> tuple[Fraction, int]:
    """min over covers X of e2 of lam*|X| + bare(X) - lam*nu, and |X|."""
    p, q = lam.numerator, lam.denominator
    net = nx.DiGraph()
    net.add_nodes_from(["s", "t"])
    for v in vertices:
        if colour[v] == 0:
            net.add_edge("s", ("v", v), capacity=p)
        else:
            net.add_edge(("v", v), "t", capacity=p)
    for edges, cap in ((e1, {"capacity": q}), (e2, {})):  # no capacity: never cut
        for u, v in edges:
            if colour[u]:
                u, v = v, u
            net.add_edge(("v", u), ("v", v), **cap)
    _, (source_side, _) = nx.minimum_cut(net, "s", "t")
    cover = {v for v in vertices if (("v", v) in source_side) == (colour[v] == 1)}
    bare = sum(1 for u, v in e1 if u not in cover and v not in cover)
    return lam * len(cover) + bare - lam * nu, len(cover)


def relaxation_value(vertices, e1, e2, nu: int) -> Fraction:
    """Optimal value of min sum(z) over x_u + x_v + z_e >= 1 (e in e1),
    x_u + x_v >= 1 (e in e2), sum(x) <= nu, x, z >= 0, on a bipartite graph
    whose protected edges some cover within the budget reaches."""
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(list(e1) + list(e2))
    colour = nx.bipartite.color(g)
    n = max(len(vertices), 1)

    def at(lam):
        return _lagrangian(vertices, e1, e2, nu, colour, lam)

    if at(Fraction(1, n + 1))[1] <= nu:
        return Fraction(0)  # a minimum vertex cover fits the budget
    lo, hi = Fraction(0), Fraction(len(e1) + 1)
    if at(hi)[1] > nu:
        raise ValueError("no cover of the protected edges fits the budget")
    while hi - lo >= Fraction(1, 2 * n * n):
        mid = (lo + hi) / 2
        value, size = at(mid)
        if size == nu:
            return value
        if size > nu:
            lo = mid
        else:
            hi = mid
    # a maximizer in the bracket is its one breakpoint, or the bracket is flat
    mid = (lo + hi) / 2
    return max(at(mid.limit_denominator(n))[0], at(mid)[0])
