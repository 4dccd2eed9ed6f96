"""Directed surpluses by evaluating every outside option (test oracle).

Independent of `netbargain.bargain`: it reads only the vertices and
edges of the graph, lists each option of each directed pair in
neighbour-name order and keeps the first best one.
"""

from fractions import Fraction


def brute_surpluses(g, x):
    """Return (s, term) over every directed adjacent pair (i, j).

    s[(i, j)] is the largest 1 - x_i - x_k over neighbours k != j of i, or
    0 - x_i when i has none; term[(i, j)] is that option as
    (constant, members), the first best in neighbour-name order.  Pairs are
    listed edge by edge, (u, v) before (v, u).
    """
    neighbours = {v: [] for v in g.vertices}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    s, term = {}, {}
    for u, v in g.edges:
        for i, j in ((u, v), (v, u)):
            options = [(1, (i, k)) for k in sorted(neighbours[i]) if k != j] or [(0, (i,))]
            values = [c - sum((x[m] for m in members), Fraction(0)) for c, members in options]
            best = max(values)
            s[(i, j)] = best
            term[(i, j)] = options[values.index(best)]
    return s, term
