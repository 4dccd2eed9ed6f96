"""Definitional oracle for `graphcore.compute_sparsity`.

Maximum subgraph density by scanning every nonempty vertex subset, the
way the solver once did on small graphs.  It shares no code with the
max-flow search it checks.
"""

from fractions import Fraction

from netbargain.graphcore import Graph


def max_density(g: Graph) -> Fraction:
    """max over nonempty S of |E(G[S])| / |S|; 0 for a graph without edges."""
    n = g.n
    index = {v: i for i, v in enumerate(g.vertices)}
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[index[u]] |= 1 << index[v]
        adj_mask[index[v]] |= 1 << index[u]
    # edge_count[mask] = edges inside mask, built from mask minus its lowest vertex
    edge_count = [0] * (1 << n)
    best = Fraction(0)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        edge_count[mask] = edge_count[rest] + (adj_mask[low.bit_length() - 1] & rest).bit_count()
        best = max(best, Fraction(edge_count[mask], mask.bit_count()))
    return best
