"""The relaxation of a blocking-set instance, solved directly.

The pipeline never solves it on a non-bipartite graph: it reads the value
off the doubled host's root by a checked certificate.  Tests use this
direct solve as the oracle for that value and for the I3 bound, and the
hand-built point of the gap family as a feasible point of value 8.
"""

from fractions import Fraction

from netbargain import blockset, exactlp
from netbargain.graphcore import Edge
from netbargain.oracle import GapInstance


def relaxation_value(inst: blockset.GbsInstance) -> Fraction:
    """Optimal value of the relaxation of `inst`, on any graph."""
    lp, _, _, _ = blockset._build_lp(inst)
    sol = exactlp.solve(lp)
    assert sol.status == exactlp.OPTIMAL, sol.status
    assert exactlp.check_certificates(lp, sol) == []
    return sol.objective


def gap_fractional_solution(gap: GapInstance) -> tuple[dict[str, Fraction], dict[Edge, Fraction]]:
    """The hand-built fractional point of value exactly 8."""
    alpha = Fraction(gap.n - 1, gap.n)
    x: dict[str, Fraction] = {}
    for v in gap.graph.vertices:
        if v.startswith("x"):
            x[v] = 1 - alpha
        elif v.startswith("y"):
            x[v] = alpha
        else:
            x[v] = Fraction(0)
    z = {e: Fraction(1, gap.n) for e in gap.e1}
    return x, z
