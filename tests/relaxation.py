"""The relaxation of a blocking-set instance, solved directly.

The pipeline never solves it on a non-bipartite graph: it reads the value
off the doubled host's root by a checked certificate.  Tests use this
direct solve as the oracle for that value and for the I3 bound.
"""

from fractions import Fraction

from netbargain import blockset, exactlp


def relaxation_value(inst: blockset.GbsInstance) -> Fraction:
    """Optimal value of the relaxation of `inst`, on any graph."""
    lp, _, _, _ = blockset._build_lp(inst)
    sol = exactlp.solve(lp)
    assert sol.status == exactlp.OPTIMAL, sol.status
    assert exactlp.check_certificates(lp, sol) == []
    return sol.objective
