"""Stabilization toolkit for unit-value network bargaining games.

Find an approximately minimum set of edges whose removal from the
stability constraints admits an allocation of the matching number
(exact-rational LP iterative rounding with a certified factor on sparse
graphs), then balance that allocation against outside options on the
residual graph.
"""

from .bargain import BalancedOutcome, balanced_outcome, prekernel, surpluses
from .blockset import (
    BlockingSetResult,
    GbsInstance,
    ir_solve,
    root_instance,
    stabilize,
    stabilize_instance,
)
from .errors import InputError, InternalInvariantError, PreconditionError
from .graphcore import Graph, Sparsity, bipartite_double, compute_sparsity, parse_edge_list
from .matching import (
    CoreReport,
    Matching,
    core_status,
    matching_number,
    max_matching,
    stable_allocation,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedOutcome",
    "BlockingSetResult",
    "CoreReport",
    "GbsInstance",
    "Graph",
    "InputError",
    "InternalInvariantError",
    "Matching",
    "PreconditionError",
    "Sparsity",
    "balanced_outcome",
    "bipartite_double",
    "compute_sparsity",
    "core_status",
    "ir_solve",
    "matching_number",
    "max_matching",
    "parse_edge_list",
    "prekernel",
    "root_instance",
    "stabilize",
    "stabilize_instance",
    "stable_allocation",
    "surpluses",
]
