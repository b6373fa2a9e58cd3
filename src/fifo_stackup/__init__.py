"""Exact solvers for the FIFO stack-up problem and the directed pathwidth of
its sequence graphs: a minimax search over decision configurations (the
paper's processing graph), a level-ordered search over placed-vertex sets,
graph reductions, and decomposition bridges in both directions.

The oracles the solvers are checked against (the bottleneck dynamic program
over the whole configuration grid, the brute forces, the subset-table and
definitional pathwidth searches) are in ``fifo_stackup.oracles``, which this
package does not import.  The configuration budget bounds the grid product,
not the number of states the search visits."""

from .errors import (
    BudgetError,
    DigraphFormatError,
    InadmissibleDigraphError,
    InstanceFormatError,
    InternalError,
    TransformStuckError,
)
from .instance import (
    Configuration,
    Instance,
    PalletIndex,
    ValidationReport,
    build_pallet_index,
    cut,
    emit_instance,
    front,
    is_open_pallet,
    parse_instance,
    validate,
)
from .processing import solve_min_places
from .solutions import (
    BinSolution,
    PalletSolution,
    ReplayReport,
    open_set_trace,
    opening_order,
    replay,
    transform,
)
from .seqgraph import (
    DecompositionCheck,
    Digraph,
    DirectedPathDecomposition,
    admissibility_violations,
    build_sequence_graph,
    decomposition_to_dot,
    decomposition_to_processing,
    digraph_to_dot,
    emit_digraph,
    parse_digraph,
    processing_to_decomposition,
    reduce_digraph_to_queues,
    strip_endpoints,
    validate_decomposition,
)
from .pathwidth import DpwResult, dpw_exact, dpw_via_stackup
from .generate import GenSpec, SplitMix64, generate_instance, random_admissible_digraph

__version__ = "0.1.0"

__all__ = [
    "BinSolution",
    "BudgetError",
    "Configuration",
    "DecompositionCheck",
    "Digraph",
    "DigraphFormatError",
    "DirectedPathDecomposition",
    "DpwResult",
    "GenSpec",
    "InadmissibleDigraphError",
    "Instance",
    "InstanceFormatError",
    "InternalError",
    "PalletIndex",
    "PalletSolution",
    "ReplayReport",
    "SplitMix64",
    "TransformStuckError",
    "ValidationReport",
    "admissibility_violations",
    "build_pallet_index",
    "build_sequence_graph",
    "cut",
    "decomposition_to_dot",
    "decomposition_to_processing",
    "digraph_to_dot",
    "dpw_exact",
    "dpw_via_stackup",
    "emit_digraph",
    "emit_instance",
    "front",
    "generate_instance",
    "is_open_pallet",
    "open_set_trace",
    "opening_order",
    "parse_digraph",
    "parse_instance",
    "processing_to_decomposition",
    "random_admissible_digraph",
    "reduce_digraph_to_queues",
    "replay",
    "solve_min_places",
    "strip_endpoints",
    "transform",
    "validate",
    "validate_decomposition",
]
