"""Exact solvers for the FIFO stack-up problem and the directed pathwidth of
its sequence graphs: a minimax search over decision configurations (the
paper's processing graph), brute-force baselines, graph reductions, and
decomposition bridges in both directions.

The bottleneck dynamic program over the whole configuration grid
(``opt_bottleneck(ConfigurationDag(inst))``) remains as the oracle for
``solve_min_places``; the configuration budget bounds that grid product, not
the number of states the search visits."""

from .errors import (
    BudgetError,
    DigraphFormatError,
    InadmissibleDigraphError,
    InstanceFormatError,
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
from .processing import (
    ConfigurationDag,
    DpResult,
    ExplicitDag,
    open_delta,
    opt_bottleneck,
    prune_priority,
    solve_min_places,
    val_threshold_oracle,
)
from .solutions import (
    BinSolution,
    PalletSolution,
    ReplayReport,
    brute_force_bin_orders,
    brute_force_pallet_orders,
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
from .pathwidth import (
    DpwResult,
    dpw_brute_force,
    dpw_exact,
    dpw_via_stackup,
    search_decomposition_by_bags,
)
from .generate import GenSpec, SplitMix64, generate_instance, random_admissible_digraph

__version__ = "0.1.0"

__all__ = [
    "BinSolution",
    "BudgetError",
    "Configuration",
    "ConfigurationDag",
    "DecompositionCheck",
    "Digraph",
    "DigraphFormatError",
    "DirectedPathDecomposition",
    "DpResult",
    "DpwResult",
    "ExplicitDag",
    "GenSpec",
    "InadmissibleDigraphError",
    "Instance",
    "InstanceFormatError",
    "PalletIndex",
    "PalletSolution",
    "ReplayReport",
    "SplitMix64",
    "TransformStuckError",
    "ValidationReport",
    "admissibility_violations",
    "build_pallet_index",
    "build_sequence_graph",
    "brute_force_bin_orders",
    "brute_force_pallet_orders",
    "cut",
    "decomposition_to_dot",
    "decomposition_to_processing",
    "digraph_to_dot",
    "dpw_brute_force",
    "dpw_exact",
    "dpw_via_stackup",
    "emit_digraph",
    "emit_instance",
    "front",
    "generate_instance",
    "is_open_pallet",
    "open_delta",
    "open_set_trace",
    "opening_order",
    "opt_bottleneck",
    "parse_digraph",
    "parse_instance",
    "processing_to_decomposition",
    "prune_priority",
    "random_admissible_digraph",
    "reduce_digraph_to_queues",
    "replay",
    "search_decomposition_by_bags",
    "solve_min_places",
    "strip_endpoints",
    "transform",
    "val_threshold_oracle",
    "validate",
    "validate_decomposition",
]
