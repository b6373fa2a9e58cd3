"""Exact solvers for the FIFO stack-up problem and the directed pathwidth of
its sequence graphs, graph reductions, and decomposition bridges in both
directions.  Both exact solvers run one level-ordered minimax search over
placed-vertex sets, the internal ``fifo_stackup.search``: stack-up over the
paper's decision configurations, where the started pallets are placed and
only front pallets may come next.

``import fifo_stackup`` loads no submodule.  A public name, or a submodule
such as ``fifo_stackup.processing``, is loaded on first use (PEP 562), so a
program pays only for the modules it runs.  Public values are immutable
records (``fifo_stackup._record.Record``), not dataclasses.

The oracles the solvers are checked against (the bottleneck dynamic program
over the whole configuration grid, the brute forces, the subset-table and
definitional pathwidth searches) are in ``fifo_stackup.oracles``, which is
not part of this namespace.  So are the grid helpers they use: the
``Configuration`` tuple of per-queue removed counts, ``cut``,
``is_open_pallet`` and ``check_configuration``.  The configuration budget
bounds the grid product, not the number of states the search visits."""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "errors": ("BudgetError", "DigraphFormatError", "InadmissibleDigraphError",
               "InstanceFormatError", "InternalError", "TransformStuckError"),
    "instance": ("Instance", "emit_instance", "parse_instance"),
    "processing": ("solve_min_places",),
    "solutions": ("BinSolution", "PalletSolution", "ReplayReport", "open_set_trace",
                  "opening_order", "replay", "transform"),
    "seqgraph": ("DecompositionCheck", "Digraph", "DirectedPathDecomposition",
                 "admissibility_violations", "build_sequence_graph", "decomposition_to_dot",
                 "decomposition_to_processing", "digraph_to_dot", "emit_digraph",
                 "parse_digraph", "processing_to_decomposition", "reduce_digraph_to_queues",
                 "strip_endpoints", "validate_decomposition"),
    "pathwidth": ("DpwResult", "dpw_exact", "dpw_via_stackup"),
    "generate": ("GenSpec", "SplitMix64", "generate_instance", "random_admissible_digraph"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
