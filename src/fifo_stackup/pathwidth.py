"""Exact directed pathwidth: a level-ordered search over placed-vertex sets,
and the stack-up route.

``dpw_exact`` runs the minimax search of ``processing._minimax_order`` on the
digraph itself; ``dpw_via_stackup`` reduces it to a queue system and runs
``solve_min_places``, the same search restricted to front pallets.  The
independent checks, the subset-table dynamic program and the definitional
bag-sequence search, live in ``fifo_stackup.oracles``.
"""

from __future__ import annotations

from . import seqgraph
from ._record import Record
from .errors import BudgetError, InternalError
from .processing import (
    DEFAULT_CONFIGURATION_BUDGET,
    DEFAULT_MAX_VERTICES,
    _minimax_order,
    solve_min_places,
)
from .seqgraph import (
    Digraph,
    DirectedPathDecomposition,
    reduce_digraph_to_queues,
    strip_endpoints,
    validate_decomposition,
)
# Not called here: perfbench/spans.py still wraps this module's reference in
# traced runs, so it stays until that hook moves (ROADMAP item 5).
from .seqgraph import processing_to_decomposition  # noqa: F401


class DpwResult(Record):
    """Directed pathwidth (-1 for the empty graph) plus a witness decomposition."""

    width: int
    decomposition: DirectedPathDecomposition


def _certify(graph: Digraph, decomposition: DirectedPathDecomposition, width: int) -> None:
    check = validate_decomposition(graph, decomposition)
    if not check.ok or check.width != width:
        raise InternalError(
            f"witness decomposition failed certification "
            f"({check.violation}, width {check.width} vs {width})")


def _check_vertex_budget(graph: Digraph, max_vertices: int) -> None:
    n = graph.vertex_count
    if n > max_vertices:
        raise BudgetError(f"vertex budget exceeded: {n} vertices > limit {max_vertices}")


def _arc_masks(graph: Digraph) -> tuple[list[int], list[int]]:
    """Bitmasks of the in-neighbours and of the out-neighbours of each vertex."""
    in_mask = [0] * graph.vertex_count
    out_mask = [0] * graph.vertex_count
    for u, v in graph.arcs:
        in_mask[v] |= 1 << u
        out_mask[u] |= 1 << v
    return in_mask, out_mask


def _ordering_result(graph: Digraph, in_mask: list[int], order: list[int],
                     width: int) -> DpwResult:
    """The certified decomposition of a vertex ordering: the bag of v is v plus
    every vertex placed before it that still has an unplaced in-neighbour;
    ``in_mask`` as from ``_arc_masks``."""
    bags = []
    placed = 0
    for v in order:
        bag = {v}
        rest = placed
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if in_mask[u] & ~placed:
                bag.add(u)
        bags.append(frozenset(bag))
        placed |= 1 << v
    decomposition = DirectedPathDecomposition(tuple(bags))
    _certify(graph, decomposition, width)
    return DpwResult(width, decomposition)


def dpw_exact(graph: Digraph, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> DpwResult:
    """Exact directed pathwidth by a level-ordered search over placed-vertex sets.

    Works on the ordering characterization: placing the vertices one by one,
    the bag opened for the next vertex after the placed set S is that vertex
    plus the boundary b(S), the placed vertices that still have an unplaced
    in-neighbour.  The width is the least, over orderings, of the largest
    |b(S)| over the prefixes S, which ``processing._minimax_order`` finds
    with every vertex allowed at every step.  The characterization itself is
    not taken on faith: the tests check it against the definitional
    bag-sequence search.
    """
    _check_vertex_budget(graph, max_vertices)
    in_mask, out_mask = _arc_masks(graph)
    width, order = _minimax_order(in_mask, out_mask)
    return _ordering_result(graph, in_mask, order, width)


def dpw_via_stackup(
    graph: Digraph,
    *,
    max_configurations: int = DEFAULT_CONFIGURATION_BUDGET,
) -> DpwResult:
    """Directed pathwidth through the stack-up route.

    Vertices lacking in- or out-arcs are stripped first and reattached as
    singleton bags (sources and isolated vertices in front, in removal order;
    sinks at the back, in reverse removal order), which leaves the width
    unchanged and an admissible graph as it is.  The rest is reduced to its
    queue system, solved for the minimum number of stack-up places, and the
    bags are the open-pallet sets along the witness processing; the width is
    the place count minus one.  The decomposition is certified once, against
    the input graph.
    """
    core, removals = strip_endpoints(graph)
    lookup = {name: i for i, name in enumerate(graph.names)}
    front = [frozenset((lookup[name],)) for name, kind in removals if kind != "sink"]
    back = [frozenset((lookup[name],)) for name, kind in reversed(removals) if kind == "sink"]
    if core.vertex_count == 0:
        bags: list[frozenset[int]] = []
    else:
        inst = reduce_digraph_to_queues(core)
        _, bin_solution, _ = solve_min_places(inst, max_configurations=max_configurations)
        try:
            # seqgraph's reference, the one perfbench/spans.py traces
            trace = seqgraph.open_set_trace(inst, bin_solution)
        except ValueError as exc:
            raise InternalError(f"stack-up witness does not read as a decomposition: {exc}") from exc
        bags = [frozenset(lookup[inst.symbols[t]] for t in bag) for bag in trace]
    decomposition = DirectedPathDecomposition(tuple(front + bags + back))
    width = decomposition.width
    _certify(graph, decomposition, width)
    return DpwResult(width, decomposition)
