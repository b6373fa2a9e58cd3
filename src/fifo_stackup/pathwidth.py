"""Exact directed pathwidth: a level-ordered search over placed-vertex sets,
and the stack-up route.

Two independent routes are provided.  ``dpw_exact`` searches vertex
orderings under an ordering characterization of the width; ``dpw_via_stackup``
goes through the queue-system reduction and the stack-up solver
``solve_min_places``.  The subset-table dynamic program and the definitional
bag-sequence search that certify both live in ``fifo_stackup.oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, InternalError
from .processing import DEFAULT_CONFIGURATION_BUDGET, solve_min_places
from .seqgraph import (
    Digraph,
    DirectedPathDecomposition,
    processing_to_decomposition,
    reduce_digraph_to_queues,
    strip_endpoints,
    validate_decomposition,
)

DEFAULT_MAX_VERTICES = 16


@dataclass(frozen=True)
class DpwResult:
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


def _in_masks(graph: Digraph) -> list[int]:
    """Bitmask of the in-neighbours of each vertex."""
    in_mask = [0] * graph.vertex_count
    for u, v in graph.arcs:
        in_mask[v] |= 1 << u
    return in_mask


def _ordering_result(graph: Digraph, order: list[int], width: int) -> DpwResult:
    """The certified decomposition of a vertex ordering: the bag of v is v plus
    every vertex placed before it that still has an unplaced in-neighbour."""
    in_mask = _in_masks(graph)
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
    |b(S)| over the prefixes S.  The characterization itself is not taken on
    faith: the tests check it against the definitional bag-sequence search.

    A minimax search over the sets S finds it, with b(S) carried as a bitmask.
    Placing v drops from b(S) the vertices whose one unplaced in-neighbour is
    v, and adds v if it has an unplaced in-neighbour.  The cost of S is the
    peak |b| along the path that reached it, raised to the least out-degree
    h(S) of an unplaced vertex: the last vertex v of any completion of S is
    unplaced, and the prefix before it has boundary out(v).  h only grows with
    S.  Levels are costs, visited in increasing order from h of the empty
    set.  Sets whose cost is at most the level go on a stack, and costlier
    ones wait in a bucket per cost (Dial's buckets, not a heap).  A successor
    already seen is skipped before its boundary is computed.  One byte table
    of 2^n entries, holding 1 + the vertex placed last, is both the seen mark
    and the witness link.

    Free moves: when placing v does not grow the boundary, |b(S + v)| <=
    |b(S)|, v is the only successor expanded from S.  This is sound because b
    is submodular.  For S within X and v not in X, placing v changes |b(X)| by
    D(X, v) = [in(v) not within X + v] - |{u in X : in(u) - X = {v}}|, whose
    first term can only fall and whose set can only grow as X grows, so
    D(X, v) <= D(S, v) <= 0.  Moving v forward to directly after S therefore
    never raises a later prefix, and some optimal ordering places v next.
    """
    _check_vertex_budget(graph, max_vertices)
    if graph.vertex_count == 0:
        return DpwResult(-1, DirectedPathDecomposition(()))
    width, order = _level_search(graph)
    return _ordering_result(graph, order, width)


def _level_search(graph: Digraph) -> tuple[int, list[int]]:
    """The width and an optimal vertex ordering of a nonempty digraph."""
    n = graph.vertex_count
    in_mask = _in_masks(graph)
    out_mask = [0] * n
    for u, v in graph.arcs:
        out_mask[u] |= 1 << v
    by_degree = sorted((mask.bit_count(), 1 << v) for v, mask in enumerate(out_mask))
    full = (1 << n) - 1
    last = bytearray(1 << n)  # 1 + the vertex placed last; 0 while unseen
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    level = by_degree[0][0]
    stack = [(0, 0)]  # (S, b(S)) pairs
    while True:
        while stack:
            placed, boundary = stack.pop()
            unplaced = full ^ placed
            single = -1  # set up at the first unseen successor
            moves = []
            rest = unplaced
            while rest:
                bit = rest & -rest
                rest ^= bit
                successor = placed | bit
                if last[successor]:
                    continue
                if single < 0:
                    # boundary vertices with exactly one unplaced in-neighbour
                    # leave when that one is placed
                    size = boundary.bit_count()
                    single = 0
                    left = boundary
                    while left:
                        low = left & -left
                        left ^= low
                        waiting = in_mask[low.bit_length() - 1] & unplaced
                        if not waiting & (waiting - 1):
                            single |= low
                v = bit.bit_length() - 1
                grown = boundary ^ (single & out_mask[v])
                if in_mask[v] & unplaced:
                    grown |= bit
                if grown.bit_count() <= size:
                    moves = [(bit, successor, grown)]  # a free move: expand it alone
                    break
                moves.append((bit, successor, grown))
            if not moves:
                continue
            # h of a successor: the least out-degree h of an unplaced vertex,
            # or the next one up, h_after, when that vertex is the one placed
            first = h = h_after = 0
            for degree, bit in by_degree:
                if unplaced & bit:
                    if first:
                        h_after = degree
                        break
                    first, h = bit, degree
            for bit, successor, grown in moves:
                last[successor] = bit.bit_length()
                if successor == full:
                    order = []
                    while successor:
                        v = last[successor] - 1
                        order.append(v)
                        successor ^= 1 << v
                    order.reverse()
                    return level, order
                cost = grown.bit_count()
                bound = h_after if bit == first else h
                if bound > cost:
                    cost = bound
                (stack if cost <= level else buckets[cost]).append((successor, grown))
        level += 1
        while not buckets[level]:
            level += 1
        stack = buckets[level]


def dpw_via_stackup(
    graph: Digraph,
    *,
    strip: bool = False,
    max_configurations: int = DEFAULT_CONFIGURATION_BUDGET,
) -> DpwResult:
    """Directed pathwidth through the stack-up route.

    Reduces the graph to its queue system, solves for the minimum number of
    stack-up places, and reads the decomposition off the witness processing;
    the width is the place count minus one.  With ``strip=True`` vertices
    lacking in- or out-arcs are removed first and reattached as singleton
    bags (sources and isolated vertices in front, sinks at the back).
    """
    core, removals = strip_endpoints(graph) if strip else (graph, ())
    lookup = {name: i for i, name in enumerate(graph.names)}
    if core.vertex_count == 0:
        bags: list[frozenset[int]] = []
    else:
        inst = reduce_digraph_to_queues(core)
        _, bin_solution, _ = solve_min_places(inst, max_configurations=max_configurations)
        core_decomposition = processing_to_decomposition(inst, bin_solution)
        bags = [
            frozenset(lookup[inst.symbols[t]] for t in bag)
            for bag in core_decomposition.bags
        ]
    for name, kind in reversed(removals):
        bag = frozenset((lookup[name],))
        if kind == "sink":
            bags.append(bag)
        else:
            bags.insert(0, bag)
    decomposition = DirectedPathDecomposition(tuple(bags))
    width = decomposition.width
    _certify(graph, decomposition, width)
    return DpwResult(width, decomposition)
