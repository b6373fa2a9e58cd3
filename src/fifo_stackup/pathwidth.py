"""Exact directed pathwidth: subset dynamic programming and a definitional search.

Two independent routes are provided.  ``dpw_exact`` runs a dynamic program
over vertex subsets built on an ordering characterization of the width;
``dpw_via_stackup`` goes through the queue-system reduction and the stack-up
solver ``solve_min_places``.  ``dpw_brute_force`` searches bag sequences straight
from the three decomposition properties and is used to certify the other two
at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetError
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
        raise AssertionError(
            f"internal error: witness decomposition failed certification "
            f"({check.violation}, width {check.width} vs {width})")


def dpw_exact(graph: Digraph, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> DpwResult:
    """Exact directed pathwidth by dynamic programming over vertex subsets.

    Works on the ordering characterization: placing the vertices one by one,
    the bag opened for the next vertex consists of that vertex plus every
    already-placed vertex that still has an unplaced in-neighbor.  The width
    is the best achievable peak bag size minus one.  The characterization
    itself is not taken on faith: the test suite checks it against the
    definitional bag-sequence search on small graphs.
    """
    n = graph.vertex_count
    if n > max_vertices:
        raise BudgetError(f"vertex budget exceeded: {n} vertices > limit {max_vertices}")
    if n == 0:
        return DpwResult(-1, DirectedPathDecomposition(()))
    in_mask = [0] * n
    for u, v in graph.arcs:
        in_mask[v] |= 1 << u
    full = (1 << n) - 1

    boundary_size = [0] * (full + 1)
    for state in range(1, full + 1):
        count = 0
        rest = state
        while rest:
            low = rest & -rest
            rest ^= low
            if in_mask[low.bit_length() - 1] & ~state:
                count += 1
        boundary_size[state] = count

    infinity = n + 2
    cost = [infinity] * (full + 1)
    chosen = [-1] * (full + 1)
    cost[0] = 0
    for state in range(full + 1):
        c = cost[state]
        if c == infinity:
            continue
        step = boundary_size[state] + 1
        via = step if step > c else c
        for v in range(n):
            bit = 1 << v
            if state & bit:
                continue
            successor = state | bit
            if via < cost[successor]:
                cost[successor] = via
                chosen[successor] = v

    order = []
    state = full
    while state:
        v = chosen[state]
        order.append(v)
        state ^= 1 << v
    order.reverse()

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
    width = cost[full] - 1
    _certify(graph, decomposition, width)
    return DpwResult(width, decomposition)


def decide_dpw(graph: Digraph, w: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """True when the graph has a directed path-decomposition of width at most w."""
    return dpw_exact(graph, max_vertices=max_vertices).width <= w


def search_decomposition_by_bags(graph: Digraph, width: int) -> DirectedPathDecomposition | None:
    """Definitional search for a decomposition of width at most ``width``.

    Grows bag sequences left to right, enforcing the three decomposition
    properties directly: a vertex that has left its bag may not return, and
    an arc is covered once its head sits in a bag with its tail already
    started.  The search is exhaustive over the reachable state space, so a
    None result proves no such decomposition exists.  Small graphs only.
    """
    n = graph.vertex_count
    if n == 0:
        return DirectedPathDecomposition(())
    if width < 0:
        return None
    max_bag = width + 1
    vertices = frozenset(range(n))
    all_arcs = frozenset(graph.arcs)
    visited: set[tuple[frozenset[int], frozenset[int], frozenset[tuple[int, int]]]] = set()
    path: list[frozenset[int]] = []

    def dfs(started: frozenset[int], prev: frozenset[int],
            uncovered: frozenset[tuple[int, int]]) -> bool:
        if len(started) == n and not uncovered:
            return True
        gone = started - prev
        for _, v in uncovered:
            if v in gone:
                return False  # head left the bags; arc can never be covered
        allowed = sorted(prev | (vertices - started))
        for size in range(1, min(len(allowed), max_bag) + 1):
            for bag_tuple in combinations(allowed, size):
                bag = frozenset(bag_tuple)
                n_started = started | bag
                n_uncovered = frozenset(
                    (u, v) for u, v in uncovered if not (v in bag and u in n_started))
                state = (n_started, bag, n_uncovered)
                if state in visited:
                    continue
                visited.add(state)
                path.append(bag)
                if dfs(n_started, bag, n_uncovered):
                    return True
                path.pop()
        return False

    if dfs(frozenset(), frozenset(), all_arcs):
        return DirectedPathDecomposition(tuple(path))
    return None


def dpw_brute_force(graph: Digraph) -> DpwResult:
    """Smallest width admitting a definitional bag sequence.

    Independent of dpw_exact; intended for certifying results on graphs with
    a handful of vertices.
    """
    n = graph.vertex_count
    if n == 0:
        return DpwResult(-1, DirectedPathDecomposition(()))
    for width in range(n):
        found = search_decomposition_by_bags(graph, width)
        if found is not None:
            return DpwResult(width, found)
    raise AssertionError("unreachable: the single-bag decomposition always exists")


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
