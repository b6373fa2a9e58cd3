"""Independent routes that the solvers are checked against.

``import fifo_stackup`` does not load this module; import it as
``fifo_stackup.oracles``.  Only the CLI's ``pallet-bf`` and ``bin-bf`` methods
run code from here; every default route is checked against it in the tests.

* The grid-configuration view.  A configuration is the tuple of per-queue
  removed-bin counts; the count for a queue equals the position of the bin
  removed last from it.  ``cut`` gives its open pallets from the definition,
  ``is_open_pallet`` and ``open_delta`` from the first/last tables of
  ``instance.build_pallet_index``, and ``check_configuration`` checks its
  bounds.  The solvers never visit this grid.
* The configuration DAG, one vertex per configuration valued with its
  open-pallet count, and the bottleneck dynamic program over it,
  ``opt_bottleneck(ConfigurationDag(inst))``: the oracle for
  ``solve_min_places``, with ``val_threshold_oracle`` as a second,
  independent evaluation of any small DAG.  The DP walks the mixed-radix
  configuration codes in increasing order, which is topological, and
  refuses grids above its own cap, ``MAX_GRID_CONFIGURATIONS``.
* Brute force over all pallet orders and over all FIFO bin interleavings.
* ``dpw_table``, a dynamic program over the full table of 2^n vertex
  subsets, the oracle for ``dpw_exact``; and ``dpw_brute_force``, which
  searches bag sequences straight from the three decomposition properties.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations

from ._record import Record
from .errors import BudgetError
from .instance import Instance, PalletIndex, build_pallet_index
from .pathwidth import DEFAULT_MAX_VERTICES, DpwResult, _check_vertex_budget, _ordering_result
from .processing import grid_size
from .search import arc_masks
from .seqgraph import Digraph, DirectedPathDecomposition
from .solutions import PalletSolution, _Stepper

INFINITY = math.inf
# The grid DP keeps three dicts keyed by configuration.  Its peak RSS was
# 222-279 B per configuration between 1.0e6 and 3.7e6 configurations (the
# most just after the dicts resize), so this cap holds it under about 2.3 GB.
MAX_GRID_CONFIGURATIONS = 8_000_000


# --- the configuration DAG and the bottleneck dynamic program ----------------

class DpResult(Record):
    """Bottleneck value at the target plus one witness source-to-target path."""

    value: int | float
    path: tuple[Hashable, ...]


class ExplicitDag:
    """Small in-memory DAG in the shape opt_bottleneck expects.

    ``vertices`` must be listed in a topological order; arcs are checked
    against it.
    """

    def __init__(self, vertices, arcs, values, source, target):
        self.vertices = list(vertices)
        position = {v: i for i, v in enumerate(self.vertices)}
        self.values = dict(values)
        self.source = source
        self.target = target
        self._preds: dict[Hashable, list] = {v: [] for v in self.vertices}
        for u, v in arcs:
            if position[u] >= position[v]:
                raise ValueError(f"arc {(u, v)} violates the given vertex order")
            self._preds[v].append(u)

    def topological_vertices(self) -> Iterator:
        return iter(self.vertices)

    def predecessors(self, v) -> Iterable:
        return self._preds[v]

    def value(self, v) -> int:
        return self.values[v]


def opt_bottleneck(dag) -> DpResult:
    """Minimize, over source-to-target paths, the maximum vertex value.

    Runs one pass over the vertices in topological order; for each vertex the
    smallest predecessor value is kept (ties to the first predecessor
    enumerated) and then raised to the vertex's own value.  Unreachable
    targets yield an infinite value and an empty path.
    """
    source, target = dag.source, dag.target
    val: dict[Hashable, int | float] = {source: dag.value(source)}
    pred: dict[Hashable, Hashable] = {}
    for v in dag.topological_vertices():
        if v == source:
            continue
        best = INFINITY
        best_pred = None
        for u in dag.predecessors(v):
            candidate = val.get(u, INFINITY)
            if candidate < best:
                best = candidate
                best_pred = u
        if best_pred is not None:
            pred[v] = best_pred
        fv = dag.value(v)
        val[v] = fv if fv > best else best
    answer = val.get(target, INFINITY)
    if answer == INFINITY:
        return DpResult(INFINITY, ())
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return DpResult(answer, tuple(path))


def val_threshold_oracle(dag) -> int | float:
    """Bottleneck value by repeated threshold deletion.

    Starting from the maximum vertex value r, repeatedly delete every vertex
    valued >= r and decrement r while a source-to-target path survives; the
    answer is r + 1.  Kept deliberately independent of opt_bottleneck as a
    cross-check.
    """
    vertices = list(dag.topological_vertices())
    preds = {v: tuple(dag.predecessors(v)) for v in vertices}
    values = {v: dag.value(v) for v in vertices}
    removed: set[Hashable] = set()
    source, target = dag.source, dag.target

    def has_path() -> bool:
        if source in removed or target in removed:
            return False
        seen = {target}
        stack = [target]
        while stack:
            v = stack.pop()
            if v == source:
                return True
            for u in preds[v]:
                if u not in removed and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False

    if not has_path():
        return INFINITY
    r = max(values.values())
    while has_path():
        removed.update(v for v in vertices if v not in removed and values[v] >= r)
        r -= 1
    return r + 1


Configuration = tuple[int, ...]


def check_configuration(inst: Instance, cfg: Configuration) -> None:
    if len(cfg) != inst.k:
        raise ValueError(f"configuration has {len(cfg)} entries, instance has {inst.k} sequences")
    for i, (count, seq) in enumerate(zip(cfg, inst.sequences)):
        if not 0 <= count <= len(seq):
            raise ValueError(f"removed count {count} out of range for sequence {i}")


def cut(inst: Instance, cfg: Configuration) -> frozenset[int]:
    """Pallets with a removed bin and a remaining bin: the open pallets.

    Computed directly from the definition (no incremental state) so it can
    serve as an oracle for the incremental update.
    """
    check_configuration(inst, cfg)
    removed: set[int] = set()
    remaining: set[int] = set()
    for seq, count in zip(inst.sequences, cfg):
        removed.update(seq[:count])
        remaining.update(seq[count:])
    return frozenset(removed & remaining)


def is_open_pallet(index: PalletIndex, cfg: Configuration, t: int) -> bool:
    """True when pallet t has at least one removed and one remaining bin."""
    started = any(f <= c for f, c in zip(index.first[t], cfg))
    pending = any(last > c for last, c in zip(index.last[t], cfg))
    return started and pending


def open_delta(inst: Instance, index: PalletIndex, cfg: Configuration, j: int) -> int:
    """Open-count change when the next bin of sequence j is removed.

    Evaluates in O(k) from the first/last tables: +1 when the removed bin is
    the first of its pallet anywhere, -1 when it is the last anywhere, else 0
    (both at once happens only for single-bin pallets, which never open).
    """
    seq = inst.sequences[j]
    i_j = cfg[j]
    if i_j >= len(seq):
        raise ValueError(f"sequence {j} is exhausted")
    t = seq[i_j]
    first, last = index.first[t], index.last[t]
    opened = first[j] == i_j + 1
    closed = last[j] == i_j + 1
    if opened:
        for ell, count in enumerate(cfg):
            if ell != j and first[ell] <= count:
                opened = False
                break
    if closed:
        for ell, count in enumerate(cfg):
            if ell != j and last[ell] > count:
                closed = False
                break
    if opened and not closed:
        return 1
    if closed and not opened:
        return -1
    return 0


class ConfigurationDag:
    """The implicit configuration DAG of an instance.

    Vertices are mixed-radix encodings of configurations (last coordinate
    fastest); predecessors are derived arithmetically by decrementing one
    coordinate, so no arc list is ever materialized.  A predecessor's code
    is smaller than its vertex's, so the codes in increasing order are a
    topological order, and the walk is ``range(count)``.  Vertex values are
    open-pallet counts, computed incrementally via open_delta from one
    predecessor per vertex, or by ``cut`` when that predecessor has no value
    yet.  Grids above ``MAX_GRID_CONFIGURATIONS`` raise
    BudgetError.
    """

    def __init__(self, inst: Instance):
        self.instance = inst
        self.index = build_pallet_index(inst)
        self.count = count = grid_size(inst, MAX_GRID_CONFIGURATIONS)
        strides = []
        stride = 1
        for seq in reversed(inst.sequences):
            strides.append(stride)
            stride *= len(seq) + 1
        self.strides = tuple(reversed(strides))
        self.source = 0
        self.target = count - 1
        self._values: dict[int, int] = {}

    def encode(self, cfg: Configuration) -> int:
        check_configuration(self.instance, cfg)
        return sum(c * s for c, s in zip(cfg, self.strides))

    def decode(self, v: int) -> Configuration:
        digits = []
        for stride in self.strides:
            digit, v = divmod(v, stride)
            digits.append(digit)
        return tuple(digits)

    def topological_vertices(self) -> Iterator[int]:
        return iter(range(self.count))

    def predecessors(self, v: int) -> list[int]:
        preds = []
        rest = v
        for stride in self.strides:
            digit, rest = divmod(rest, stride)
            if digit:
                preds.append(v - stride)
        return preds

    def value(self, v: int) -> int:
        """Open pallets at v: its first predecessor's value plus open_delta
        when that value is cached, as in a topological walk, else counted
        afresh by ``cut``, never by recursion down a chain of predecessors."""
        cached = self._values.get(v)
        if cached is not None:
            return cached
        cfg = self.decode(v)
        j = next((i for i, digit in enumerate(cfg) if digit), None)
        before = None if j is None else self._values.get(v - self.strides[j])
        if before is None:
            result = len(cut(self.instance, cfg))
        else:
            previous = list(cfg)
            previous[j] -= 1
            result = before + open_delta(self.instance, self.index, tuple(previous), j)
        self._values[v] = result
        return result


def prune_priority(inst: Instance, index: PalletIndex, cfg: Configuration) -> tuple[int, ...]:
    """Sequence indices worth exploring from a configuration.

    When some front bin is destined for an open pallet, that removal is safe
    and forced: only the lowest such sequence index is returned.  Otherwise
    the configuration is a decision configuration and every nonempty sequence
    qualifies.
    """
    check_configuration(inst, cfg)
    eligible = [
        j for j, (seq, count) in enumerate(zip(inst.sequences, cfg)) if count < len(seq)]
    if not eligible:
        raise ValueError("configuration is final")
    for j in eligible:
        if is_open_pallet(index, cfg, inst.sequences[j][cfg[j]]):
            return (j,)
    return tuple(eligible)


# --- brute force over pallet orders and bin interleavings --------------------

def _open_step(counts, removed, t) -> int:
    """Open-count change when one more bin of pallet t is removed."""
    if counts[t] == 1:
        return 0
    if removed[t] == 1:
        return 1
    if removed[t] == counts[t]:
        return -1
    return 0


def brute_force_pallet_orders(
    inst: Instance, *, max_pallets: int = 8
) -> tuple[int, PalletSolution]:
    """Minimum places over all pallet orders, by exhaustive search.

    Enumerates pallet permutations depth-first in ascending id order.  Each
    prefix drains the fronts of the opened pallets, as ``transform`` does, on
    a fork of its parent's processing (the last child takes the parent's
    own); a prefix whose partial peak already matches the incumbent is
    pruned.  The witness is therefore the lexicographically first optimal
    order.
    """
    m = inst.m
    if m > max_pallets:
        raise BudgetError(f"factorial budget exceeded: {m} pallets > limit {max_pallets}")
    best = m + 2  # above any achievable peak
    best_order: tuple[int, ...] | None = None
    opened: set[int] = set()
    order: list[int] = []

    def search(stepper, peak):
        nonlocal best, best_order
        if peak >= best:
            return
        rest = [t for t in range(m) if t not in opened]
        if not rest:
            best = peak
            best_order = tuple(order)
            return
        for t in rest:
            # the last child may take this prefix's stepper: no sibling needs it after
            child = stepper if t == rest[-1] else stepper.fork()
            opened.add(t)
            order.append(t)
            search(child, max(peak, child.drain(opened)))
            opened.discard(t)
            order.pop()

    search(_Stepper(inst), 0)
    assert best_order is not None
    return best, PalletSolution(best_order)


def brute_force_bin_orders(inst: Instance, *, max_bins: int = 10) -> int:
    """Minimum places over all FIFO bin orders, by exhaustive enumeration.

    This is the ground-truth oracle: it explores every interleaving of the
    queues, tracking open counts directly, with no shared machinery beyond
    the instance itself.
    """
    if inst.n > max_bins:
        raise BudgetError(f"bin-order budget exceeded: {inst.n} bins > limit {max_bins}")
    counts = inst.bin_counts()
    sequences = inst.sequences
    lengths = [len(seq) for seq in sequences]
    positions = [0] * inst.k
    removed = [0] * inst.m
    n = inst.n
    best = inst.m + 2

    def search(done, open_count, peak):
        nonlocal best
        if peak >= best:
            return
        if done == n:
            best = peak
            return
        for j in range(inst.k):
            p = positions[j]
            if p == lengths[j]:
                continue
            t = sequences[j][p]
            positions[j] = p + 1
            removed[t] += 1
            oc = open_count + _open_step(counts, removed, t)
            search(done + 1, oc, oc if oc > peak else peak)
            positions[j] = p
            removed[t] -= 1

    search(0, 0, 0)
    return best


# --- directed pathwidth ------------------------------------------------------

def dpw_table(graph: Digraph, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> DpwResult:
    """Exact directed pathwidth by dynamic programming over all vertex subsets.

    The same ordering characterization as ``dpw_exact``, evaluated over the
    whole table: every subset gets its boundary size, and every successor of
    every subset is relaxed in increasing subset order.
    """
    _check_vertex_budget(graph, max_vertices)
    n = graph.vertex_count
    if n == 0:
        return DpwResult(-1, DirectedPathDecomposition(()))
    in_mask, _ = arc_masks(graph)
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
    return _ordering_result(graph, in_mask, order, cost[full] - 1)


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
