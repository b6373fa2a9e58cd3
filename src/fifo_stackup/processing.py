"""Minimum stack-up places by a minimax search over decision configurations.

``solve_min_places`` searches the paper's processing graph.  Its vertices are
the *decision configurations*: those where no front bin belongs to an open
pallet.  Every other removal is forced and never raises the open count, so
a decision configuration is fixed by the set of pallets started so far, and
one step opens a front pallet and drains the fronts of open pallets.

The full configuration DAG (one vertex per vector of per-sequence removed
counts, valued with its open-pallet count) and the bottleneck dynamic
program over it, ``opt_bottleneck(ConfigurationDag(inst))``, stay as the
oracle the search is checked against.  The configuration budget still bounds
that grid product, for both routes, not the number of states visited.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from .errors import BudgetError
from .instance import (
    Configuration,
    Instance,
    PalletIndex,
    build_pallet_index,
    check_configuration,
    cut,
    is_open_pallet,
)
from .solutions import BinSolution, PalletSolution, transform

DEFAULT_CONFIGURATION_BUDGET = 50_000_000
INFINITY = math.inf


@dataclass(frozen=True)
class DpResult:
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


def grid_size(inst: Instance, max_configurations: int = DEFAULT_CONFIGURATION_BUDGET) -> int:
    """Number of configurations, prod(|q_i| + 1); raises BudgetError above the budget."""
    count = 1
    for seq in inst.sequences:
        count *= len(seq) + 1
        if count > max_configurations:
            raise BudgetError(
                f"state space too large: more than {max_configurations} configurations")
    return count


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
    coordinate, so no arc list is ever materialized.  Vertex values are
    open-pallet counts, computed incrementally via open_delta from one
    predecessor per vertex.
    """

    def __init__(
        self,
        inst: Instance,
        index: PalletIndex | None = None,
        max_configurations: int = DEFAULT_CONFIGURATION_BUDGET,
    ):
        self.instance = inst
        self.index = index if index is not None else build_pallet_index(inst)
        self.limits = tuple(len(seq) for seq in inst.sequences)
        self.count = count = grid_size(inst, max_configurations)
        strides = []
        stride = 1
        for limit in reversed(self.limits):
            strides.append(stride)
            stride *= limit + 1
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
        """All configurations by increasing coordinate sum, lexicographic within a layer."""
        limits, strides = self.limits, self.strides
        k = len(limits)
        tail = [0] * (k + 1)
        for j in range(k - 1, -1, -1):
            tail[j] = tail[j + 1] + limits[j]

        def emit(j: int, remaining: int, base: int) -> Iterator[int]:
            if j == k:
                yield base
                return
            cap = tail[j + 1]
            low = remaining - cap if remaining > cap else 0
            high = limits[j] if limits[j] < remaining else remaining
            for digit in range(low, high + 1):
                yield from emit(j + 1, remaining - digit, base + digit * strides[j])

        for total in range(tail[0] + 1):
            yield from emit(0, total, 0)

    def predecessors(self, v: int) -> list[int]:
        preds = []
        rest = v
        for stride in self.strides:
            digit, rest = divmod(rest, stride)
            if digit:
                preds.append(v - stride)
        return preds

    def value(self, v: int) -> int:
        cached = self._values.get(v)
        if cached is not None:
            return cached
        if v == 0:
            result = len(cut(self.instance, self.decode(0)))
        else:
            cfg = self.decode(v)
            j = next(i for i, digit in enumerate(cfg) if digit)
            previous = list(cfg)
            previous[j] -= 1
            result = self._values[v - self.strides[j]] + open_delta(
                self.instance, self.index, tuple(previous), j)
        self._values[v] = result
        return result


def solve_min_places(
    inst: Instance, *, max_configurations: int = DEFAULT_CONFIGURATION_BUDGET
) -> tuple[int, BinSolution, PalletSolution]:
    """Minimum number of stack-up places over all processings, with witnesses.

    A heap-ordered minimax search (Dijkstra with max in place of sum) over
    decision configurations.  Each is keyed by the bitmask ``started`` of the
    pallets opened so far: every queue stands past its longest prefix of
    started pallets, and the open pallets are the started ones with a bin
    still waiting.  A step opens one distinct front pallet t; the forced drain
    after it only closes pallets, so the step peaks at the open count, plus
    one when t has a second bin.  The pallet order read back from the
    predecessor links is the pallet solution, and ``transform`` turns it into
    the bin solution.  The budget bounds the grid product, as in
    ConfigurationDag, before any search.
    """
    grid_size(inst, max_configurations)
    m = inst.m
    full = (1 << m) - 1
    # per queue and position p: the pallet bit of bin p, with a 0 sentinel
    # past the end, and the bitmask of the pallets of bins p, p+1, ...
    queue_bits = []
    waiting = []
    for seq in inst.sequences:
        bits = [1 << t for t in seq] + [0]
        masks = bits.copy()
        for p in range(len(seq) - 1, -1, -1):
            masks[p] |= masks[p + 1]
        queue_bits.append(bits)
        waiting.append(masks)
    multi = sum(1 << t for t, count in enumerate(inst.bin_counts()) if count >= 2)
    peak = {0: 0}
    pred: dict[int, int] = {}
    positions = {0: (0,) * inst.k}
    heap = [0]  # entries are peak << m | started, cheapest peak first
    while True:
        entry = heapq.heappop(heap)
        started = entry & full
        if started == full:
            break
        cost = entry >> m
        if cost > peak[started]:
            continue  # superseded by a cheaper entry
        pos = positions[started]
        remaining = fronts = 0
        for bits, masks, p in zip(queue_bits, waiting, pos):
            remaining |= masks[p]
            fronts |= bits[p]
        open_count = (started & remaining).bit_count()
        while fronts:
            bit = fronts & -fronts
            fronts ^= bit
            step = open_count + 1 if multi & bit else open_count
            value = cost if cost >= step else step
            successor = started | bit
            known = peak.get(successor)
            if known is not None and known <= value:
                continue
            if known is None:
                moved = []
                for bits, p in zip(queue_bits, pos):
                    while successor & bits[p]:
                        p += 1
                    moved.append(p)
                positions[successor] = tuple(moved)
            peak[successor] = value
            pred[successor] = started
            heapq.heappush(heap, value << m | successor)
    order = []
    while started:
        previous = pred[started]
        order.append((started ^ previous).bit_length() - 1)
        started = previous
    pallet_solution = PalletSolution(tuple(reversed(order)))
    return peak[full], transform(inst, pallet_solution), pallet_solution


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
