"""Minimum stack-up places by a minimax search over decision configurations.

``solve_min_places`` searches the paper's processing graph.  Its vertices are
the *decision configurations*: those where no front bin belongs to an open
pallet.  Every other removal is forced and never raises the open count, so
a decision configuration is fixed by the set of pallets started so far, and
one step opens a front pallet and drains the fronts of open pallets.

The full configuration DAG (one vertex per vector of per-sequence removed
counts, valued with its open-pallet count) and the bottleneck dynamic
program over it, ``opt_bottleneck(ConfigurationDag(inst))``, are the oracle
the search is checked against; they live in ``fifo_stackup.oracles``.  The
configuration budget bounds that grid product, for both routes, not the
number of states visited.
"""

from __future__ import annotations

import heapq

from .errors import BudgetError
# build_pallet_index stays a module attribute: perfbench/spans.py wraps
# fifo_stackup.processing.build_pallet_index in traced runs.
from .instance import Instance, build_pallet_index  # noqa: F401
from .solutions import BinSolution, PalletSolution, transform

DEFAULT_CONFIGURATION_BUDGET = 50_000_000


def grid_size(inst: Instance, max_configurations: int = DEFAULT_CONFIGURATION_BUDGET) -> int:
    """Number of configurations, prod(|q_i| + 1); raises BudgetError above the budget."""
    count = 1
    for seq in inst.sequences:
        count *= len(seq) + 1
        if count > max_configurations:
            raise BudgetError(
                f"state space too large: more than {max_configurations} configurations")
    return count


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
