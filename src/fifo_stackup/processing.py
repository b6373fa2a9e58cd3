"""Minimum stack-up places, by the level search of ``fifo_stackup.search``.

``solve_min_places`` searches the paper's decision configurations: those
where no front bin belongs to an open pallet.  Every other removal is forced
and never raises the open count, so a decision configuration is fixed by the
set S of pallets started so far, and one step opens a front pallet and
drains the fronts of open pallets.  The pallets open at S are the boundary
b(S) of S in the sequence graph, so the search is ``search.minimax_order``,
the one ``pathwidth.dpw_exact`` runs, here from both ends of the order, with
its forward half restricted to front pallets.  Its backward half, from the
last pallet back, is not restricted: an order it joins to the forward half
turns into a processing through ``transform`` all the same.  Its rules, why
the search stays exact, and the lower bound it starts at, are stated there.

The oracle it is checked against, the bottleneck dynamic program over the
whole configuration grid, ``opt_bottleneck(ConfigurationDag(inst))``, lives
in ``fifo_stackup.oracles``.  The configuration budget bounds that grid
product, not the number of states visited.
"""

from __future__ import annotations

from .errors import BudgetError, InternalError, TransformStuckError
# build_pallet_index stays a module attribute: perfbench/spans.py wraps
# fifo_stackup.processing.build_pallet_index in traced runs.
from .instance import Instance, build_pallet_index  # noqa: F401
from .search import minimax_order
from .solutions import BinSolution, PalletSolution, transform

DEFAULT_CONFIGURATION_BUDGET = 50_000_000


def grid_size(inst: Instance, max_configurations: int) -> int:
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

    The search runs over the sequence graph: the in-neighbours of t are the
    pallets with a bin before a t-bin in some queue, and its out-neighbours
    those with a bin after one.  A forward pass over each queue builds the
    in-masks and a backward pass the out-masks.  A one-bin pallet never
    opens, and taking it from a front is forced like draining an open pallet,
    so the one-bin pallets are the search's ``start``, placed first, and the
    search keeps the front pallets of the queues as they are.  ``transform``
    turns the order found, after the one-bin pallets, into the bin solution,
    and the pallet solution is its pallets by first removal; an order it
    refuses is an InternalError.  The budget caps the grid product before any
    search; ``oracles.MAX_GRID_CONFIGURATIONS`` caps that of the grid DP.
    """
    grid_size(inst, max_configurations)
    singles = sum(1 << t for t, count in enumerate(inst.bin_counts()) if count == 1)
    in_mask = [0] * inst.m
    out_mask = [0] * inst.m
    for seq in inst.sequences:
        seen = 0
        for t in seq:
            bit = 1 << t
            in_mask[t] |= seen & ~bit
            seen |= bit
        later = 0
        for t in reversed(seq):
            bit = 1 << t
            out_mask[t] |= later & ~bit
            later |= bit
    peak, order = minimax_order(in_mask, out_mask, singles, inst.sequences)
    order = [t for t in range(inst.m) if singles >> t & 1] + order
    try:
        bin_solution = transform(inst, PalletSolution(tuple(order)))
    except (TransformStuckError, ValueError) as exc:
        raise InternalError(f"the search's pallet order is no processing: {exc}") from exc
    sequences = inst.sequences
    opened = dict.fromkeys(sequences[j][pos - 1] for j, pos in bin_solution.moves)
    return peak + 1, bin_solution, PalletSolution(tuple(opened))
