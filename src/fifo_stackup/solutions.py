"""Pallet and bin solutions, replay verification, and brute-force baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetError, TransformStuckError
from .instance import Instance

DEFAULT_MAX_PALLETS = 8
DEFAULT_MAX_BINS = 10


@dataclass(frozen=True)
class PalletSolution:
    """Order in which pallets are opened, as interned pallet ids."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("pallet order contains duplicates")

    @classmethod
    def from_symbols(cls, inst: Instance, symbols: Iterable[str]) -> "PalletSolution":
        return cls(inst.symbol_ids(symbols))

    def to_symbols(self, inst: Instance) -> tuple[str, ...]:
        return tuple(inst.symbols[t] for t in self.order)


@dataclass(frozen=True)
class BinSolution:
    """Bin removal order as (sequence index, 1-based position) moves."""

    moves: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of simulating a bin solution.

    ``open_trace`` holds the open-pallet count after each step, starting with
    the initial configuration; ``max_open`` is its maximum.  For an invalid
    solution ``first_violation`` is the index of the offending move (or the
    move count when bins were left unconsumed) and the trace covers only the
    prefix before it.
    """

    max_open: int
    open_trace: tuple[int, ...]
    valid: bool
    first_violation: int | None = None


def _open_step(counts, removed, t) -> int:
    """Open-count change when one more bin of pallet t is removed."""
    if counts[t] == 1:
        return 0
    if removed[t] == 1:
        return 1
    if removed[t] == counts[t]:
        return -1
    return 0


class _Stepper:
    """A processing in progress: queue positions, bins removed per pallet, the
    open-pallet set and the moves made so far."""

    def __init__(self, inst: Instance):
        self.sequences = inst.sequences
        self.counts = inst.bin_counts()
        self.positions = [0] * inst.k
        self.removed = [0] * inst.m
        self.open: set[int] = set()
        self.moves: list[tuple[int, int]] = []

    def fronts(self) -> list[tuple[int, int]]:
        """(queue, pallet) of every front bin."""
        return [(j, seq[p]) for j, (seq, p) in enumerate(zip(self.sequences, self.positions))
                if p < len(seq)]

    def remove(self, j: int) -> int:
        """Remove the front bin of queue j; returns its pallet."""
        p = self.positions[j]
        t = self.sequences[j][p]
        self.positions[j] = p + 1
        self.moves.append((j, p + 1))
        self.removed[t] += 1
        if self.removed[t] == self.counts[t]:
            self.open.discard(t)
        elif self.removed[t] == 1:
            self.open.add(t)
        return t

    def drain(self, pallets) -> None:
        """Remove front bins of the given pallets, lowest queue first.

        Draining never adds to the set, so one pass over the queues suffices.
        """
        for j, seq in enumerate(self.sequences):
            while self.positions[j] < len(seq) and seq[self.positions[j]] in pallets:
                self.remove(j)

    def follow(self, moves, observe) -> int | None:
        """Make the given moves, calling ``observe()`` after each.

        Returns None for a complete processing, else the index of the first
        move that is not the next bin of its queue, or the move count when
        bins were left unconsumed.
        """
        positions, sequences = self.positions, self.sequences
        for step, (j, pos) in enumerate(moves):
            if not (0 <= j < len(sequences) and pos == positions[j] + 1 <= len(sequences[j])):
                return step
            self.remove(j)
            observe()
        return len(moves) if self.fronts() else None


def replay(inst: Instance, b_sol: BinSolution) -> ReplayReport:
    """Simulate a bin solution and report validity and the peak open count."""
    stepper = _Stepper(inst)
    trace = [0]
    violation = stepper.follow(b_sol.moves, lambda: trace.append(len(stepper.open)))
    return ReplayReport(max(trace), tuple(trace), violation is None, violation)


def open_set_trace(inst: Instance, b_sol: BinSolution) -> tuple[frozenset[int], ...]:
    """Open-pallet sets along a valid processing, initial configuration included."""
    stepper = _Stepper(inst)
    trace = [frozenset()]
    violation = stepper.follow(b_sol.moves, lambda: trace.append(frozenset(stepper.open)))
    if violation is not None:
        raise ValueError(f"invalid bin solution at move {violation}")
    return tuple(trace)


def opening_order(inst: Instance, b_sol: BinSolution) -> PalletSolution:
    """Pallet solution induced by a bin solution: pallets by first removal."""
    stepper = _Stepper(inst)
    return PalletSolution(tuple(dict.fromkeys(stepper.remove(j) for j, _ in b_sol.moves)))


def transform(inst: Instance, t_sol: PalletSolution) -> BinSolution:
    """Turn a pallet order into a bin solution.

    Repeatedly removes the front bin of the lowest-indexed sequence whose
    front is destined for an already-opened pallet; when no front qualifies,
    the next pallet of the order is opened.  Runs in O(n + m * k).
    """
    stepper = _Stepper(inst)
    opened: set[int] = set()
    for t in t_sol.order:
        if not 0 <= t < inst.m:
            raise ValueError(f"pallet id {t} out of range")
        opened.add(t)
        stepper.drain(opened)
    if stepper.fronts():
        raise TransformStuckError(
            "stuck: no front bin matches the opened prefix and no pallets remain")
    return BinSolution(tuple(stepper.moves))


def brute_force_pallet_orders(
    inst: Instance, *, max_pallets: int = DEFAULT_MAX_PALLETS
) -> tuple[int, PalletSolution]:
    """Minimum places over all pallet orders, by exhaustive search.

    Enumerates pallet permutations depth-first in ascending id order and
    prunes any prefix whose partial peak already matches the incumbent; the
    witness is therefore the lexicographically first optimal order.
    """
    m = inst.m
    if m > max_pallets:
        raise BudgetError(f"factorial budget exceeded: {m} pallets > limit {max_pallets}")
    counts = inst.bin_counts()
    sequences = inst.sequences
    best = m + 2  # above any achievable peak
    best_order: tuple[int, ...] | None = None

    def consume(positions, removed, opened, open_count, peak):
        # drain front bins of opened pallets, lowest sequence first
        progressed = True
        while progressed:
            progressed = False
            for j, seq in enumerate(sequences):
                p = positions[j]
                if p < len(seq) and seq[p] in opened:
                    t = seq[p]
                    positions[j] = p + 1
                    removed[t] += 1
                    open_count += _open_step(counts, removed, t)
                    if open_count > peak:
                        peak = open_count
                    progressed = True
                    break
        return open_count, peak

    def search(positions, removed, opened, order, open_count, peak):
        nonlocal best, best_order
        if peak >= best:
            return
        if len(order) == m:
            best = peak
            best_order = tuple(order)
            return
        for t in range(m):
            if t in opened:
                continue
            next_positions = positions.copy()
            next_removed = removed.copy()
            opened.add(t)
            order.append(t)
            oc, pk = consume(next_positions, next_removed, opened, open_count, peak)
            search(next_positions, next_removed, opened, order, oc, pk)
            opened.discard(t)
            order.pop()

    search([0] * inst.k, [0] * m, set(), [], 0, 0)
    assert best_order is not None
    return best, PalletSolution(best_order)


def brute_force_bin_orders(inst: Instance, *, max_bins: int = DEFAULT_MAX_BINS) -> int:
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
