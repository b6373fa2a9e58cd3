"""Pallet and bin solutions, and the processing stepper behind replay verification."""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record
from .errors import TransformStuckError
from .instance import Instance


class PalletSolution(Record):
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


class BinSolution(Record):
    """Bin removal order as (sequence index, 1-based position) moves."""

    moves: tuple[tuple[int, int], ...]


class ReplayReport(Record):
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


class _Stepper:
    """A processing in progress: queue positions, bins removed per pallet, the
    open-pallet set and the moves that ``drain`` made so far.

    A removal opens its pallet on the first bin and closes it on the last;
    a pallet with one bin never opens.  ``drain`` and ``follow`` each do
    that bookkeeping in their own loop.
    """

    __slots__ = ("sequences", "counts", "positions", "removed", "open", "moves")

    def __init__(self, inst: Instance):
        self.sequences = inst.sequences
        self.counts = inst.bin_counts()
        self.positions = [0] * inst.k
        self.removed = [0] * inst.m
        self.open: set[int] = set()
        self.moves: list[tuple[int, int]] = []

    def fork(self) -> "_Stepper":
        """An independent copy of this processing in progress, with an empty
        move log: the pallet brute force, the one caller, never reads the
        log, and ``transform``, which reads it, never forks."""
        twin = _Stepper.__new__(_Stepper)
        twin.sequences, twin.counts = self.sequences, self.counts
        twin.positions, twin.removed = self.positions.copy(), self.removed.copy()
        twin.open, twin.moves = self.open.copy(), []
        return twin

    def finished(self) -> bool:
        """Whether every bin has been removed."""
        return all(p == len(seq) for seq, p in zip(self.sequences, self.positions))

    def drain(self, pallets) -> int:
        """Remove front bins of the given pallets, lowest queue first, until no
        front bin belongs to one; returns the largest open count passed, the
        count before the drain included.

        The set stays fixed, so a drained queue never becomes eligible again
        and one pass over the queues suffices.  This is the only loop that
        turns a set of pallets into bin removals.
        """
        positions, removed, counts, opened, log = (
            self.positions, self.removed, self.counts, self.open, self.moves)
        peak = len(opened)
        for j, seq in enumerate(self.sequences):
            p = positions[j]
            while p < len(seq) and (t := seq[p]) in pallets:
                p += 1
                log.append((j, p))
                removed[t] = r = removed[t] + 1
                if r == counts[t]:
                    opened.discard(t)
                elif r == 1:
                    opened.add(t)
                    if len(opened) > peak:
                        peak = len(opened)
            positions[j] = p
        return peak

    def follow(self, moves):
        """Make the given moves, yielding the open set after each (the live
        set: a caller that keeps it copies it), until a move is not the next
        bin of its queue; ``violation`` then names the outcome.  The moves
        are not logged: they are the caller's own."""
        positions, removed, counts, opened, sequences = (
            self.positions, self.removed, self.counts, self.open, self.sequences)
        k = len(sequences)
        for j, pos in moves:
            if not (0 <= j < k and pos == positions[j] + 1 <= len(sequences[j])):
                return
            positions[j] = pos
            t = sequences[j][pos - 1]
            removed[t] = r = removed[t] + 1
            if r == counts[t]:
                opened.discard(t)
            elif r == 1:
                opened.add(t)
            yield opened

    def violation(self, moves) -> int | None:
        """For a stepper that started from the initial configuration and
        followed ``moves``: None for a complete processing, else the index of
        the first move that is not the next bin of its queue, or the move
        count when bins were left unconsumed."""
        made = sum(self.positions)
        return None if made == len(moves) and self.finished() else made


def replay(inst: Instance, b_sol: BinSolution) -> ReplayReport:
    """Simulate a bin solution and report validity and the peak open count."""
    stepper = _Stepper(inst)
    trace = [0]
    trace += map(len, stepper.follow(b_sol.moves))
    violation = stepper.violation(b_sol.moves)
    return ReplayReport(max(trace), tuple(trace), violation is None, violation)


def open_set_trace(inst: Instance, b_sol: BinSolution) -> tuple[frozenset[int], ...]:
    """Open-pallet sets along a valid processing, initial configuration included."""
    stepper = _Stepper(inst)
    trace = [frozenset()]
    trace += map(frozenset, stepper.follow(b_sol.moves))
    violation = stepper.violation(b_sol.moves)
    if violation is not None:
        raise ValueError(f"invalid bin solution at move {violation}")
    return tuple(trace)


def opening_order(inst: Instance, b_sol: BinSolution) -> PalletSolution:
    """Pallet solution induced by a bin solution, or by a prefix of one:
    pallets by first removal.  A move that is not the next bin of its queue
    raises ValueError."""
    made = sum(1 for _ in _Stepper(inst).follow(b_sol.moves))
    if made < len(b_sol.moves):
        raise ValueError(f"invalid bin solution at move {made}")
    return PalletSolution(tuple(dict.fromkeys(
        inst.sequences[j][pos - 1] for j, pos in b_sol.moves)))


def transform(inst: Instance, t_sol: PalletSolution) -> BinSolution:
    """Turn a pallet order into a bin solution.

    Repeatedly removes the front bin of the lowest-indexed sequence whose
    front is destined for an already-opened pallet; when no front qualifies,
    the next pallet of the order is opened.  Runs in O(n + m * k).
    """
    stepper = _Stepper(inst)
    m = inst.m
    opened: set[int] = set()
    for t in t_sol.order:
        if not 0 <= t < m:
            raise ValueError(f"pallet id {t} out of range")
        opened.add(t)
        stepper.drain(opened)
    if not stepper.finished():
        raise TransformStuckError(
            "stuck: no front bin matches the opened prefix and no pallets remain")
    return BinSolution(tuple(stepper.moves))
