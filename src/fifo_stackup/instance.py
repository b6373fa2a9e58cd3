"""Data model for stack-up instances: FIFO queues of pallet-labeled bins.

Conventions used throughout the package:

* sequence indices are 0-based (``sequences[0]`` is the first queue),
* bin positions are 1-based, so a bin is addressed as ``(i, p)`` with
  ``sequences[i][p - 1]`` holding its pallet id.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import InstanceFormatError

# The symbol alphabet, one character class for both text formats.
_SYMBOL_CHARS = "A-Za-z0-9_"
SYMBOL = f"[{_SYMBOL_CHARS}]+"
SYMBOL_RE = re.compile(SYMBOL + r"\Z")
_SEQ_LINE_RE = re.compile(r"seq\s+(\d+)\s*:(.*)\Z")
# A sequence line, after strip(), whose token list holds only symbol
# characters and whitespace.  ``\s`` is exactly str.isspace, so split() cuts
# that list into symbols.
_SYMBOLS_LINE_RE = re.compile(rf"seq\s+(\d+)\s*:([{_SYMBOL_CHARS}\s]*)")


class Instance(Record):
    """k sequences of bins; each bin carries an interned pallet id.

    ``symbols[t]`` is the pallet symbol interned to id ``t``; interning is a
    bijection between the distinct symbols and ``0..m-1``.
    """

    sequences: tuple[tuple[int, ...], ...]
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sequences:
            raise ValueError("an instance needs at least one sequence")
        if any(not seq for seq in self.sequences):
            raise ValueError("empty sequences are not allowed")
        m = len(self.symbols)
        if len(set(self.symbols)) != m:
            raise ValueError("pallet symbols must be distinct")
        counts = [0] * m
        for seq in self.sequences:
            for t in seq:
                if not 0 <= t < m:
                    raise ValueError(f"pallet id {t} out of range")
                counts[t] += 1
        if 0 in counts:
            raise ValueError("every pallet symbol must label at least one bin")
        # not a field: equality, hashing and repr stay those of the fields
        self.__dict__["_bin_counts"] = tuple(counts)

    @classmethod
    def from_pallet_lists(cls, lists: Iterable[Sequence[str]]) -> "Instance":
        """Build an instance from per-queue symbol lists, interning symbols in
        first-appearance order."""
        interned: dict[str, int] = {}
        sequences = []
        for row in lists:
            sequences.append(tuple(interned.setdefault(sym, len(interned)) for sym in row))
        return cls(tuple(sequences), tuple(interned))

    @property
    def k(self) -> int:
        return len(self.sequences)

    @property
    def m(self) -> int:
        return len(self.symbols)

    @property
    def n(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    @property
    def N(self) -> int:
        return max(len(seq) for seq in self.sequences)

    def symbol_ids(self, symbols: Iterable[str]) -> tuple[int, ...]:
        lookup = {sym: t for t, sym in enumerate(self.symbols)}
        ids = []
        for sym in symbols:
            if sym not in lookup:
                raise ValueError(f"unknown pallet symbol {sym!r}")
            ids.append(lookup[sym])
        return tuple(ids)

    def bin_counts(self) -> tuple[int, ...]:
        """Total number of bins per pallet id, counted once at construction."""
        return self._bin_counts


def _line_error(lineno: int, line: str, expected: int) -> InstanceFormatError:
    """The error for a line that is not the next sequence line over the
    symbol alphabet: no sequence line at all, else an index other than
    ``expected``, else the first token outside the alphabet."""
    match = _SEQ_LINE_RE.fullmatch(line)
    if match is None:
        return InstanceFormatError(f"line {lineno}: expected 'seq <index>: <symbols>'")
    index = int(match.group(1))
    if index != expected:
        return InstanceFormatError(
            f"line {lineno}: sequence index {index} out of order (expected {expected})")
    token = next(token for token in match.group(2).split() if SYMBOL_RE.fullmatch(token) is None)
    return InstanceFormatError(f"line {lineno}: illegal pallet symbol {token!r}")


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    Comment lines start with ``#``; each sequence line reads
    ``seq <1-based-index>: <symbols separated by spaces>`` with indices
    appearing consecutively from 1.  Symbols are case-sensitive tokens over
    ``[A-Za-z0-9_]``, interned in first-appearance order.
    """
    sequences: list[tuple[int, ...]] = []
    interned: dict[str, int] = {}
    intern = interned.setdefault
    match_line = _SYMBOLS_LINE_RE.fullmatch
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        match = match_line(line)
        if match is None or int(match.group(1)) != len(sequences) + 1:
            raise _line_error(lineno, line, len(sequences) + 1)
        tokens = match.group(2).split()
        if not tokens:
            raise InstanceFormatError(f"line {lineno}: empty sequence token list")
        # each call reads len(interned) after the previous token was interned
        sequences.append(tuple([intern(token, len(interned)) for token in tokens]))
    if not sequences:
        raise InstanceFormatError("no sequences found")
    return Instance(tuple(sequences), tuple(interned))


def emit_instance(inst: Instance) -> str:
    """Serialize an instance in the text format accepted by parse_instance;
    a symbol that format cannot hold raises ValueError."""
    for sym in inst.symbols:
        if SYMBOL_RE.fullmatch(sym) is None:
            raise ValueError(f"illegal pallet symbol {sym!r} for the instance format")
    lines = []
    for i, seq in enumerate(inst.sequences, start=1):
        lines.append(f"seq {i}: " + " ".join(inst.symbols[t] for t in seq))
    return "\n".join(lines) + "\n"


class PalletIndex(Record):
    """First/last bin positions per pallet and sequence, 1-based.

    For a pallet ``t`` absent from sequence ``i``: ``first[t][i] == len + 1``
    and ``last[t][i] == 0``, which makes the open/close comparisons of the
    grid oracles in ``fifo_stackup.oracles`` work without membership tests.
    """

    first: tuple[tuple[int, ...], ...]
    last: tuple[tuple[int, ...], ...]


def build_pallet_index(inst: Instance) -> PalletIndex:
    first = [[len(seq) + 1 for seq in inst.sequences] for _ in range(inst.m)]
    last = [[0] * inst.k for _ in range(inst.m)]
    for i, seq in enumerate(inst.sequences):
        for pos, t in enumerate(seq, start=1):
            if first[t][i] > len(seq):
                first[t][i] = pos
            last[t][i] = pos
    return PalletIndex(tuple(map(tuple, first)), tuple(map(tuple, last)))

