import re

import pytest

from fifo_stackup import (
    Instance,
    InstanceFormatError,
    SplitMix64,
    emit_instance,
    parse_instance,
)
from fifo_stackup.instance import build_pallet_index
from fifo_stackup.oracles import cut

from conftest import small_instance


def names(inst, ids):
    return sorted(inst.symbols[t] for t in ids)


# The parser and its interning as they were before the parser became one
# pass, kept verbatim as the reference for the differential test below.

REFERENCE_SYMBOL_RE = re.compile(r"[A-Za-z0-9_]+" + r"\Z")
REFERENCE_SEQ_LINE_RE = re.compile(r"seq\s+(\d+)\s*:(.*)\Z")


def reference_parse_instance(text):
    sequences = []
    interned = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = REFERENCE_SEQ_LINE_RE.fullmatch(line)
        if match is None:
            raise InstanceFormatError(f"line {lineno}: expected 'seq <index>: <symbols>'")
        index = int(match.group(1))
        if index != len(sequences) + 1:
            raise InstanceFormatError(
                f"line {lineno}: sequence index {index} out of order (expected {len(sequences) + 1})")
        tokens = match.group(2).split()
        if not tokens:
            raise InstanceFormatError(f"line {lineno}: empty sequence token list")
        row = []
        for token in tokens:
            if REFERENCE_SYMBOL_RE.fullmatch(token) is None:
                raise InstanceFormatError(f"line {lineno}: illegal pallet symbol {token!r}")
            row.append(interned.setdefault(token, len(interned)))
        sequences.append(tuple(row))
    if not sequences:
        raise InstanceFormatError("no sequences found")
    return Instance(tuple(sequences), tuple(interned))


def outcome(function, text):
    """The instance returned, or the class and message of the error raised."""
    try:
        return function(text)
    except (InstanceFormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestParse:
    def test_two_queue_document(self):
        inst = parse_instance("seq 1: a a b b\nseq 2: c d e c a d b e\n")
        assert inst.k == 2
        assert inst.n == 12
        assert inst.m == 5
        assert inst.N == 8
        assert inst.symbols == ("a", "b", "c", "d", "e")

    def test_smallest_instance(self):
        inst = parse_instance("seq 1: a a")
        assert (inst.k, inst.m, inst.n, inst.N) == (1, 1, 2, 2)

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header\n\nseq 1: x y\n# trailing\nseq 2: y x\n")
        assert inst.k == 2

    def test_empty_token_list(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance("seq 1: a\nseq 2:")

    def test_malformed_line(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            parse_instance("queue 1: a b")

    def test_illegal_symbol(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            parse_instance("seq 1: a-b c")

    def test_out_of_order_index(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance("seq 1: a a\nseq 3: b b")

    def test_no_sequences(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("# nothing here\n")

    def test_round_trip(self, two_queue_instance):
        assert parse_instance(emit_instance(two_queue_instance)) == two_queue_instance

    @pytest.mark.parametrize("lists, bad", [
        ([["a b", "c"], ["c", "a b"]], "a b"),  # would read back as three pallets
        ([["c", "x-1", "é"]], "x-1"),  # the first symbol outside SYMBOL_RE is named
        ([["a", ""]], ""),
        ([["a#b", "a"]], "a#b"),
    ])
    def test_emit_rejects_unwritable_symbol(self, lists, bad):
        with pytest.raises(ValueError, match=f"illegal pallet symbol {bad!r}"):
            emit_instance(Instance.from_pallet_lists(lists))

    def test_interning_round_trip(self):
        text = "seq 1: z9 A _u z9\nseq 2: A _u\n"
        inst = parse_instance(text)
        for sym in ("z9", "A", "_u"):
            assert inst.symbols[inst.symbol_ids([sym])[0]] == sym

    def test_case_sensitive_symbols(self):
        inst = parse_instance("seq 1: a A a A")
        assert inst.m == 2

    # Legal symbols most of the time, a few illegal ones (":" among them, which
    # the sequence-line pattern must not take into the token list), separators
    # from every whitespace class split() cuts at (\x1c and \x85 also end a
    # line for splitlines), and three line endings.  Indices are mostly the
    # next one, sometimes written "01" or with a Unicode digit, sometimes wrong.
    FUZZ_SYMBOLS = ("a", "b", "c", "x_1", "Z9", "seq")
    FUZZ_ILLEGAL = ("é", "a-b", "x.y", "#", "a#", ":", "a:b")
    FUZZ_SPACES = (" ", "  ", "\t", " \t", "\x1c", "\x85", "\xa0", "\u3000", "\x0b")
    FUZZ_ENDINGS = ("\n", "\r\n", "\r")
    FUZZ_NOT_SEQ = ("queue 1: a", "seq: a", "seq1: a", "seq 1 a", "seq x: a", "1: a")

    @classmethod
    def fuzzed_text(cls, rng):
        def pick(options):
            return options[rng.below(len(options))]

        def token():
            return pick(cls.FUZZ_ILLEGAL if not rng.below(40) else cls.FUZZ_SYMBOLS)

        def space():
            return pick(cls.FUZZ_SPACES) if not rng.below(4) else ""

        def sep():
            return pick(cls.FUZZ_SPACES) if not rng.below(6) else pick((" ", "\t"))

        text = []
        expected = 1
        for _ in range(rng.randint(0, 6)):
            kind = rng.below(16)
            if kind == 0:
                line = space()
            elif kind == 1:
                line = f"{space()}#{space()}{token()} {token()}"
            elif kind == 2:
                line = pick(cls.FUZZ_NOT_SEQ)
            else:
                index = str(expected)
                shape = rng.below(25)
                if shape == 0:
                    index = str(expected + pick((-1, 1)))
                elif shape == 1:
                    index = "0" + index
                elif shape == 2:
                    index = "\u0661"  # ARABIC-INDIC DIGIT ONE, read by int() as 1
                count = 0 if not rng.below(25) else rng.randint(1, 5)
                tokens = sep().join(token() for _ in range(count))
                colon = f"{space()}:" if rng.below(2) else ":"
                line = f"seq{sep()}{index}{colon}{space()}{tokens}"
                expected += 1
            text.append(f"{space()}{line}{space()}{pick(cls.FUZZ_ENDINGS)}")
        return "".join(text)

    def test_parse_agrees_with_the_reference(self):
        """The one-pattern parser gives the instance (sequences, symbols and
        their numbering) or the error message that the per-token parser gave."""
        rng = SplitMix64(28)
        seen = set()
        for _ in range(5_000):
            text = self.fuzzed_text(rng)
            expected = outcome(reference_parse_instance, text)
            assert outcome(parse_instance, text) == expected, text
            if isinstance(expected, tuple):
                seen.add(expected[1].split(": ", 1)[-1].split()[0])
            else:
                seen.add("instance")
        assert seen == {"instance", "expected", "sequence", "empty", "illegal", "no"}


class TestFrontAndCut:
    def test_cut_two_queue_instance(self, two_queue_instance):
        assert names(two_queue_instance, cut(two_queue_instance, (0, 4))) == ["d", "e"]

    def test_cut_overlap_instance(self, overlap_instance):
        assert names(overlap_instance, cut(overlap_instance, (2, 3))) == ["a", "b", "d", "e", "f"]

    def test_cut_initial_empty(self, two_queue_instance, three_queue_instance, overlap_instance):
        for inst in (two_queue_instance, three_queue_instance, overlap_instance):
            assert cut(inst, (0,) * inst.k) == frozenset()

    def test_configuration_bounds_checked(self, two_queue_instance):
        with pytest.raises(ValueError):
            cut(two_queue_instance, (0, 9))
        with pytest.raises(ValueError):
            cut(two_queue_instance, (0,))


class TestPalletIndex:
    def test_overlap_instance_lookup(self, overlap_instance):
        idx = build_pallet_index(overlap_instance)
        a, d = overlap_instance.symbol_ids(["a", "d"])
        assert idx.first[a] == (1, 7)
        assert idx.last[d][1] == 4
        # d is absent from q1
        assert idx.first[d][0] == len(overlap_instance.sequences[0]) + 1
        assert idx.last[d][0] == 0

    def test_single_sequence(self):
        inst = Instance.from_pallet_lists([["a", "a"]])
        idx = build_pallet_index(inst)
        assert idx.first[0] == (1,)
        assert idx.last[0] == (2,)

    @pytest.mark.parametrize("seed", range(25))
    def test_membership_equivalences(self, seed):
        inst = small_instance(seed, min_bins=1)
        idx = build_pallet_index(inst)
        for t in range(inst.m):
            for i, seq in enumerate(inst.sequences):
                present = t in seq
                assert present == (idx.first[t][i] <= len(seq))
                assert present == (idx.last[t][i] >= 1)
                if present:
                    assert 1 <= idx.first[t][i] <= idx.last[t][i] <= len(seq)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_cut_subset_and_single_bin_exclusion(self, seed):
        from conftest import random_fifo_order
        from fifo_stackup import SplitMix64

        inst = small_instance(seed, min_bins=1)
        counts = inst.bin_counts()
        rng = SplitMix64(seed)
        cfg = [0] * inst.k
        for j, _ in random_fifo_order(inst, rng):
            cfg[j] += 1
            open_now = cut(inst, tuple(cfg))
            assert open_now <= frozenset(range(inst.m))
            assert all(counts[t] >= 2 for t in open_now)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            Instance.from_pallet_lists([["a"], []])

    def test_rejects_unused_symbol(self):
        with pytest.raises(ValueError):
            Instance((( 0,),), ("a", "b"))


class TestBinCounts:
    """Bins per pallet are counted once, in the validating pass at construction."""

    @pytest.mark.parametrize("seed", range(30))
    def test_stored_counts_match_a_direct_count(self, seed):
        inst = small_instance(seed, min_bins=1)
        direct = [0] * inst.m
        for seq in inst.sequences:
            for t in seq:
                direct[t] += 1
        assert inst.bin_counts() == tuple(direct)
        assert sum(inst.bin_counts()) == inst.n

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_survive_deepcopy_and_pickle(self, seed):
        import copy
        import pickle

        inst = small_instance(seed, min_bins=1)
        for clone in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
            assert clone == inst
            assert clone.bin_counts() == inst.bin_counts()

    def test_equal_instances_compare_and_hash_equal(self, two_queue_instance):
        text = emit_instance(two_queue_instance)
        again = parse_instance(text)
        assert again == two_queue_instance
        assert hash(again) == hash(two_queue_instance)
        assert again.bin_counts() == two_queue_instance.bin_counts() == (3, 3, 2, 2, 2)
        assert repr(again) == repr(two_queue_instance)
        assert "_bin_counts" not in repr(again)

    @pytest.mark.parametrize("sequences, symbols", [
        (((0,),), ("a", "b")),
        (((1, 1), (1,)), ("a", "b")),
        (((0, 2), (2, 0)), ("a", "b", "c")),
    ])
    def test_unused_symbol_still_rejected(self, sequences, symbols):
        with pytest.raises(ValueError, match="every pallet symbol must label at least one bin"):
            Instance(sequences, symbols)

    def test_reduced_queue_systems_have_no_single_bin_pallets(self, ring_digraph):
        from fifo_stackup import reduce_digraph_to_queues

        assert min(reduce_digraph_to_queues(ring_digraph).bin_counts()) >= 2
