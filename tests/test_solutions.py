import hashlib
import itertools

import pytest

from fifo_stackup import (
    BinSolution,
    BudgetError,
    GenSpec,
    Instance,
    PalletSolution,
    ReplayReport,
    SplitMix64,
    TransformStuckError,
    decomposition_to_processing,
    generate_instance,
    open_set_trace,
    opening_order,
    processing_to_decomposition,
    replay,
    solve_min_places,
    transform,
)
from fifo_stackup.oracles import brute_force_bin_orders, brute_force_pallet_orders
from fifo_stackup.solutions import _Stepper

from conftest import TWO_QUEUE_PROCESSING, THREE_QUEUE_PROCESSING, random_fifo_order, tiny_instance


def all_fifo_orders(inst):
    """Every valid bin solution of a small instance."""
    lengths = [len(seq) for seq in inst.sequences]
    queue_ids = [j for j, length in enumerate(lengths) for _ in range(length)]
    seen = set()
    for perm in itertools.permutations(queue_ids):
        if perm in seen:
            continue
        seen.add(perm)
        positions = [0] * inst.k
        moves = []
        for j in perm:
            positions[j] += 1
            moves.append((j, positions[j]))
        yield BinSolution(tuple(moves))


# The stepper's routes as they were before ``drain`` and ``follow`` did their
# own removal bookkeeping, kept verbatim as the reference for the
# differential test in TestStepperAgreement.

class ReferenceStepper:
    __slots__ = ("sequences", "counts", "positions", "removed", "open", "moves")

    def __init__(self, inst: Instance):
        self.sequences = inst.sequences
        self.counts = inst.bin_counts()
        self.positions = [0] * inst.k
        self.removed = [0] * inst.m
        self.open: set[int] = set()
        self.moves: list[tuple[int, int]] = []

    def finished(self) -> bool:
        return all(p == len(seq) for seq, p in zip(self.sequences, self.positions))

    def remove(self, j: int) -> int:
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

    def drain(self, pallets) -> int:
        positions, opened = self.positions, self.open
        peak = len(opened)
        for j, seq in enumerate(self.sequences):
            while positions[j] < len(seq) and seq[positions[j]] in pallets:
                self.remove(j)
                if len(opened) > peak:
                    peak = len(opened)
        return peak

    def follow(self, moves, observe) -> int | None:
        positions, sequences = self.positions, self.sequences
        for step, (j, pos) in enumerate(moves):
            if not (0 <= j < len(sequences) and pos == positions[j] + 1 <= len(sequences[j])):
                return step
            self.remove(j)
            observe()
        return None if self.finished() else len(moves)


def reference_replay(inst: Instance, b_sol: BinSolution) -> ReplayReport:
    stepper = ReferenceStepper(inst)
    trace = [0]
    violation = stepper.follow(b_sol.moves, lambda: trace.append(len(stepper.open)))
    return ReplayReport(max(trace), tuple(trace), violation is None, violation)


def reference_open_set_trace(inst: Instance, b_sol: BinSolution) -> tuple[frozenset[int], ...]:
    stepper = ReferenceStepper(inst)
    trace = [frozenset()]
    violation = stepper.follow(b_sol.moves, lambda: trace.append(frozenset(stepper.open)))
    if violation is not None:
        raise ValueError(f"invalid bin solution at move {violation}")
    return tuple(trace)


def reference_opening_order(inst: Instance, b_sol: BinSolution) -> PalletSolution:
    stepper = ReferenceStepper(inst)
    violation = stepper.follow(b_sol.moves, lambda: None)
    if violation is not None and violation < len(b_sol.moves):
        raise ValueError(f"invalid bin solution at move {violation}")
    return PalletSolution(tuple(dict.fromkeys(
        inst.sequences[j][pos - 1] for j, pos in stepper.moves)))


def reference_transform(inst: Instance, t_sol: PalletSolution) -> BinSolution:
    stepper = ReferenceStepper(inst)
    opened: set[int] = set()
    for t in t_sol.order:
        if not 0 <= t < inst.m:
            raise ValueError(f"pallet id {t} out of range")
        opened.add(t)
        stepper.drain(opened)
    if not stepper.finished():
        raise TransformStuckError(
            "stuck: no front bin matches the opened prefix and no pallets remain")
    return BinSolution(tuple(stepper.moves))


def outcome(function, *args):
    """The value returned and its repr, or the class and message of the error raised."""
    try:
        value = function(*args)
    except (ValueError, TransformStuckError) as exc:
        return type(exc).__name__, str(exc)
    return value, repr(value)


class TestTransform:
    def test_two_queue_instance_exact_moves(self, two_queue_instance):
        t_sol = PalletSolution.from_symbols(two_queue_instance, ["c", "d", "e", "a", "b"])
        b_sol = transform(two_queue_instance, t_sol)
        assert b_sol.moves == (
            (1, 1), (1, 2), (1, 3), (1, 4), (0, 1), (0, 2),
            (1, 5), (1, 6), (0, 3), (0, 4), (1, 7), (1, 8))
        assert replay(two_queue_instance, b_sol).max_open == 3

    def test_three_queue_reference_processing(self, three_queue_instance):
        t_sol = PalletSolution.from_symbols(three_queue_instance, list("abcde"))
        b_sol = transform(three_queue_instance, t_sol)
        assert b_sol.moves == THREE_QUEUE_PROCESSING
        assert replay(three_queue_instance, b_sol).max_open == 2

    def test_single_sequence(self):
        inst = Instance.from_pallet_lists([list("aabb")])
        b_sol = transform(inst, PalletSolution.from_symbols(inst, ["a", "b"]))
        assert b_sol.moves == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert replay(inst, b_sol).max_open == 1

    def test_incomplete_order_stalls(self, two_queue_instance):
        with pytest.raises(TransformStuckError, match="stuck"):
            transform(two_queue_instance, PalletSolution.from_symbols(two_queue_instance, ["a", "b"]))

    def test_duplicate_order_rejected(self, two_queue_instance):
        with pytest.raises(ValueError):
            PalletSolution.from_symbols(two_queue_instance, ["a", "a", "b", "c", "d"])

    @pytest.mark.parametrize("seed", range(30))
    def test_replay_valid_and_opening_order_matches(self, seed):
        """For realizable pallet orders, transform opens pallets in that order."""
        inst = tiny_instance(seed, min_bins=1)
        rng = SplitMix64(seed + 99)
        counts = inst.bin_counts()
        b_random = BinSolution(random_fifo_order(inst, rng))
        t_sol = opening_order(inst, b_random)
        b_sol = transform(inst, t_sol)
        report = replay(inst, b_sol)
        assert report.valid
        induced = opening_order(inst, b_sol)
        keep = [t for t in t_sol.order if counts[t] >= 2]
        assert [t for t in induced.order if counts[t] >= 2] == keep


class TestReplay:
    def test_reference_processing(self, two_queue_instance):
        report = replay(two_queue_instance, BinSolution(TWO_QUEUE_PROCESSING))
        assert report.valid
        assert report.max_open == 3
        assert report.open_trace == (0, 1, 2, 3, 2, 3, 3, 2, 1, 2, 2, 1, 0)

    def test_fifo_violation(self, two_queue_instance):
        moves = ((0, 2), (0, 1)) + tuple((1, p) for p in range(1, 9)) + ((0, 3), (0, 4))
        report = replay(two_queue_instance, BinSolution(moves))
        assert not report.valid
        assert report.first_violation == 0

    def test_incomplete_processing(self, two_queue_instance):
        report = replay(two_queue_instance, BinSolution(((0, 1), (0, 2))))
        assert not report.valid
        assert report.first_violation == 2

    def test_three_queue_processing(self, three_queue_instance):
        report = replay(three_queue_instance, BinSolution(THREE_QUEUE_PROCESSING))
        assert report.valid and report.max_open == 2

    def test_open_set_trace_matches_counts(self, two_queue_instance):
        trace = open_set_trace(two_queue_instance, BinSolution(TWO_QUEUE_PROCESSING))
        report = replay(two_queue_instance, BinSolution(TWO_QUEUE_PROCESSING))
        assert tuple(len(s) for s in trace) == report.open_trace
        assert trace[0] == trace[-1] == frozenset()

    def test_open_set_trace_rejects_invalid(self, two_queue_instance):
        with pytest.raises(ValueError):
            open_set_trace(two_queue_instance, BinSolution(((1, 2),)))

    @pytest.mark.parametrize("count", [4, 5])
    def test_opening_order_rejects_repeated_move(self, count):
        inst = Instance.from_pallet_lists([list("aabb")])
        with pytest.raises(ValueError, match="invalid bin solution at move 1"):
            opening_order(inst, BinSolution(((0, 1),) * count))

    def test_opening_order_of_a_prefix(self, two_queue_instance):
        prefix = BinSolution(TWO_QUEUE_PROCESSING[:5])
        assert opening_order(two_queue_instance, prefix).to_symbols(two_queue_instance) == (
            "c", "d", "e", "a")


class TestStepperFork:
    @pytest.mark.parametrize("seed", range(20))
    def test_draining_a_fork_leaves_the_parent(self, seed):
        inst = generate_instance(GenSpec(pallets=6, queues=1 + seed % 3,
                                         min_bins=1 + seed % 2, seed=seed + 900))
        order = list(range(inst.m))
        SplitMix64(seed).shuffle(order)
        parent = _Stepper(inst)
        parent.drain(set(order[:2]))
        before = (parent.positions.copy(), parent.removed.copy(), set(parent.open),
                  parent.moves.copy())
        twin = parent.fork()
        twin.drain(set(order[:4]))
        assert (parent.positions, parent.removed, parent.open, parent.moves) == before
        # the twin picks up where the parent stood, with a log of its own moves
        whole = _Stepper(inst)
        whole.drain(set(order[:2]))
        whole.drain(set(order[:4]))
        assert (twin.positions, twin.removed, twin.open) == (
            whole.positions, whole.removed, whole.open)
        assert twin.moves == whole.moves[len(before[3]):]


class TestStepperAgreement:
    @staticmethod
    def mutated_bins(inst, moves, rng):
        """The bin solution and one copy per fault that follow must name."""
        i, j = sorted(rng.below(len(moves)) for _ in range(2))
        queue, pos = moves[i]
        last = rng.below(inst.k)
        yield "valid", moves
        yield "dropped", moves[:i] + moves[i + 1:]
        yield "swapped", moves[:i] + (moves[j],) + moves[i + 1:j] + (moves[i],) + moves[j + 1:]
        yield "repeated", moves[:i + 1] + moves[i:]
        yield "queue -1", moves[:i] + ((-1, pos),) + moves[i + 1:]
        yield "queue k", moves[:i] + ((inst.k, pos),) + moves[i + 1:]
        yield "position 0", moves[:i] + ((queue, 0),) + moves[i + 1:]
        yield "truncated", moves[:i]
        yield "past the end", moves + ((last, len(inst.sequences[last]) + 1),)

    @staticmethod
    def pallet_orders(inst, order, rng):
        """The pallet order and copies that transform refuses or gets stuck on."""
        shuffled = list(range(inst.m))
        rng.shuffle(shuffled)
        at = rng.below(inst.m)
        yield order
        yield tuple(shuffled)
        yield order[:at]
        yield order[:at] + (-1,) + order[at:]
        yield order[:at] + (inst.m,) + order[at:]

    def test_routes_agree_with_the_reference(self):
        """transform, replay, open_set_trace and opening_order return what the
        per-bin ``remove`` stepper returned, or raise the same error, on
        seeded instances and on bin solutions with one fault each."""
        refused, transformed = set(), set()
        for seed in range(300):
            pallets = 2 + seed % 9
            spec = GenSpec(pallets=pallets, queues=1 + seed % min(5, pallets),
                           min_bins=1 + seed % 2, max_bins=2 + seed % 3, seed=seed + 2800)
            inst = generate_instance(spec)
            rng = SplitMix64(seed)
            for kind, moves in self.mutated_bins(inst, random_fifo_order(inst, rng), rng):
                b_sol = BinSolution(moves)
                report = reference_replay(inst, b_sol)
                assert outcome(replay, inst, b_sol) == (report, repr(report)), kind
                assert outcome(open_set_trace, inst, b_sol) == outcome(
                    reference_open_set_trace, inst, b_sol), kind
                assert outcome(opening_order, inst, b_sol) == outcome(
                    reference_opening_order, inst, b_sol), kind
                if not report.valid:
                    refused.add(kind)
            order = reference_opening_order(inst, BinSolution(random_fifo_order(inst, rng))).order
            for t_order in self.pallet_orders(inst, order, rng):
                t_sol = PalletSolution(t_order)
                expected = outcome(reference_transform, inst, t_sol)
                assert outcome(transform, inst, t_sol) == expected, t_order
                transformed.add(expected[0] if isinstance(expected[0], str) else "bins")
        assert refused == {"dropped", "swapped", "repeated", "queue -1", "queue k",
                           "position 0", "truncated", "past the end"}
        assert transformed == {"bins", "ValueError", "TransformStuckError"}


class TestBruteForcePalletOrders:
    def test_two_queue_instance(self, two_queue_instance):
        places, best = brute_force_pallet_orders(two_queue_instance)
        assert places == 3
        assert replay(two_queue_instance, transform(two_queue_instance, best)).max_open == 3

    def test_three_queue_instance(self, three_queue_instance):
        assert brute_force_pallet_orders(three_queue_instance)[0] == 2

    def test_single_pallet(self):
        inst = Instance.from_pallet_lists([["a", "a", "a"]])
        places, best = brute_force_pallet_orders(inst)
        assert places == 1
        assert best.order == (0,)

    @pytest.mark.parametrize("seed", range(30))
    def test_lexicographically_first_optimal_order(self, seed):
        """The pruned search returns what a plain scan of every permutation
        keeps: the first order whose processing peaks lowest."""
        rng = SplitMix64(seed * 41 + 3)
        m = 2 + rng.below(5)
        min_bins = 1 if seed % 3 == 0 else 2
        inst = generate_instance(GenSpec(pallets=m, queues=1 + rng.below(min(3, m * min_bins)),
                                         min_bins=min_bins, max_bins=3, seed=seed + 700))
        peaks = {order: replay(inst, transform(inst, PalletSolution(order))).max_open
                 for order in itertools.permutations(range(m))}
        first = min(peaks, key=peaks.get)
        places, best = brute_force_pallet_orders(inst)
        assert (places, best.order) == (peaks[first], first)

    def test_guard(self, two_queue_instance):
        with pytest.raises(BudgetError, match="factorial"):
            brute_force_pallet_orders(two_queue_instance, max_pallets=3)


class TestBruteForceBinOrders:
    def test_single_sequence_has_one_order(self):
        inst = Instance.from_pallet_lists([list("abab")])
        assert brute_force_bin_orders(inst) == 2

    def test_two_disjoint_queues(self):
        inst = Instance.from_pallet_lists([["a", "a"], ["b", "b"]])
        assert brute_force_bin_orders(inst) == 1

    def test_guard(self, two_queue_instance):
        with pytest.raises(BudgetError, match="bin-order"):
            brute_force_bin_orders(two_queue_instance, max_bins=5)

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_chain(self, seed):
        inst = tiny_instance(seed, min_bins=1)
        by_bins = brute_force_bin_orders(inst)
        by_pallets, _ = brute_force_pallet_orders(inst)
        by_dp, _, _ = solve_min_places(inst)
        assert by_bins == by_pallets == by_dp


class TestTransformMinimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_better_order_with_same_openings(self, seed):
        """Among FIFO orders inducing the same pallet order, transform is optimal."""
        rng = SplitMix64(seed * 31 + 7)
        inst = tiny_instance(seed, min_bins=1)
        if inst.n > 8:
            inst = Instance.from_pallet_lists(
                [[inst.symbols[t] for t in seq[:3]] for seq in inst.sequences])
        t_sol = opening_order(inst, BinSolution(random_fifo_order(inst, rng)))
        target = replay(inst, transform(inst, t_sol)).max_open
        competitors = [
            replay(inst, b_sol).max_open
            for b_sol in all_fifo_orders(inst)
            if opening_order(inst, b_sol).order == t_sol.order
        ]
        assert competitors and min(competitors) == target


class TestAutoRemovalIndifference:
    @pytest.mark.parametrize("seed", range(15))
    def test_swapping_adjacent_auto_moves_keeps_peak(self, seed):
        inst = tiny_instance(seed, min_bins=1)
        rng = SplitMix64(seed + 321)
        t_sol = opening_order(inst, BinSolution(random_fifo_order(inst, rng)))
        b_sol = transform(inst, t_sol)
        trace = open_set_trace(inst, b_sol)
        moves = list(b_sol.moves)
        positions = [0] * inst.k
        pallet_of = []
        for j, _ in moves:
            pallet_of.append(inst.sequences[j][positions[j]])
            positions[j] += 1
        baseline = replay(inst, b_sol).max_open
        for i in range(len(moves) - 1):
            if moves[i][0] == moves[i + 1][0]:
                continue  # swapping within one queue breaks FIFO
            if pallet_of[i] in trace[i] and pallet_of[i + 1] in trace[i]:
                swapped = moves.copy()
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                report = replay(inst, BinSolution(tuple(swapped)))
                assert report.valid
                assert report.max_open == baseline


# SHA-256 of every output of the processing simulations over the seeded
# corpus of TestSimulationOutputsPinned; any change to a move, a trace or a
# violation index changes it.
SIMULATION_OUTPUTS_SHA256 = "cc65a2539536ecabffc79efc7719ad331da9f8a20ab3daa394f4d4a332761c2e"


class TestSimulationOutputsPinned:
    def test_outputs_unchanged(self):
        """transform, replay, open_set_trace, opening_order and
        decomposition_to_processing give exactly the pinned outputs."""
        digest = hashlib.sha256()

        def record(*items):
            digest.update(repr(items).encode())

        def sets(trace):
            return tuple(tuple(sorted(s)) for s in trace)

        for seed in range(240):
            k = 1 + seed % 6
            min_bins = 1 + (seed // 6) % 2
            spec = GenSpec(pallets=k + (seed // 12) % 4, queues=k, min_bins=min_bins,
                           max_bins=min_bins + 2, seed=seed)
            inst = generate_instance(spec)
            rng = SplitMix64(seed + 4242)
            random_bins = BinSolution(random_fifo_order(inst, rng))
            shuffled = list(range(inst.m))
            rng.shuffle(shuffled)
            for t_sol in (opening_order(inst, random_bins), PalletSolution(tuple(shuffled))):
                b_sol = transform(inst, t_sol)
                record(seed, t_sol.order, b_sol.moves, replay(inst, b_sol),
                       sets(open_set_trace(inst, b_sol)), opening_order(inst, b_sol).order)
                with pytest.raises(TransformStuckError) as stuck:
                    transform(inst, PalletSolution(t_sol.order[:-1]))
                record("stuck", str(stuck.value))
            moves = random_bins.moves
            truncated = BinSolution(moves[: len(moves) // 2])
            reordered = BinSolution(moves[1:] + moves[:1])
            record(replay(inst, random_bins), sets(open_set_trace(inst, random_bins)),
                   opening_order(inst, random_bins).order, replay(inst, truncated),
                   opening_order(inst, truncated).order, replay(inst, reordered))
            if min(inst.bin_counts()) >= 2:
                decomposition = processing_to_decomposition(inst, random_bins)
                record(decomposition_to_processing(inst, decomposition).moves)
        assert digest.hexdigest() == SIMULATION_OUTPUTS_SHA256
