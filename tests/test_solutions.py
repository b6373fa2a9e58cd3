import hashlib
import itertools

import pytest

from fifo_stackup import (
    BinSolution,
    BudgetError,
    GenSpec,
    Instance,
    PalletSolution,
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
