import math

import pytest

from fifo_stackup import (
    BudgetError,
    GenSpec,
    Instance,
    InternalError,
    SplitMix64,
    build_sequence_graph,
    dpw_exact,
    generate_instance,
    opening_order,
    replay,
    solve_min_places,
)
from fifo_stackup import processing, search
from fifo_stackup.instance import build_pallet_index
from fifo_stackup.oracles import (
    MAX_GRID_CONFIGURATIONS,
    ConfigurationDag,
    ExplicitDag,
    cut,
    dpw_table,
    open_delta,
    opt_bottleneck,
    prune_priority,
    val_threshold_oracle,
)
from fifo_stackup.processing import grid_size
from fifo_stackup.search import BYTE_TABLE_MAX_VERTICES, arc_masks

from conftest import random_dag, random_digraph, random_fifo_order, small_instance


def all_path_bottleneck(dag):
    """Oracle: enumerate every source-to-target path, minimize the max value."""
    succs = {v: [] for v in dag.topological_vertices()}
    for v in succs:
        for u in dag.predecessors(v):
            succs[u].append(v)
    best = math.inf

    def walk(v, peak):
        nonlocal best
        peak = max(peak, dag.value(v))
        if v == dag.target:
            best = min(best, peak)
            return
        for w in succs[v]:
            walk(w, peak)

    walk(dag.source, -math.inf)
    return best


class TestOptBottleneck:
    def test_chain(self):
        dag = ExplicitDag("sxt", [("s", "x"), ("x", "t")], {"s": 0, "x": 5, "t": 2}, "s", "t")
        result = opt_bottleneck(dag)
        assert result.value == 5
        assert result.path == ("s", "x", "t")

    def test_diamond(self):
        dag = ExplicitDag(
            "sxyt",
            [("s", "x"), ("s", "y"), ("x", "t"), ("y", "t")],
            {"s": 0, "x": 9, "y": 3, "t": 1},
            "s", "t")
        result = opt_bottleneck(dag)
        assert result.value == 3
        assert result.path == ("s", "y", "t")

    def test_unreachable_target(self):
        dag = ExplicitDag("st", [], {"s": 0, "t": 1}, "s", "t")
        result = opt_bottleneck(dag)
        assert result.value == math.inf
        assert result.path == ()

    def test_source_equals_target(self):
        dag = ExplicitDag("s", [], {"s": 7}, "s", "s")
        assert opt_bottleneck(dag).value == 7

    @pytest.mark.parametrize("seed", range(40))
    def test_against_path_enumeration(self, seed):
        dag = random_dag(SplitMix64(seed))
        result = opt_bottleneck(dag)
        assert result.value == all_path_bottleneck(dag)
        if result.path:
            assert max(dag.value(v) for v in result.path) == result.value
            assert result.path[0] == dag.source and result.path[-1] == dag.target


class TestValThresholdOracle:
    def test_chain(self):
        dag = ExplicitDag("sxt", [("s", "x"), ("x", "t")], {"s": 0, "x": 5, "t": 2}, "s", "t")
        assert val_threshold_oracle(dag) == 5

    def test_diamond(self):
        dag = ExplicitDag(
            "sxyt",
            [("s", "x"), ("s", "y"), ("x", "t"), ("y", "t")],
            {"s": 0, "x": 9, "y": 3, "t": 1},
            "s", "t")
        assert val_threshold_oracle(dag) == 3

    def test_unreachable(self):
        dag = ExplicitDag("st", [], {"s": 0, "t": 1}, "s", "t")
        assert val_threshold_oracle(dag) == math.inf

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_opt(self, seed):
        dag = random_dag(SplitMix64(seed + 1000))
        assert val_threshold_oracle(dag) == opt_bottleneck(dag).value


class TestOpenDelta:
    def test_first_bin_opens(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        assert open_delta(two_queue_instance, idx, (0, 0), 1) == 1  # first c

    def test_last_bin_closes(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        assert open_delta(two_queue_instance, idx, (0, 3), 1) == -1  # second and last c

    def test_middle_bin_neutral(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        assert open_delta(two_queue_instance, idx, (1, 4), 0) == 0  # second a, one more in q2

    def test_single_bin_pallet_neutral(self):
        inst = Instance.from_pallet_lists([["a", "b", "a"]])
        idx = build_pallet_index(inst)
        assert open_delta(inst, idx, (1,), 0) == 0  # b opens and closes at once

    def test_exhausted_sequence_rejected(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        with pytest.raises(ValueError):
            open_delta(two_queue_instance, idx, (4, 0), 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_incremental_matches_direct_cut(self, seed):
        inst = small_instance(seed, min_bins=1)
        idx = build_pallet_index(inst)
        rng = SplitMix64(seed * 7 + 3)
        cfg = [0] * inst.k
        running = 0
        for j, _ in random_fifo_order(inst, rng):
            running += open_delta(inst, idx, tuple(cfg), j)
            cfg[j] += 1
            assert running == len(cut(inst, tuple(cfg)))


class TestConfigurationDag:
    def test_walk_is_complete_and_topological(self, two_queue_instance, three_queue_instance):
        for inst in (two_queue_instance, three_queue_instance):
            dag = ConfigurationDag(inst)
            seen = list(dag.topological_vertices())
            assert sorted(seen) == list(range(dag.count))
            position = {v: i for i, v in enumerate(seen)}
            for v in seen:
                for u in dag.predecessors(v):
                    assert position[u] < position[v]

    @pytest.mark.parametrize("seed", range(36))
    def test_layered_walk_gives_the_same_result(self, seed):
        """The DP over the grid listed by coordinate sum, lexicographic within
        a layer, with each vertex's predecessors in the same order: equal
        value and equal witness path."""
        inst = crosscheck_instance(seed)
        dag = ConfigurationDag(inst)
        values = {v: dag.value(v) for v in dag.topological_vertices()}
        layered = sorted(values, key=lambda v: (sum(dag.decode(v)), dag.decode(v)))
        arcs = [(u, v) for v in layered for u in dag.predecessors(v)]
        explicit = ExplicitDag(layered, arcs, values, dag.source, dag.target)
        assert opt_bottleneck(explicit) == opt_bottleneck(ConfigurationDag(inst))

    def test_grid_cap_trips_before_the_solver_budget(self):
        """A grid just above MAX_GRID_CONFIGURATIONS: the DP refuses it, the
        solver, whose budget is larger, solves it."""
        inst = generate_instance(GenSpec(pallets=16, queues=12, seed=34))
        assert MAX_GRID_CONFIGURATIONS < grid_size(inst, 10**12) <= 1.05 * MAX_GRID_CONFIGURATIONS
        with pytest.raises(BudgetError, match="state space too large"):
            ConfigurationDag(inst)
        places, bin_solution, _ = solve_min_places(inst)
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places

    def test_predecessors_decrement_one_coordinate(self, two_queue_instance):
        dag = ConfigurationDag(two_queue_instance)
        v = dag.encode((1, 3))
        preds = {dag.decode(u) for u in dag.predecessors(v)}
        assert preds == {(0, 3), (1, 2)}

    def test_value_on_a_fresh_dag(self, two_queue_instance, three_queue_instance):
        for inst in (two_queue_instance, three_queue_instance):
            dag = ConfigurationDag(inst)
            assert dag.value(dag.target) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_values_in_reverse_code_order(self, seed):
        """On a fresh DAG, values asked for from the target down equal those of
        the topological walk."""
        inst = crosscheck_instance(seed)
        walked = ConfigurationDag(inst)
        expected = [walked.value(v) for v in walked.topological_vertices()]
        fresh = ConfigurationDag(inst)
        assert [fresh.value(v) for v in reversed(range(fresh.count))] == expected[::-1]

    def test_value_deep_in_a_long_chain(self):
        """One queue of 1 600 bins is a chain of 1 601 configurations: a value
        asked for first at its far end takes no recursion."""
        inst = generate_instance(GenSpec(pallets=800, queues=1, min_bins=2, max_bins=2, seed=3))
        dag = ConfigurationDag(inst)
        assert dag.count == 1601
        middle = dag.count // 2
        assert dag.value(middle) == len(cut(inst, dag.decode(middle)))
        assert dag.value(dag.target) == 0

    def test_values_match_direct_cut(self, three_queue_instance):
        dag = ConfigurationDag(three_queue_instance)
        for v in dag.topological_vertices():
            assert dag.value(v) == len(cut(three_queue_instance, dag.decode(v)))


class TestSolveMinPlaces:
    def test_two_queue_instance(self, two_queue_instance):
        places, bin_solution, pallet_solution = solve_min_places(two_queue_instance)
        assert places == 3
        report = replay(two_queue_instance, bin_solution)
        assert report.valid and report.max_open == 3
        assert sorted(pallet_solution.order) == list(range(two_queue_instance.m))

    def test_three_queue_instance(self, three_queue_instance):
        places, bin_solution, _ = solve_min_places(three_queue_instance)
        assert places == 2
        assert replay(three_queue_instance, bin_solution).max_open == 2

    def test_single_sequence(self):
        inst = Instance.from_pallet_lists([list("aabb")])
        assert solve_min_places(inst)[0] == 1

    def test_budget_guard(self, two_queue_instance):
        with pytest.raises(BudgetError, match="state space too large"):
            solve_min_places(two_queue_instance, max_configurations=10)

    def test_witness_path_is_monotone(self, two_queue_instance):
        dag = ConfigurationDag(two_queue_instance)
        result = opt_bottleneck(dag)
        configs = [dag.decode(v) for v in result.path]
        for before, after in zip(configs, configs[1:]):
            diffs = [b - a for a, b in zip(before, after)]
            assert sorted(diffs) == [0] * (len(diffs) - 1) + [1]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bin_order_oracle(self, seed):
        from fifo_stackup.oracles import brute_force_bin_orders
        from conftest import tiny_instance

        inst = tiny_instance(seed, min_bins=1)
        assert solve_min_places(inst)[0] == brute_force_bin_orders(inst)

    def test_a_wide_boundary(self):
        """50 pallets on 6 queues, where the boundary holds up to 21 pallets
        at once: 22 places, and the witness replays at 22.  The grid DP,
        ``opt_bottleneck(ConfigurationDag(inst))``, confirms 22 over the
        2.3·10^6 configurations, but takes about 15 s and 400 MB, too slow
        for the suite."""
        inst = generate_instance(GenSpec(pallets=50, queues=6, seed=3))
        places, bin_solution, _ = solve_min_places(inst)
        assert places == 22
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == 22


def crosscheck_instance(seed):
    """Seeded instance with 1..6 queues; odd seed blocks allow single-bin pallets."""
    k = 1 + seed % 6
    min_bins = 1 + seed // 6 % 2
    rng = SplitMix64(seed * 7919 + 11)
    spec = GenSpec(pallets=max(3, k) + rng.below(3), queues=k,
                   min_bins=min_bins, max_bins=3, seed=seed)
    return generate_instance(spec)


class TestDecisionSearch:
    """The decision-configuration search against the grid DP it replaces."""

    @pytest.mark.parametrize("seed", [*range(240), pytest.param(
        # a stackup_queues benchmark input (seed 1) whose witness changes when
        # a set's cost is raised to the least out-degree of an unplaced vertex
        GenSpec(pallets=16, queues=5, seed=8249044719362511507), id="genspec-16-5")])
    def test_matches_grid_dp(self, seed):
        if isinstance(seed, GenSpec):
            inst = generate_instance(seed)
        else:
            inst = crosscheck_instance(seed)
            assert inst.k == 1 + seed % 6
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == opt_bottleneck(ConfigurationDag(inst)).value
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places
        assert pallet_solution == opening_order(inst, bin_solution)

    def test_single_bin_pallets_are_covered(self):
        assert sum(1 in crosscheck_instance(seed).bin_counts() for seed in range(240)) >= 50

    def test_the_search_runs_on_the_sequence_graph(self, monkeypatch):
        """The search gets the sequence graph's own masks, the one-bin pallets
        as ``start``, and the instance's own queues."""
        calls = []
        real = processing.minimax_order

        def spying(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(processing, "minimax_order", spying)
        with_single_bins = 0
        for seed in range(240):
            inst = crosscheck_instance(seed)
            del calls[:]
            solve_min_places(inst)
            [(in_mask, out_mask, start, queues)] = calls
            singles = {t for t, count in enumerate(inst.bin_counts()) if count == 1}
            assert (in_mask, out_mask) == arc_masks(build_sequence_graph(inst)), seed
            assert start == sum(1 << t for t in singles), seed
            assert queues is inst.sequences, seed
            with_single_bins += bool(singles)
        assert with_single_bins >= 80

    def test_the_queues_are_taken_as_they_are(self):
        """The search counts a pallet's first occurrence in a queue and walks
        past ``start`` itself: given the raw queues, it returns the peak and
        order it returns for each queue's first occurrences without the
        one-bin pallets."""
        headed_by_single_bins = 0
        for seed in range(240):
            inst = crosscheck_instance(seed)
            singles = {t for t, count in enumerate(inst.bin_counts()) if count == 1}
            masks = arc_masks(build_sequence_graph(inst))
            start = sum(1 << t for t in singles)
            lists = [[t for t in dict.fromkeys(seq) if t not in singles] for seq in inst.sequences]
            assert (search.minimax_order(*masks, start, inst.sequences)
                    == search.minimax_order(*masks, start, lists)), seed
            headed_by_single_bins += any(seq[0] in singles for seq in inst.sequences)
        assert headed_by_single_bins >= 40

    def test_large_six_queue_grid(self):
        inst = generate_instance(GenSpec(pallets=16, queues=6, min_bins=3, max_bins=4, seed=1))
        assert inst.k == 6 and inst.m <= 16
        assert grid_size(inst, 10**9) > 500_000
        places, bin_solution, _ = solve_min_places(inst)
        assert places == dpw_exact(build_sequence_graph(inst)).width + 1
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places


    @pytest.mark.parametrize("seed", range(48))
    def test_dict_link_table(self, seed):
        """More pallets than the byte table covers: 23..40 on 1..3 queues."""
        rng = SplitMix64(seed * 104729 + 3)
        spec = GenSpec(pallets=23 + rng.below(18), queues=1 + seed % 3,
                       min_bins=1 + seed // 3 % 2, max_bins=3, seed=seed)
        inst = generate_instance(spec)
        assert inst.m > BYTE_TABLE_MAX_VERTICES
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == opt_bottleneck(ConfigurationDag(inst)).value
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places
        assert pallet_solution == opening_order(inst, bin_solution)

    @pytest.mark.parametrize("queues", [["abc"], ["ab", "cd"]])
    def test_only_single_bin_pallets(self, queues):
        inst = Instance.from_pallet_lists([list(queue) for queue in queues])
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == 0
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == 0
        assert pallet_solution == opening_order(inst, bin_solution)


class TestFrontWalk:
    """The search keeps each queue's front itself: placing a pallet walks on
    every queue it heads, past the pallets already placed."""

    @pytest.mark.parametrize("queues", [
        ["abca", "adbd", "ece"],  # a heads two queues
        ["abcd", "abdc", "acbd"],  # a heads three, b and c then two each
        ["abab", "baba"],  # a pallet repeats within a queue
        ["aabbcc", "ccbbaa"],
        ["abcacb", "cab"],  # with c placed before b, the first queue walks past c
        ["abcdd", "caeeb"],  # every order walks some queue past a placed pallet
        ["dabcda", "dcbacb", "bd"],  # d heads two queues and repeats in both
        ["axb", "ayb", "ba"],  # one-bin pallets x, y are placed from the start
        ["xaby", "ab", "ab"],
    ])
    def test_hand_built(self, queues):
        inst = Instance.from_pallet_lists([list(queue) for queue in queues])
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == opt_bottleneck(ConfigurationDag(inst)).value
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places
        assert pallet_solution == opening_order(inst, bin_solution)

    @pytest.mark.parametrize("seed", range(60))
    def test_shared_fronts(self, seed):
        """Seeded instances where one pallet heads every queue."""
        rng = SplitMix64(seed * 6151 + 7)
        k = 2 + seed % 4
        spec = GenSpec(pallets=k + rng.below(4), queues=k, min_bins=2, max_bins=4, seed=seed)
        inst = generate_instance(spec)
        lists = [[inst.symbols[t] for t in seq] for seq in inst.sequences]
        head = lists[0][0]
        inst = Instance.from_pallet_lists([lists[0]] + [[head] + row for row in lists[1:]])
        assert all(seq[0] == 0 for seq in inst.sequences)
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == opt_bottleneck(ConfigurationDag(inst)).value
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places
        assert pallet_solution == opening_order(inst, bin_solution)

    def test_a_vertex_in_no_queue_is_refused(self):
        """A vertex outside start that no queue holds is refused up front by
        the search's queue mask, before any set is popped, instead of the
        search climbing levels for ever."""
        with pytest.raises(InternalError, match="in no queue"):
            search.minimax_order([0, 0], [0, 0], 0, [[0]])
        with pytest.raises(InternalError, match="in no queue"):
            search.minimax_order([0, 1, 0], [2, 0, 0], 1, [[0, 1], [0]])


class TestPrunePriority:
    def test_forced_auto_removal(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        assert prune_priority(two_queue_instance, idx, (0, 3)) == (1,)  # front c is open

    def test_decision_configuration(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        assert prune_priority(two_queue_instance, idx, (0, 0)) == (0, 1)

    def test_skips_exhausted_sequences(self):
        inst = Instance.from_pallet_lists([["a"], ["a", "b", "b"]])
        idx = build_pallet_index(inst)
        # q1 exhausted, q2 front is the open pallet a's... front is b after (1, 1)? build: after
        # removing q1's a and q2's a, front of q2 is b with a closed: decision config.
        assert prune_priority(inst, idx, (1, 1)) == (1,)
        # after removing only q1's a, q2 front a is open: forced
        assert prune_priority(inst, idx, (1, 0)) == (1,)

    def test_final_configuration_rejected(self, two_queue_instance):
        idx = build_pallet_index(two_queue_instance)
        with pytest.raises(ValueError):
            prune_priority(two_queue_instance, idx, tuple(map(len, two_queue_instance.sequences)))

    @pytest.mark.parametrize("seed", range(25))
    def test_priority_rule_preserves_optimum(self, seed):
        """Restricting the search to prune_priority successors is lossless."""
        inst = small_instance(seed, min_bins=1)
        idx = build_pallet_index(inst)
        final = tuple(map(len, inst.sequences))
        memo = {}

        def best_from(cfg):
            if cfg == final:
                return 0
            if cfg in memo:
                return memo[cfg]
            value = math.inf
            for j in prune_priority(inst, idx, cfg):
                nxt = list(cfg)
                nxt[j] += 1
                nxt = tuple(nxt)
                value = min(value, max(len(cut(inst, nxt)), best_from(nxt)))
            memo[cfg] = value
            return value

        assert best_from((0,) * inst.k) == solve_min_places(inst)[0]


class TestStartLevel:
    """The search starts at a lower bound on the peak, given by
    ``search.start_level``; a bound that is too high would make the
    answer wrong, so it is checked against the grid DP."""

    @staticmethod
    def record_bounds(monkeypatch):
        bounds = []
        real = search.start_level

        def recording(*args):
            bounds.append(real(*args))
            return bounds[-1]

        monkeypatch.setattr(search, "start_level", recording)
        return bounds

    def test_never_above_the_grid_dp(self, monkeypatch):
        bounds = self.record_bounds(monkeypatch)
        with_single_bins = 0
        for seed in range(240):
            inst = crosscheck_instance(seed)
            del bounds[:]
            places, bin_solution, _ = solve_min_places(inst)
            optimum = opt_bottleneck(ConfigurationDag(inst)).value
            assert places == optimum
            assert replay(inst, bin_solution).max_open == optimum
            assert all(bound <= optimum - 1 for bound in bounds)
            with_single_bins += bool(bounds) and 1 in inst.bin_counts()
        assert with_single_bins >= 80

    def test_one_long_queue(self, monkeypatch):
        """On p1 p1 p2 p2 ... pm pm the out-neighbours of each pallet are the
        later pallets, so the peel drops pm first and then each pallet before
        it: the whole chain leaves H in one round at level 0."""
        bounds = self.record_bounds(monkeypatch)
        inst = Instance.from_pallet_lists([[f"p{i // 2 + 1}" for i in range(8000)]])
        places, bin_solution, _ = solve_min_places(inst)
        assert (places, bounds) == (1, [0])
        assert replay(inst, bin_solution).max_open == 1

    def test_exact_from_level_zero(self, monkeypatch):
        """The start level meets the optimum on most inputs; started at 0,
        the search climbs every level, one waiting list at a time, and must
        still agree with the grid DP and the subset table."""
        calls = []

        def from_zero(*args):
            calls.append(args)
            return 0

        monkeypatch.setattr(search, "start_level", from_zero)
        for seed in range(240):
            inst = crosscheck_instance(seed)
            del calls[:]
            places, bin_solution, _ = solve_min_places(inst)
            assert places == opt_bottleneck(ConfigurationDag(inst)).value
            report = replay(inst, bin_solution)
            assert report.valid and report.max_open == places
            assert len(calls) == any(count > 1 for count in inst.bin_counts()), seed
        for percent in (5, 20, 35, 50, 65, 80, 95, 100):
            rng = SplitMix64(percent * 173 + 5)
            for n in range(2, 12):
                for _ in range(3):
                    graph = random_digraph(rng, n, percent)
                    del calls[:]
                    assert dpw_exact(graph).width == dpw_table(graph).width
                    assert len(calls) == 1

    def test_a_bound_one_too_high_is_caught(self, monkeypatch):
        """Where the bound meets the optimum, one more makes the solver
        disagree with the grid DP or fail its replay."""
        bounds = self.record_bounds(monkeypatch)
        cases = []
        for seed in range(60):
            inst = crosscheck_instance(seed)
            del bounds[:]
            places = solve_min_places(inst)[0]
            if bounds == [places - 1]:
                cases.append((inst, opt_bottleneck(ConfigurationDag(inst)).value))
        assert len(cases) >= 40
        real = search.start_level
        monkeypatch.setattr(search, "start_level", lambda *args: real(*args) + 1)
        for inst, optimum in cases:
            places, bin_solution, _ = solve_min_places(inst)
            report = replay(inst, bin_solution)
            assert places != optimum or not report.valid or report.max_open != places
