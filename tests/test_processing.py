import math

import pytest

from fifo_stackup import (
    BudgetError,
    GenSpec,
    Instance,
    SplitMix64,
    build_pallet_index,
    build_sequence_graph,
    cut,
    dpw_exact,
    generate_instance,
    opening_order,
    replay,
    solve_min_places,
)
from fifo_stackup.oracles import (
    ConfigurationDag,
    ExplicitDag,
    open_delta,
    opt_bottleneck,
    prune_priority,
    val_threshold_oracle,
)
from fifo_stackup.processing import grid_size

from conftest import random_dag, random_fifo_order, small_instance


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
        cfg = list(inst.initial_configuration())
        running = 0
        for j, _ in random_fifo_order(inst, rng):
            running += open_delta(inst, idx, tuple(cfg), j)
            cfg[j] += 1
            assert running == len(cut(inst, tuple(cfg)))


class TestConfigurationDag:
    def test_enumeration_is_layered_and_complete(self, two_queue_instance):
        dag = ConfigurationDag(two_queue_instance)
        seen = list(dag.topological_vertices())
        assert len(seen) == len(set(seen)) == dag.count
        sums = [sum(dag.decode(v)) for v in seen]
        assert sums == sorted(sums)
        # lexicographic within a layer
        by_layer = {}
        for v in seen:
            by_layer.setdefault(sum(dag.decode(v)), []).append(dag.decode(v))
        for layer in by_layer.values():
            assert layer == sorted(layer)

    def test_predecessors_decrement_one_coordinate(self, two_queue_instance):
        dag = ConfigurationDag(two_queue_instance)
        v = dag.encode((1, 3))
        preds = {dag.decode(u) for u in dag.predecessors(v)}
        assert preds == {(0, 3), (1, 2)}

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

    @pytest.mark.parametrize("seed", range(240))
    def test_matches_grid_dp(self, seed):
        inst = crosscheck_instance(seed)
        assert inst.k == 1 + seed % 6
        places, bin_solution, pallet_solution = solve_min_places(inst)
        assert places == opt_bottleneck(ConfigurationDag(inst)).value
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places
        assert pallet_solution == opening_order(inst, bin_solution)

    def test_single_bin_pallets_are_covered(self):
        assert sum(1 in crosscheck_instance(seed).bin_counts() for seed in range(240)) >= 50

    def test_large_six_queue_grid(self):
        inst = generate_instance(GenSpec(pallets=16, queues=6, min_bins=3, max_bins=4, seed=1))
        assert inst.k == 6 and inst.m <= 16
        assert grid_size(inst, 10**9) > 500_000
        places, bin_solution, _ = solve_min_places(inst)
        assert places == dpw_exact(build_sequence_graph(inst)).width + 1
        report = replay(inst, bin_solution)
        assert report.valid and report.max_open == places


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
            prune_priority(two_queue_instance, idx, two_queue_instance.final_configuration())

    @pytest.mark.parametrize("seed", range(25))
    def test_priority_rule_preserves_optimum(self, seed):
        """Restricting the search to prune_priority successors is lossless."""
        inst = small_instance(seed, min_bins=1)
        idx = build_pallet_index(inst)
        final = inst.final_configuration()
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

        assert best_from(inst.initial_configuration()) == solve_min_places(inst)[0]
