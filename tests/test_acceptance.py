"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is asserted here, nothing is deferred.
"""

import time

import pytest

from fifo_stackup import (
    ConfigurationDag,
    DirectedPathDecomposition,
    Instance,
    PalletSolution,
    SplitMix64,
    build_pallet_index,
    build_sequence_graph,
    brute_force_bin_orders,
    brute_force_pallet_orders,
    cut,
    decomposition_to_processing,
    dpw_brute_force,
    dpw_exact,
    open_delta,
    opt_bottleneck,
    processing_to_decomposition,
    random_admissible_digraph,
    reduce_digraph_to_queues,
    replay,
    solve_min_places,
    transform,
    val_threshold_oracle,
    validate_decomposition,
)
from fifo_stackup.cli import main

from conftest import (
    random_dag,
    random_fifo_order,
    small_instance,
    sym_clique,
    sym_cycle,
    sym_path,
    tiny_instance,
)

TWO_QUEUE_TEXT = "seq 1: a a b b\nseq 2: c d e c a d b e\n"


def report(number, message):
    print(f"acceptance criterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def duality_suite():
    """200 seeded instances with their DP results, shared by criteria 4 and 7."""
    suite = []
    for seed in range(200):
        inst = small_instance(seed)
        assert inst.k <= 3 and inst.m <= 5 and inst.n <= 12
        assert min(inst.bin_counts()) >= 2
        suite.append((inst, solve_min_places(inst)))
    return suite


def test_criterion_1_two_queue_instance_fidelity(tmp_path, capsys):
    path = tmp_path / "ex1.fsu"
    path.write_text(TWO_QUEUE_TEXT)
    started = time.monotonic()
    assert main(["solve", "--min", str(path)]) == 0
    assert "min places: 3" in capsys.readouterr().out
    assert main(["solve", "-p", "2", str(path)]) == 1
    assert capsys.readouterr().out.startswith("no")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"solve --min = 3 and -p 2 = no in {elapsed:.3f}s")


def test_criterion_2_three_queue_instance_fidelity(three_queue_instance):
    started = time.monotonic()
    t_sol = PalletSolution.from_symbols(three_queue_instance, list("abcde"))
    assert replay(three_queue_instance, transform(three_queue_instance, t_sol)).max_open == 2
    ids = {s: i for i, s in enumerate(three_queue_instance.symbols)}
    decomposition = DirectedPathDecomposition(tuple(
        frozenset(ids[s] for s in bag) for bag in ("ae", "be", "ce", "de")))
    b_sol = decomposition_to_processing(three_queue_instance, decomposition)
    assert replay(three_queue_instance, b_sol).max_open == 2
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(2, f"transform and the width-1 decomposition both give 2 places in {elapsed:.3f}s")


def test_criterion_3_cut_spot_checks(two_queue_instance, overlap_instance):
    got1 = {two_queue_instance.symbols[t] for t in cut(two_queue_instance, (0, 4))}
    assert got1 == {"d", "e"}
    got5 = {overlap_instance.symbols[t] for t in cut(overlap_instance, (2, 3))}
    assert got5 == {"a", "b", "d", "e", "f"}
    report(3, "cut(0,4) = {d,e} and cut(2,3) = {a,b,d,e,f}")


def test_criterion_4_duality_suite(duality_suite):
    started = time.monotonic()
    for inst, (places, _, _) in duality_suite:
        width = dpw_exact(build_sequence_graph(inst)).width
        assert places == width + 1, (inst, places, width)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(4, f"min places = dpw(G_Q) + 1 on {len(duality_suite)} instances in {elapsed:.1f}s")


def test_criterion_5_oracle_chain():
    started = time.monotonic()
    checked = 0
    for seed in range(100):
        inst = tiny_instance(seed, min_bins=1)
        assert inst.n <= 10
        by_bins = brute_force_bin_orders(inst)
        by_pallets, _ = brute_force_pallet_orders(inst)
        by_dp, _, _ = solve_min_places(inst)
        assert by_bins == by_pallets == by_dp, (seed, by_bins, by_pallets, by_dp)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 100 and elapsed < 120.0
    report(5, f"bin-bf = pallet-bf = dp on {checked} instances in {elapsed:.1f}s")


def test_criterion_6_reduction_round_trip():
    checked = 0
    for seed in range(100):
        rng = SplitMix64(seed * 41 + 3)
        n = 2 + rng.below(7)  # 2..8 vertices
        graph = random_admissible_digraph(n, max_degree=3, seed=seed)
        indeg, outdeg = graph.degrees()
        assert min(indeg) >= 1 and min(outdeg) >= 1
        inst = reduce_digraph_to_queues(graph)
        assert build_sequence_graph(inst).same_graph(graph)
        assert max(inst.bin_counts()) <= 6
        checked += 1
    report(6, f"G_(Q_G) = G arc-for-arc and <= 6 bins per pallet on {checked} digraphs")


def test_criterion_7_decomposition_bridges(duality_suite):
    for inst, (places, b_sol, _) in duality_suite:
        decomposition = processing_to_decomposition(inst, b_sol)
        graph = build_sequence_graph(inst)
        check = validate_decomposition(graph, decomposition)
        assert check.ok
        assert check.width == replay(inst, b_sol).max_open - 1 == places - 1
        witness = dpw_exact(graph).decomposition
        back = decomposition_to_processing(inst, witness)
        assert replay(inst, back).max_open <= witness.width + 1
    report(7, f"both decomposition bridges hold on all {len(duality_suite)} witnesses")


def test_criterion_8_incremental_consistency():
    paths = 0
    for seed in range(1000):
        inst = small_instance(seed % 300, min_bins=1)
        idx = build_pallet_index(inst)
        rng = SplitMix64(seed * 101 + 13)
        cfg = list(inst.initial_configuration())
        running = 0
        for j, _ in random_fifo_order(inst, rng):
            running += open_delta(inst, idx, tuple(cfg), j)
            cfg[j] += 1
            assert running == len(cut(inst, tuple(cfg)))
        paths += 1
    report(8, f"running open_delta equals direct cut along {paths} random paths")


def test_criterion_9_pathwidth_sanity():
    for graph, expected in ((sym_path(5), 1), (sym_cycle(5), 2), (sym_clique(4), 3)):
        assert graph.vertex_count <= 5
        assert dpw_exact(graph).width == expected
        brute = dpw_brute_force(graph)
        assert brute.width == expected
        assert validate_decomposition(graph, brute.decomposition).ok
    report(9, "path5/cycle5/clique4 widths are 1/2/3, certified by bag-sequence search")


def test_criterion_10_threshold_oracle_agreement():
    for seed in range(100):
        dag = random_dag(SplitMix64(seed * 7919 + 1))
        assert val_threshold_oracle(dag) == opt_bottleneck(dag).value, seed
    report(10, "threshold deletion equals the dynamic program on 100 random DAGs")


def _sweep_instance(N, seed=42):
    rng = SplitMix64(seed)
    m = N // 2
    bins = [t for t in range(m) for _ in range(4)]
    rng.shuffle(bins)
    names = [f"p{t + 1}" for t in range(m)]
    return Instance.from_pallet_lists(
        [[names[t] for t in bins[:N]], [names[t] for t in bins[N:]]])


def test_criterion_11_scaling_check():
    started = time.monotonic()
    constants = []
    for N in (50, 100, 200, 400):
        inst = _sweep_instance(N)
        assert inst.k == 2 and inst.N == N
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            opt_bottleneck(ConfigurationDag(inst))
            best = min(best, time.perf_counter() - t0)
        constants.append(best / (N + 1) ** 2)
    band = max(constants) / min(constants)
    elapsed = time.monotonic() - started
    assert band < 4.0, constants
    assert elapsed < 300.0
    report(11, f"grid dp time fits the (N+1)^2 model within a {band:.2f}x band in {elapsed:.1f}s")
