import pytest

from fifo_stackup import (
    BudgetError,
    Digraph,
    SplitMix64,
    dpw_brute_force,
    dpw_exact,
    dpw_via_stackup,
    random_admissible_digraph,
    search_decomposition_by_bags,
    validate_decomposition,
)

from conftest import sym_clique, sym_cycle, sym_path


def random_digraph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = frozenset(p for p in pairs if rng.below(100) < 35)
    return Digraph(tuple(f"v{i}" for i in range(n)), arcs)


class TestDpwExact:
    def test_single_arc(self):
        graph = Digraph.from_named_arcs([("a", "b")])
        result = dpw_exact(graph)
        assert result.width == 0
        assert result.decomposition.bags == (frozenset({0}), frozenset({1}))

    def test_symmetric_triangle(self):
        assert dpw_exact(sym_clique(3)).width == 2

    def test_three_queue_sample_graph(self, three_queue_instance):
        from fifo_stackup import build_sequence_graph

        graph = build_sequence_graph(three_queue_instance)
        assert dpw_exact(graph).width == 1

    def test_empty_graph(self):
        graph = Digraph((), frozenset())
        result = dpw_exact(graph)
        assert result.width == -1
        assert result.decomposition.bags == ()

    def test_arcless_graph(self):
        graph = Digraph(("a", "b"), frozenset())
        assert dpw_exact(graph).width == 0

    def test_guard(self):
        graph = Digraph(tuple(f"v{i}" for i in range(17)), frozenset())
        with pytest.raises(BudgetError, match="vertex budget"):
            dpw_exact(graph)

    @pytest.mark.parametrize("seed", range(30))
    def test_witness_always_validates(self, seed):
        rng = SplitMix64(seed)
        graph = random_digraph(rng, 2 + rng.below(6))
        result = dpw_exact(graph)
        check = validate_decomposition(graph, result.decomposition)
        assert check.ok and check.width == result.width


class TestCharacterizationAgainstDefinition:
    """dpw_exact rests on an ordering characterization; certify it against the
    definitional bag-sequence search before trusting it anywhere else."""

    def test_exhaustive_up_to_three_vertices(self):
        for n in range(4):
            names = tuple(f"v{i}" for i in range(n))
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for bits in range(1 << len(pairs)):
                arcs = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
                graph = Digraph(names, arcs)
                assert dpw_exact(graph).width == dpw_brute_force(graph).width

    @pytest.mark.parametrize("seed", range(60))
    def test_random_four_vertex_graphs(self, seed):
        graph = random_digraph(SplitMix64(seed * 11 + 2), 4)
        exact = dpw_exact(graph)
        brute = dpw_brute_force(graph)
        assert exact.width == brute.width
        assert validate_decomposition(graph, brute.decomposition).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_minimality_up_to_five_vertices(self, seed):
        rng = SplitMix64(seed * 17 + 5)
        graph = random_digraph(rng, 5)
        width = dpw_exact(graph).width
        assert search_decomposition_by_bags(graph, width) is not None
        assert search_decomposition_by_bags(graph, width - 1) is None


class TestSymmetricCorrespondence:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 1), (5, 1)])
    def test_paths(self, n, expected):
        graph = sym_path(n)
        assert dpw_exact(graph).width == expected
        assert dpw_brute_force(graph).width == expected

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 2), (5, 2)])
    def test_cycles(self, n, expected):
        graph = sym_cycle(n)
        assert dpw_exact(graph).width == expected
        assert dpw_brute_force(graph).width == expected

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 3)])
    def test_cliques(self, n, expected):
        graph = sym_clique(n)
        assert dpw_exact(graph).width == expected
        assert dpw_brute_force(graph).width == expected


class TestDecide:
    def test_single_arc(self):
        graph = Digraph.from_named_arcs([("a", "b")])
        assert dpw_exact(graph).width <= 0

    def test_triangle_width_one_false(self):
        assert not (dpw_exact(sym_clique(3)).width <= 1)

    def test_single_bag_bound(self):
        graph = sym_clique(4)
        assert dpw_exact(graph).width <= graph.vertex_count - 1


class TestDpwViaStackup:
    def test_two_cycle(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "a")])
        result = dpw_via_stackup(graph)
        assert result.width == 1
        assert validate_decomposition(graph, result.decomposition).ok

    def test_single_arc_needs_strip(self):
        graph = Digraph.from_named_arcs([("a", "b")])
        from fifo_stackup import InadmissibleDigraphError

        with pytest.raises(InadmissibleDigraphError):
            dpw_via_stackup(graph)
        result = dpw_via_stackup(graph, strip=True)
        assert result.width == 0
        check = validate_decomposition(graph, result.decomposition)
        assert check.ok and check.width == 0

    def test_stripped_chain(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "c")])
        result = dpw_via_stackup(graph, strip=True)
        assert result.width == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_cross_oracle_agreement(self, seed):
        rng = SplitMix64(seed * 23 + 9)
        n = 3 + rng.below(4)
        graph = random_admissible_digraph(n, max_degree=3,
                                          extra_arc_attempts=n, seed=seed)
        if len(graph.arcs) > 12:
            pytest.skip("state space guard for the stack-up route")
        by_stackup = dpw_via_stackup(graph)
        by_subsets = dpw_exact(graph)
        assert by_stackup.width == by_subsets.width
        assert validate_decomposition(graph, by_stackup.decomposition).ok
