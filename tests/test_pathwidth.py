import pytest

from fifo_stackup import (
    BudgetError,
    Digraph,
    GenSpec,
    SplitMix64,
    build_sequence_graph,
    dpw_exact,
    dpw_via_stackup,
    generate_instance,
    random_admissible_digraph,
    solve_min_places,
    strip_endpoints,
    validate_decomposition,
)
from fifo_stackup.oracles import dpw_brute_force, dpw_table, search_decomposition_by_bags
from fifo_stackup.pathwidth import _arc_masks
from fifo_stackup.processing import (
    _BYTE_TABLE_MAX_VERTICES,
    DEFAULT_CONFIGURATION_BUDGET,
    _start_level,
)

from conftest import sym_clique, sym_cycle, sym_path


def random_digraph(rng, n, percent=35):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = frozenset(p for p in pairs if rng.below(100) < percent)
    return Digraph(tuple(f"v{i}" for i in range(n)), arcs)


def kernel_corpus():
    """Seeded digraphs with 1 to 14 vertices: G(n, p) for p in 0.15, 0.3 and
    0.6, complete, empty, bidirected path and random admissible (one family
    with degree cap 3, one sparse enough for the stack-up route)."""
    cases = []
    for n in range(1, 15):
        names = tuple(f"v{i}" for i in range(n))
        for percent in (15, 30, 60):
            graph = random_digraph(SplitMix64(n * 100 + percent), n, percent)
            cases.append(pytest.param(graph, id=f"gnp{percent}-n{n}"))
        complete = sym_clique(n) if n > 1 else Digraph(names, frozenset())
        cases.append(pytest.param(complete, id=f"complete-n{n}"))
        cases.append(pytest.param(Digraph(names, frozenset()), id=f"empty-n{n}"))
        cases.append(pytest.param(sym_path(n), id=f"path-n{n}"))
        if n >= 2:
            cases.append(pytest.param(random_admissible_digraph(n, seed=n), id=f"admissible-n{n}"))
            sparse = random_admissible_digraph(n, max_degree=2, extra_arc_attempts=2, seed=n)
            cases.append(pytest.param(sparse, id=f"admissible-sparse-n{n}"))
    return cases


KERNEL_CORPUS = kernel_corpus()
STACKUP_CORPUS = [case for case in KERNEL_CORPUS if case.id.startswith("admissible")
                  and 3 ** len(case.values[0].arcs) <= DEFAULT_CONFIGURATION_BUDGET]


class TestDpwExact:
    def test_single_arc(self):
        graph = Digraph.from_named_arcs([("a", "b")])
        result = dpw_exact(graph)
        assert result.width == 0
        assert result.decomposition.bags == (frozenset({0}), frozenset({1}))

    def test_symmetric_triangle(self):
        assert dpw_exact(sym_clique(3)).width == 2

    def test_three_queue_sample_graph(self, three_queue_instance):
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


class TestLevelSearch:
    """dpw_exact against the subset-table oracle, the definitional search and
    the stack-up route, on a corpus that includes the classes where a search
    could lose its pruning (dense and complete digraphs)."""

    @pytest.mark.parametrize("graph", KERNEL_CORPUS)
    def test_width_and_witness(self, graph):
        result = dpw_exact(graph)
        assert result.width == dpw_table(graph).width
        if graph.vertex_count <= 6:
            assert result.width == dpw_brute_force(graph).width
        check = validate_decomposition(graph, result.decomposition)
        assert check.ok and check.width == result.width
        assert len(result.decomposition.bags) == graph.vertex_count

    @pytest.mark.parametrize("graph", STACKUP_CORPUS)
    def test_stackup_route_agrees(self, graph):
        assert dpw_exact(graph).width == dpw_via_stackup(graph).width

    @pytest.mark.parametrize("n,seed,width", [
        (22, 0, 3), (22, 2, 3), (24, 1, 3), (26, 0, 3), (26, 2, 4)])
    def test_dict_link_table(self, n, seed, width):
        """Above the byte-table size the unrestricted search marks its sets in
        a dict.  Both routes run the same engine, so this checks the two uses
        of it against each other, not against an independent oracle:
        ``dpw_table`` would enumerate 4·10^6 subsets at 22 vertices."""
        graph = random_admissible_digraph(n, seed=seed)
        assert graph.vertex_count > _BYTE_TABLE_MAX_VERTICES
        exact = dpw_exact(graph, max_vertices=n)
        stackup = dpw_via_stackup(graph, max_configurations=10**40)
        assert exact.width == stackup.width == width
        for result in (exact, stackup):
            check = validate_decomposition(graph, result.decomposition)
            assert check.ok and check.width == width

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_sequence_graphs(self, seed):
        """Sequence graphs of 12-14 pallets are dense (median arc density
        about 0.6): the width equals the table's and the place count minus one."""
        rng = SplitMix64(seed + 31)
        spec = GenSpec(pallets=12 + seed % 3, queues=2 + rng.below(4), seed=rng.next_u64())
        inst = generate_instance(spec)
        graph = build_sequence_graph(inst)
        result = dpw_exact(graph)
        assert result.width == dpw_table(graph).width == solve_min_places(inst)[0] - 1
        check = validate_decomposition(graph, result.decomposition)
        assert check.ok and check.width == result.width


class TestStartLevel:
    """The level the search starts at is a lower bound on the width, checked
    against the subset table at every density."""

    @staticmethod
    def bound(graph):
        _, out_mask = _arc_masks(graph)
        return _start_level(out_mask, (1 << graph.vertex_count) - 1)

    @pytest.mark.parametrize("percent", [5, 20, 35, 50, 65, 80, 95, 100])
    def test_never_above_the_width(self, percent):
        rng = SplitMix64(percent * 131 + 17)
        for n in range(2, 12):
            for _ in range(6):
                graph = random_digraph(rng, n, percent)
                assert self.bound(graph) <= dpw_table(graph).width

    @pytest.mark.parametrize("graph,width", [
        pytest.param(Digraph.from_named_arcs([("a", "b")]), 0, id="arc"),
        pytest.param(sym_path(4), 1, id="two-cycles"),
    ])
    def test_pair_count_drops_both_vertices(self, graph, width):
        """For the last vertex v of H and the one w placed before it, the
        boundary just before w lies in H - v - w: out(w) may hold v (the
        arc, placed a then b), and out(v) may hold w (a two-cycle)."""
        assert dpw_table(graph).width == width
        assert self.bound(graph) == width


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
        # neither end is admissible: the source goes in front, the sink behind
        graph = Digraph.from_named_arcs([("a", "b")])
        result = dpw_via_stackup(graph)
        assert result.width == 0
        assert result.decomposition.bags == (frozenset({0}), frozenset({1}))
        check = validate_decomposition(graph, result.decomposition)
        assert check.ok and check.width == 0

    def test_stripped_chain(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "c")])
        result = dpw_via_stackup(graph)
        assert result.width == 0

    @staticmethod
    def reattach_by_insert(graph, core_bags, removals):
        """The plain loop: walk the removal log backwards, putting sources and
        isolated vertices in front one at a time and sinks at the back."""
        lookup = {name: i for i, name in enumerate(graph.names)}
        bags = list(core_bags)
        for name, kind in reversed(removals):
            bag = frozenset((lookup[name],))
            if kind == "sink":
                bags.append(bag)
            else:
                bags.insert(0, bag)
        return tuple(bags)

    def test_reattached_bags_match_insert_loop(self):
        """Random digraphs with 1-8 vertices, sources, sinks and isolated
        vertices among them; the core is solved on its own for the middle."""
        rng = SplitMix64(4049)
        kinds = set()
        mixed = 0
        for _ in range(300):
            graph = random_digraph(rng, 1 + rng.below(8), percent=5 + rng.below(30))
            core, removals = strip_endpoints(graph)
            if len(core.arcs) > 16:
                continue  # 3^arcs would trip the grid guard
            kinds.update(kind for _, kind in removals)
            mixed += bool(removals) and core.vertex_count > 0
            lookup = {name: i for i, name in enumerate(graph.names)}
            core_bags = ()
            if core.vertex_count:
                core_bags = tuple(frozenset(lookup[core.names[v]] for v in bag)
                                  for bag in dpw_via_stackup(core).decomposition.bags)
            expected = self.reattach_by_insert(graph, core_bags, removals)
            assert dpw_via_stackup(graph).decomposition.bags == expected
        assert kinds == {"source", "sink", "isolated"}
        assert mixed >= 30

    def test_long_path_is_fast(self):
        import time

        n = 100_000
        graph = Digraph(tuple(f"v{i}" for i in range(n)),
                        frozenset((i, i + 1) for i in range(n - 1)))
        start = time.perf_counter()
        result = dpw_via_stackup(graph)
        assert time.perf_counter() - start < 2.5
        assert result.width == 0 and len(result.decomposition.bags) == n

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
