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
from fifo_stackup import pathwidth
from fifo_stackup.oracles import dpw_brute_force, dpw_table, search_decomposition_by_bags
from fifo_stackup.processing import DEFAULT_CONFIGURATION_BUDGET
from fifo_stackup.search import BYTE_TABLE_MAX_VERTICES, arc_masks, start_level

from conftest import random_digraph, sym_clique, sym_cycle, sym_path


def small_digraphs(percent):
    """Three seeded G(n, p) digraphs for each n from 1 to 10."""
    rng = SplitMix64(percent * 97 + 3)
    return [random_digraph(rng, n, percent) for n in range(1, 11) for _ in range(3)]


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
        """Above the byte-table size the search marks its sets in a dict.
        The routes run different halves of one engine, ``dpw_exact`` the
        backward half alone and the stack-up route both, so this checks the
        two against each other, not against an independent oracle:
        ``dpw_table`` would enumerate 4·10^6 subsets at 22 vertices."""
        graph = random_admissible_digraph(n, seed=seed)
        assert graph.vertex_count > BYTE_TABLE_MAX_VERTICES
        exact = dpw_exact(graph, max_vertices=n)
        stackup = dpw_via_stackup(graph, max_configurations=10**40)
        assert exact.width == stackup.width == width
        for result in (exact, stackup):
            check = validate_decomposition(graph, result.decomposition)
            assert check.ok and check.width == width

    @pytest.mark.parametrize("seed,width", [(10, 6), (11, 6)])
    def test_twenty_vertices_at_one_fifth_density(self, seed, width):
        """Seeded G(20, 0.2) digraphs, pinned with the stack-up route as the
        second route: ``dpw_table`` would enumerate 2^20 subsets."""
        graph = random_digraph(SplitMix64(seed), 20, 20)
        exact = dpw_exact(graph, max_vertices=20)
        stackup = dpw_via_stackup(graph, max_configurations=10**60)
        assert exact.width == stackup.width == width
        for result in (exact, stackup):
            check = validate_decomposition(graph, result.decomposition)
            assert check.ok and check.width == width

    @pytest.mark.parametrize("percent", [5, 20, 35, 50, 65, 80, 95, 100])
    def test_a_digraph_and_its_reversal(self, percent):
        """The width is the table's on each seeded digraph and on its
        reversal, which has the same width (reverse the bag order) but puts
        the sets the backward half pops at the other end of the order."""
        for graph in small_digraphs(percent):
            reversal = Digraph(graph.names, frozenset((v, u) for u, v in graph.arcs))
            for each in (graph, reversal):
                assert dpw_exact(each).width == dpw_table(each).width, each

    @pytest.mark.parametrize("percent", [5, 20, 35, 50, 65, 80, 95, 100])
    def test_a_step_grows_the_boundary_by_at_most_its_vertex(self, percent):
        """b(S + v) lies within b(S) + v for every set S and vertex v outside
        it, so a step raises a set's cost by at most one and every set the
        search defers costs the level + 1.  It is exactly the engine's step
        rule: b(S) + [v if in(v) is not within S + v] - {u in out(v) & b(S) :
        in(u) within S + v}.  Read backward it is the backward half's step:
        b(S) = (b(S + v) - v) | (out(v) & S), which a step back can grow by
        more than one.  b is taken from the definition: the vertices of S
        with an in-neighbour outside S."""
        rng = SplitMix64(percent * 97 + 3)
        for n in range(1, 10):
            graph = random_digraph(rng, n, percent)
            ins = [{u for u, w in graph.arcs if w == v} for v in range(n)]
            outs = [{w for u, w in graph.arcs if u == v} for v in range(n)]
            sets = [{v for v in range(n) if mask >> v & 1} for mask in range(1 << n)]
            boundary = [{v for u, v in graph.arcs if v in s and u not in s} for s in sets]
            for mask, s in enumerate(sets):
                for v in set(range(n)) - s:
                    after = boundary[mask | 1 << v]
                    assert after <= boundary[mask] | {v}, (n, mask, v)
                    placed = s | {v}
                    step = boundary[mask] - {u for u in outs[v] & boundary[mask]
                                             if ins[u] <= placed}
                    if not ins[v] <= placed:
                        step.add(v)
                    assert after == step, (n, mask, v)
                    assert boundary[mask] == after - {v} | outs[v] & s, (n, mask, v)

    @pytest.mark.parametrize("seed", [5, 22, 38, 373])
    def test_a_backward_step_that_raises_the_cost_by_two(self, seed):
        """On these inputs (11, 6, 11 and 16 vertices) a backward step raises
        the cost by more than one; on 5 and 22 a backward side that kept one
        waiting list for every cost would answer one too few."""
        graph = random_admissible_digraph(6 + seed % 11, max_degree=2 + seed % 4, seed=seed)
        assert dpw_exact(graph).width == dpw_table(graph).width

    def test_beyond_the_table(self):
        """Beyond the reach of ``dpw_table``, which would enumerate 2^36
        subsets."""
        graph = random_admissible_digraph(36, max_degree=3, seed=1)
        assert dpw_exact(graph, max_vertices=36).width == 5

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
        _, out_mask = arc_masks(graph)
        return start_level(out_mask, (1 << graph.vertex_count) - 1)

    @pytest.mark.parametrize("percent", [5, 20, 35, 50, 65, 80, 95, 100])
    def test_never_above_the_width(self, percent):
        rng = SplitMix64(percent * 131 + 17)
        for n in range(2, 12):
            for _ in range(6):
                graph = random_digraph(rng, n, percent)
                assert self.bound(graph) <= dpw_table(graph).width

    @staticmethod
    def out_degeneracy(out_mask, unplaced):
        """The largest, over the nonempty sets H within ``unplaced``, of the
        least out-degree in H, by brute force over every H."""
        best = 0
        group = unplaced
        while group:
            inside = [v for v in range(len(out_mask)) if group >> v & 1]
            best = max(best, min((out_mask[v] & group).bit_count() for v in inside))
            group = group - 1 & unplaced
        return best

    @pytest.mark.parametrize("graphs", [
        pytest.param([Digraph.from_named_arcs([("a", "b")])], id="arc"),
        pytest.param([sym_path(4)], id="two-cycles"),
    ] + [
        pytest.param(small_digraphs(percent), id=f"gnp{percent}")
        for percent in (5, 20, 35, 50, 65, 80, 95, 100)
    ])
    def test_is_the_out_degeneracy(self, graphs):
        """On the whole vertex set and on seeded random subsets of it."""
        rng = SplitMix64(41)
        for graph in graphs:
            _, out_mask = arc_masks(graph)
            full = (1 << graph.vertex_count) - 1
            for unplaced in (full, rng.below(full + 1), rng.below(full + 1)):
                assert start_level(out_mask, unplaced) == self.out_degeneracy(out_mask, unplaced)


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


class TestOrderingBags:
    def test_bags_follow_the_definition(self):
        """On any order, not only the search's (``oracles.dpw_table`` passes
        its own), the bag of v is {v} plus the placed vertices with an
        unplaced in-neighbour, here found from the arc set directly."""
        rng = SplitMix64(27)
        for _ in range(600):
            n = rng.randint(0, 14)
            graph = random_digraph(rng, n, 5 + rng.below(60))
            order = list(range(n))
            rng.shuffle(order)
            expected = []
            for i, v in enumerate(order):
                placed = set(order[:i])
                expected.append(frozenset({v} | {
                    u for w, u in graph.arcs if u in placed and w not in placed}))
            width = max(map(len, expected), default=0) - 1
            in_mask, _ = arc_masks(graph)
            result = pathwidth._ordering_result(graph, in_mask, order, width)
            assert result.decomposition.bags == tuple(expected)
            assert result.width == width


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
