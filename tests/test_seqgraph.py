import pytest

from fifo_stackup import (
    BinSolution,
    DecompositionCheck,
    Digraph,
    DigraphFormatError,
    DirectedPathDecomposition,
    InadmissibleDigraphError,
    Instance,
    SplitMix64,
    build_sequence_graph,
    decomposition_to_dot,
    decomposition_to_processing,
    digraph_to_dot,
    dpw_exact,
    emit_digraph,
    parse_digraph,
    processing_to_decomposition,
    random_admissible_digraph,
    reduce_digraph_to_queues,
    replay,
    strip_endpoints,
    validate_decomposition,
)

from fifo_stackup.instance import SYMBOL_RE

from conftest import TWO_QUEUE_PROCESSING, THREE_QUEUE_PROCESSING, random_fifo_order, small_instance


def bags_of(inst, *symbol_groups):
    ids = {s: i for i, s in enumerate(inst.symbols)}
    return DirectedPathDecomposition(
        tuple(frozenset(ids[s] for s in group) for group in symbol_groups))


# The parser and validator as they were before each became one pass, kept
# verbatim as references for the differential tests below.

def reference_parse_digraph(text):
    arcs = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise DigraphFormatError(f"line {lineno}: expected '<u> <v>' or 'vertex <u>'")
        u, v = tokens
        for name in (v,) if u == "vertex" else (u, v):
            if SYMBOL_RE.fullmatch(name) is None:
                raise DigraphFormatError(f"line {lineno}: illegal vertex name {name!r}")
            if name == "vertex":
                raise DigraphFormatError(f"line {lineno}: reserved vertex name 'vertex'")
        if u == "vertex":
            isolated.append(v)
        elif u == v:
            raise DigraphFormatError(f"line {lineno}: self-loop at {u!r}")
        else:
            arcs.append((u, v))
    # Digraph.from_named_arcs(arcs, isolated)
    interned = {}
    for u, v in arcs:
        interned.setdefault(u, len(interned))
        interned.setdefault(v, len(interned))
    for w in isolated:
        interned.setdefault(w, len(interned))
    return Digraph(tuple(interned), frozenset((interned[u], interned[v]) for u, v in arcs))


def reference_validate_decomposition(graph, decomposition):
    bags = decomposition.bags
    mentioned = set().union(*bags) if bags else set()
    vertices = set(range(graph.vertex_count))
    if not mentioned <= vertices:
        raise ValueError(f"bags reference unknown vertex ids {sorted(mentioned - vertices)}")
    missing = vertices - mentioned
    if missing:
        return DecompositionCheck(False, violation="dpw-1", witness=graph.names[min(missing)])
    occurrences = {}
    for bag in bags:
        for v in bag:
            occurrences[v] = occurrences.get(v, 0) + 1
    alpha, beta = decomposition.intervals()
    for v in sorted(occurrences):
        if occurrences[v] != beta[v] - alpha[v] + 1:
            return DecompositionCheck(False, violation="dpw-3", witness=graph.names[v])
    for u, v in sorted(graph.arcs):
        if alpha[u] > beta[v]:
            return DecompositionCheck(
                False, violation="dpw-2", witness=(graph.names[u], graph.names[v]))
    return DecompositionCheck(True, width=decomposition.width)


def outcome(function, *args):
    """The value returned, or the class and message of the error raised."""
    try:
        return function(*args)
    except (DigraphFormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestBuildSequenceGraph:
    def test_three_queue_arcs(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        assert graph.arc_names() == {
            ("a", "d"), ("a", "e"), ("d", "e"), ("e", "d"),
            ("b", "d"), ("c", "d"), ("c", "e")}

    def test_single_pallet_no_arcs(self):
        inst = Instance.from_pallet_lists([["a", "a"]])
        graph = build_sequence_graph(inst)
        assert graph.arcs == frozenset()
        assert graph.names == ("a",)

    def test_queue_system_round_trip(self, ring_digraph):
        inst = reduce_digraph_to_queues(ring_digraph)
        assert emit_digraph(build_sequence_graph(inst)) == emit_digraph(ring_digraph)


class TestReduce:
    def test_ring_digraph_queues(self, ring_digraph):
        inst = reduce_digraph_to_queues(ring_digraph)
        queues = [[inst.symbols[t] for t in seq] for seq in inst.sequences]
        assert queues == [
            ["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"],
            ["e", "a"], ["e", "f"], ["f", "a"]]

    def test_two_cycle(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "a")])
        inst = reduce_digraph_to_queues(graph)
        assert [[inst.symbols[t] for t in seq] for seq in inst.sequences] == [
            ["a", "b"], ["b", "a"]]

    def test_inadmissible_without_strip(self):
        graph = Digraph.from_named_arcs([("a", "b")])
        with pytest.raises(InadmissibleDigraphError, match="a, b"):
            reduce_digraph_to_queues(graph)

    def test_strip_flag(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "c"), ("c", "b")])
        inst = reduce_digraph_to_queues(strip_endpoints(graph)[0])
        assert set(inst.symbols) == {"b", "c"}

    @pytest.mark.parametrize("seed", range(40))
    def test_random_round_trip(self, seed):
        graph = random_admissible_digraph(2 + seed % 7, max_degree=3, seed=seed)
        inst = reduce_digraph_to_queues(graph)
        assert emit_digraph(build_sequence_graph(inst)) == emit_digraph(graph)
        # bounded degree bounds bins per pallet
        counts = inst.bin_counts()
        assert max(counts) <= 6

    def test_strip_endpoints_chain(self):
        graph = Digraph.from_named_arcs([("a", "b"), ("b", "c")])
        core, removals = strip_endpoints(graph)
        assert core.vertex_count == 0
        # removal is one vertex at a time, lowest index first, so c ends up
        # isolated by the time it is examined
        assert removals == (("a", "source"), ("b", "source"), ("c", "isolated"))

    def test_strip_endpoints_tags_sinks(self):
        graph = Digraph.from_named_arcs(
            [("x", "y"), ("y", "x"), ("x", "z")])  # z is a pure sink
        core, removals = strip_endpoints(graph)
        assert removals == (("z", "sink"),)
        assert set(core.names) == {"x", "y"}

    @staticmethod
    def strip_by_recount(graph):
        """The plain loop: recount every degree, remove the lowest-indexed
        vertex lacking in- or out-arcs, rebuild the arc set, repeat."""
        names = list(graph.names)
        arcs = set(graph.arcs)
        alive = set(range(len(names)))
        removals = []
        while True:
            indeg = {v: 0 for v in alive}
            outdeg = {v: 0 for v in alive}
            for u, v in arcs:
                outdeg[u] += 1
                indeg[v] += 1
            bad = sorted(v for v in alive if indeg[v] == 0 or outdeg[v] == 0)
            if not bad:
                break
            v = bad[0]
            if indeg[v] == 0 and outdeg[v] == 0:
                kind = "isolated"
            elif indeg[v] == 0:
                kind = "source"
            else:
                kind = "sink"
            removals.append((names[v], kind))
            alive.discard(v)
            arcs = {(a, b) for a, b in arcs if a != v and b != v}
        remaining = sorted(alive)
        remap = {v: i for i, v in enumerate(remaining)}
        core = Digraph(tuple(names[v] for v in remaining),
                       frozenset((remap[a], remap[b]) for a, b in arcs))
        return core, tuple(removals)

    def test_strip_endpoints_matches_recount(self):
        """Random digraphs with 1-14 vertices, isolated vertices and 2-cycles
        among them."""
        rng = SplitMix64(2024)
        for _ in range(1500):
            n = 1 + rng.below(14)
            density = 1 + rng.below(6)
            arcs = frozenset((u, v) for u in range(n) for v in range(n)
                             if u != v and rng.below(n + 8) < density)
            graph = Digraph(tuple(f"v{i}" for i in range(n)), arcs)
            assert strip_endpoints(graph) == self.strip_by_recount(graph)

    def test_strip_endpoints_long_path_is_fast(self):
        import time

        n = 20_000
        graph = Digraph(tuple(f"v{i}" for i in range(n)),
                        frozenset((i, i + 1) for i in range(n - 1)))
        start = time.perf_counter()
        core, removals = strip_endpoints(graph)
        assert time.perf_counter() - start < 2.0
        assert core.vertex_count == 0 and len(removals) == n


class TestValidateDecomposition:
    def test_paper_width_one(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        decomposition = bags_of(three_queue_instance, "ae", "be", "ce", "de")
        check = validate_decomposition(graph, decomposition)
        assert check.ok and check.width == 1

    def test_single_bag_always_valid(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        decomposition = DirectedPathDecomposition(
            (frozenset(range(graph.vertex_count)),))
        check = validate_decomposition(graph, decomposition)
        assert check.ok and check.width == graph.vertex_count - 1

    def test_uncovered_arc(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        decomposition = bags_of(three_queue_instance, "d", "a", "b", "c", "e")
        check = validate_decomposition(graph, decomposition)
        assert not check.ok
        assert check.violation == "dpw-2"
        assert check.witness == ("a", "d")

    def test_missing_vertex(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        check = validate_decomposition(graph, bags_of(three_queue_instance, "ae", "be", "ce"))
        assert check.violation == "dpw-1"
        assert check.witness == "d"

    def test_broken_interval(self, three_queue_instance):
        graph = build_sequence_graph(three_queue_instance)
        check = validate_decomposition(
            graph, bags_of(three_queue_instance, "ae", "b", "ce", "de", "ab"))
        assert check.violation == "dpw-3"
        assert check.witness == "a"

    @staticmethod
    def random_case(rng):
        """A digraph on 0 to 7 vertices and a bag sequence: the bags of a
        vertex ordering (always valid) with at most one id added or taken
        out, random intervals with holes, or random subsets; an unknown id
        (-1 or n) joins a bag now and then."""
        n = rng.randint(0, 7)
        graph = Digraph(tuple(f"v{i}" for i in range(n)), frozenset(
            (u, v) for u in range(n) for v in range(n) if u != v and rng.below(100) < 30))
        kind = rng.below(3)
        if kind == 0:
            order = list(range(n))
            rng.shuffle(order)
            bags = []
            for i, v in enumerate(order):
                placed = order[:i]
                bags.append({v} | {u for u in placed
                                   if any(b == u and a not in placed for a, b in graph.arcs)})
            if bags and rng.below(2):
                bags[rng.below(len(bags))] ^= {rng.below(n)}
        elif kind == 1:
            bags = [set() for _ in range(rng.randint(0, 7))]
            for v in range(n):
                if bags and rng.below(10):
                    a = rng.below(len(bags))
                    for i in range(a, rng.randint(a, len(bags) - 1) + 1):
                        if rng.below(12):
                            bags[i].add(v)
        else:
            bags = [{rng.below(n) for _ in range(rng.below(4))} if n else set()
                    for _ in range(rng.randint(0, 7))]
        for bag in bags:
            if not rng.below(25):
                bag.add((-1, n)[rng.below(2)])
        return graph, DirectedPathDecomposition(tuple(frozenset(bag) for bag in bags))

    def test_agrees_with_the_reference(self):
        """The one-walk validator returns what the one that sorted every vertex
        and arc returned, field by field, or raises the same message."""
        rng = SplitMix64(27)
        seen = set()
        for _ in range(20_000):
            graph, decomposition = self.random_case(rng)
            expected = outcome(reference_validate_decomposition, graph, decomposition)
            got = outcome(validate_decomposition, graph, decomposition)
            assert got == expected, (graph, decomposition)
            if isinstance(got, DecompositionCheck):
                assert (got.ok, got.width, got.violation, got.witness) == (
                    expected.ok, expected.width, expected.violation, expected.witness)
                seen.add(got.violation)
            else:
                seen.add(got[0])
        assert seen == {None, "dpw-1", "dpw-2", "dpw-3", "ValueError"}

    def test_intervals_and_alpha_beta(self, three_queue_instance):
        decomposition = bags_of(three_queue_instance, "ae", "be", "ce", "de")
        alpha, beta = decomposition.intervals()
        ids = {s: i for i, s in enumerate(three_queue_instance.symbols)}
        assert {three_queue_instance.symbols[v]: i for v, i in alpha.items()} == {
            "a": 1, "b": 2, "c": 3, "d": 4, "e": 1}
        assert beta[ids["e"]] == 4 and beta[ids["d"]] == 4


class TestDecompositionBridges:
    def test_processing_to_decomposition_two_queue_instance(self, two_queue_instance):
        decomposition = processing_to_decomposition(two_queue_instance, BinSolution(TWO_QUEUE_PROCESSING))
        assert decomposition.width == 2
        sym = lambda bag: frozenset(two_queue_instance.symbols[v] for v in bag)
        assert [sym(b) for b in decomposition.bags[:4]] == [
            frozenset(), {"c"}, {"c", "d"}, {"c", "d", "e"}]
        assert validate_decomposition(
            build_sequence_graph(two_queue_instance), decomposition).ok

    def test_processing_to_decomposition_three_queue_instance(self, three_queue_instance):
        decomposition = processing_to_decomposition(three_queue_instance, BinSolution(THREE_QUEUE_PROCESSING))
        assert decomposition.width == 1

    def test_single_pallet_processing(self):
        inst = Instance.from_pallet_lists([["a", "a"]])
        decomposition = processing_to_decomposition(
            inst, BinSolution(((0, 1), (0, 2))))
        assert decomposition.width == 0
        assert set(decomposition.bags) <= {frozenset(), frozenset({0})}

    def test_single_bin_pallet_rejected(self):
        inst = Instance.from_pallet_lists([["a", "b", "a"]])
        with pytest.raises(ValueError, match="dpw-1"):
            processing_to_decomposition(inst, BinSolution(((0, 1), (0, 2), (0, 3))))

    def test_decomposition_to_processing_three_queue_instance(self, three_queue_instance):
        decomposition = bags_of(three_queue_instance, "ae", "be", "ce", "de")
        b_sol = decomposition_to_processing(three_queue_instance, decomposition)
        from fifo_stackup import opening_order

        assert opening_order(three_queue_instance, b_sol).to_symbols(three_queue_instance) == (
            "a", "b", "c", "d", "e")
        assert replay(three_queue_instance, b_sol).max_open == 2

    def test_decomposition_to_processing_single_bag(self, three_queue_instance):
        decomposition = DirectedPathDecomposition((frozenset(range(three_queue_instance.m)),))
        b_sol = decomposition_to_processing(three_queue_instance, decomposition)
        report = replay(three_queue_instance, b_sol)
        assert report.valid and report.max_open <= three_queue_instance.m

    def test_decomposition_to_processing_two_queue_instance(self, two_queue_instance):
        decomposition = processing_to_decomposition(two_queue_instance, BinSolution(TWO_QUEUE_PROCESSING))
        b_sol = decomposition_to_processing(two_queue_instance, decomposition)
        assert replay(two_queue_instance, b_sol).max_open <= 3

    def test_invalid_decomposition_rejected(self, three_queue_instance):
        with pytest.raises(ValueError, match="invalid"):
            decomposition_to_processing(three_queue_instance, bags_of(three_queue_instance, "a"))

    @pytest.mark.parametrize("seed", range(25))
    def test_decomposition_bridges_random(self, seed):
        from fifo_stackup import solve_min_places

        inst = small_instance(seed)
        places, b_sol, _ = solve_min_places(inst)
        decomposition = processing_to_decomposition(inst, b_sol)
        assert decomposition.width == places - 1
        back = decomposition_to_processing(inst, decomposition)
        assert replay(inst, back).max_open <= decomposition.width + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_decomposition_bridges_random_processings(self, seed):
        inst = small_instance(seed)
        rng = SplitMix64(seed * 17 + 5)
        decomposition = processing_to_decomposition(inst, BinSolution(random_fifo_order(inst, rng)))
        report = replay(inst, decomposition_to_processing(inst, decomposition))
        assert report.valid and report.max_open <= decomposition.width + 1

    @pytest.mark.parametrize("seed", range(20))
    def test_arc_semantics_on_random_processings(self, seed):
        inst = small_instance(seed, min_bins=1)
        graph = build_sequence_graph(inst)
        rng = SplitMix64(seed * 13 + 1)
        moves = random_fifo_order(inst, rng)
        positions = [0] * inst.k
        first_removal = {}
        last_removal = {}
        for step, (j, _) in enumerate(moves):
            t = inst.sequences[j][positions[j]]
            positions[j] += 1
            first_removal.setdefault(t, step)
            last_removal[t] = step
        for u, v in graph.arcs:
            assert first_removal[u] < last_removal[v]


class TestDigraphIO:
    def test_parse_and_emit_round_trip(self, ring_digraph):
        text = emit_digraph(ring_digraph)
        assert emit_digraph(parse_digraph(text)) == text

    # Legal symbols (``vertex`` among them) most of the time, a few illegal
    # ones, separators from every whitespace class split() cuts at (\x1c and
    # \x85 also end a line for splitlines), and three line endings.
    FUZZ_SYMBOLS = ("a", "b", "c", "x_1", "Z9", "vertex")
    FUZZ_ILLEGAL = ("é", "a-b", "x.y", "#", "a#")
    FUZZ_SPACES = (" ", "  ", "\t", " \t", "\x1c", "\x85", "\xa0", "\u3000", "\x0b")
    FUZZ_ENDINGS = ("\n", "\r\n", "\r")

    @classmethod
    def fuzzed_text(cls, rng):
        def pick(options):
            return options[rng.below(len(options))]

        def token():
            return pick(cls.FUZZ_ILLEGAL if not rng.below(30) else cls.FUZZ_SYMBOLS)

        def space():
            return pick(cls.FUZZ_SPACES) if rng.below(4) else ""

        text = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.below(10)
            if kind == 0:
                line = space()
            elif kind == 1:
                line = f"{space()}# {token()} {token()}"
            elif kind == 2:
                line = f"vertex{pick(cls.FUZZ_SPACES)}{token()}"
            elif kind == 3:
                name = token()
                line = f"{name}{pick(cls.FUZZ_SPACES)}{name}"
            else:
                count = (1, 3)[rng.below(2)] if not rng.below(15) else 2
                line = pick(cls.FUZZ_SPACES).join(token() for _ in range(count))
            text.append(f"{space()}{line}{space()}{pick(cls.FUZZ_ENDINGS)}")
        return "".join(text)

    def test_parse_agrees_with_the_reference(self):
        """The one-pattern parser gives the graph (names, numbering and arcs)
        or the error message that the split-and-check parser gave."""
        rng = SplitMix64(27)
        seen = set()
        for _ in range(5_000):
            text = self.fuzzed_text(rng)
            expected = outcome(reference_parse_digraph, text)
            assert outcome(parse_digraph, text) == expected, text
            seen.add(expected[1].split()[2] if isinstance(expected, tuple) else "graph")
        assert seen == {"graph", "expected", "illegal", "reserved", "self-loop"}

    def test_parse_isolated_vertices(self):
        graph = parse_digraph("# two parts\na b\nvertex z\n")
        assert set(graph.names) == {"a", "b", "z"}
        assert graph.arc_names() == {("a", "b")}

    def test_parse_rejects_self_loop(self):
        with pytest.raises(DigraphFormatError, match="line 1"):
            parse_digraph("a a\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(DigraphFormatError, match="line 2"):
            parse_digraph("a b\na b c\n")

    @pytest.mark.parametrize("text", ["a b\nvertex vertex\n", "a b\na vertex\n"])
    def test_parse_rejects_reserved_name(self, text):
        with pytest.raises(DigraphFormatError, match="line 2: reserved vertex name 'vertex'"):
            parse_digraph(text)

    @pytest.mark.parametrize("arcs, isolated, bad", [
        ([("a", "x y")], (), "x y"),  # parse_digraph rejects the line it would write
        ([("a", "b")], ("c-d", "vertex"), "c-d"),
        ([("é", "b")], (), "é"),
        ([], ("",), ""),
    ])
    def test_emit_rejects_unwritable_name(self, arcs, isolated, bad):
        graph = Digraph.from_named_arcs(arcs, isolated)
        with pytest.raises(ValueError, match=f"illegal vertex name {bad!r}"):
            emit_digraph(graph)

    def test_emit_rejects_reserved_name(self):
        graph = Digraph.from_named_arcs([("a", "vertex")])
        with pytest.raises(ValueError, match="reserved"):
            emit_digraph(graph)

    def test_duplicate_arcs_collapse(self):
        graph = parse_digraph("a b\na b\n")
        assert len(graph.arcs) == 1

    def test_self_loop_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(("a",), frozenset({(0, 0)}))

    def test_dot_outputs_are_deterministic(self, ring_digraph, three_queue_instance):
        assert digraph_to_dot(ring_digraph) == digraph_to_dot(ring_digraph)
        # same graph built with a different arc order serializes identically
        shuffled = Digraph.from_named_arcs(
            sorted(ring_digraph.arc_names(), reverse=True))
        assert digraph_to_dot(shuffled) == digraph_to_dot(ring_digraph)
        decomposition = processing_to_decomposition(three_queue_instance, BinSolution(THREE_QUEUE_PROCESSING))
        graph = build_sequence_graph(three_queue_instance)
        first = decomposition_to_dot(graph, decomposition)
        assert first == decomposition_to_dot(graph, decomposition)
        assert first.startswith("digraph")

    @pytest.mark.parametrize("name, quoted", [('a"b', 'a\\"b'), ("a\\b", "a\\\\b")])
    def test_dot_escapes_names(self, name, quoted):
        """A quote or backslash in a name is escaped in every DOT id and label."""
        graph = Digraph.from_named_arcs([(name, "c")])
        assert digraph_to_dot(graph) == (
            f'digraph G {{\n  "{quoted}";\n  "c";\n  "{quoted}" -> "c";\n}}\n')
        decomposition = DirectedPathDecomposition((frozenset({0}), frozenset({1})))
        assert decomposition_to_dot(graph, decomposition) == (
            "digraph decomposition {\n"
            "  subgraph cluster_1 {\n"
            '    label="X1";\n'
            f'    "b1_{quoted}" [label="{quoted}"];\n'
            "  }\n"
            "  subgraph cluster_2 {\n"
            '    label="X2";\n'
            '    "b2_c" [label="c"];\n'
            "  }\n"
            f'  "b1_{quoted}" -> "b2_c";\n'
            "}\n")

    @staticmethod
    def dot_by_name_search(graph, decomposition):
        """The plain rendering: each arc looks its endpoints up in the name list."""
        alpha, _ = decomposition.intervals()
        lines = ["digraph decomposition {"]
        for i, bag in enumerate(decomposition.bags, start=1):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="X{i}";')
            for name in sorted(graph.names[v] for v in bag):
                lines.append(f'    "b{i}_{name}" [label="{name}"];')
            lines.append("  }")
        for u, v in sorted(graph.arc_names()):
            iu = alpha[graph.names.index(u)]
            iv = alpha[graph.names.index(v)]
            lines.append(f'  "b{iu}_{u}" -> "b{iv}_{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def test_decomposition_dot_matches_name_search(self):
        """Random digraphs with 1-10 vertices and shuffled names, with the
        decompositions dpw_exact finds for them."""
        rng = SplitMix64(77)
        for _ in range(300):
            n = 1 + rng.below(10)
            names = [f"{'xyz'[rng.below(3)]}{i}" for i in range(n)]
            rng.shuffle(names)
            arcs = frozenset((u, v) for u in range(n) for v in range(n)
                             if u != v and rng.below(100) < 30)
            graph = Digraph(tuple(names), arcs)
            decomposition = dpw_exact(graph).decomposition
            assert decomposition_to_dot(graph, decomposition) == self.dot_by_name_search(
                graph, decomposition)

    def test_decomposition_dot_long_path_is_fast(self):
        import time

        n = 20_000
        graph = Digraph(tuple(f"v{i}" for i in range(n)),
                        frozenset((i, i + 1) for i in range(n - 1)))
        decomposition = DirectedPathDecomposition(tuple(frozenset((i,)) for i in range(n)))
        start = time.perf_counter()
        text = decomposition_to_dot(graph, decomposition)
        assert time.perf_counter() - start < 2.0
        assert text.count(" -> ") == n - 1
