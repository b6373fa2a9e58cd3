"""Sequence graphs, the queue-system reduction, and directed path-decompositions."""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record
from .errors import DigraphFormatError, InadmissibleDigraphError
from .instance import SYMBOL_RE, Instance
from .solutions import BinSolution, PalletSolution, open_set_trace, transform


class Digraph(Record):
    """Directed graph with named, densely indexed vertices.

    Arcs are ordered index pairs; self-loops and parallel duplicates are
    excluded by construction.
    """

    names: tuple[str, ...]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate vertex names")
        n = len(self.names)
        for u, v in self.arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) references an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {self.names[u]!r}")

    @classmethod
    def from_named_arcs(
        cls,
        arcs: Iterable[tuple[str, str]],
        isolated: Iterable[str] = (),
    ) -> "Digraph":
        """Number the vertices in order of first appearance: arc endpoints,
        then the ``isolated`` names."""
        arcs = list(arcs)
        interned: dict[str, int] = {}
        for u, v in arcs:
            interned.setdefault(u, len(interned))
            interned.setdefault(v, len(interned))
        for w in isolated:
            interned.setdefault(w, len(interned))
        return cls(tuple(interned), frozenset((interned[u], interned[v]) for u, v in arcs))

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    def arc_names(self) -> frozenset[tuple[str, str]]:
        return frozenset((self.names[u], self.names[v]) for u, v in self.arcs)

    def degrees(self) -> tuple[list[int], list[int]]:
        """(in-degree, out-degree) arrays."""
        indeg = [0] * self.vertex_count
        outdeg = [0] * self.vertex_count
        for u, v in self.arcs:
            outdeg[u] += 1
            indeg[v] += 1
        return indeg, outdeg


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph text format: one ``<u> <v>`` arc per line, isolated
    vertices declared as ``vertex <u>``, comments starting with ``#``.
    ``vertex`` is reserved and cannot name a vertex."""
    arcs: list[tuple[str, str]] = []
    isolated: list[str] = []
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
    return Digraph.from_named_arcs(arcs, isolated)


def emit_digraph(graph: Digraph) -> str:
    """Serialize a digraph in the format accepted by parse_digraph, sorted;
    a name that format cannot hold, or ``vertex``, which it reserves, raises
    ValueError."""
    for name in graph.names:
        if SYMBOL_RE.fullmatch(name) is None:
            raise ValueError(f"illegal vertex name {name!r} for the digraph format")
    if "vertex" in graph.names:
        raise ValueError("vertex name 'vertex' is reserved in the digraph format")
    indeg, outdeg = graph.degrees()
    lines = [
        f"vertex {graph.names[v]}"
        for v in sorted(range(graph.vertex_count), key=lambda v: graph.names[v])
        if indeg[v] == 0 and outdeg[v] == 0
    ]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.arc_names()))
    return "\n".join(lines) + "\n" if lines else ""


def _dot_escape(name: str) -> str:
    """A name as the inside of a DOT quoted string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def digraph_to_dot(graph: Digraph) -> str:
    """Deterministic DOT rendering: vertices and arcs sorted by name."""
    lines = ["digraph G {"]
    for name in sorted(graph.names):
        lines.append(f'  "{_dot_escape(name)}";')
    for u, v in sorted(graph.arc_names()):
        lines.append(f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


class DirectedPathDecomposition(Record):
    """Ordered bags of vertex indices; width is the largest bag size minus one."""

    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(bag) for bag in self.bags), default=0) - 1

    def intervals(self) -> tuple[dict[int, int], dict[int, int]]:
        """First and last 1-based bag index holding each vertex."""
        alpha: dict[int, int] = {}
        beta: dict[int, int] = {}
        for i, bag in enumerate(self.bags, start=1):
            for v in bag:
                alpha.setdefault(v, i)
                beta[v] = i
        return alpha, beta


class DecompositionCheck(Record):
    ok: bool
    width: int | None = None
    violation: str | None = None
    witness: object | None = None


def validate_decomposition(graph: Digraph, decomposition: DirectedPathDecomposition) -> DecompositionCheck:
    """Check the three decomposition properties against a digraph.

    Returns the width on success, otherwise the first violated property with
    a witness: a missing vertex (dpw-1), an uncovered arc (dpw-2), or a
    vertex whose bag indices are not contiguous (dpw-3).
    """
    bags = decomposition.bags
    mentioned = set().union(*bags) if bags else set()
    vertices = set(range(graph.vertex_count))
    if not mentioned <= vertices:
        raise ValueError(f"bags reference unknown vertex ids {sorted(mentioned - vertices)}")
    missing = vertices - mentioned
    if missing:
        return DecompositionCheck(False, violation="dpw-1", witness=graph.names[min(missing)])
    occurrences: dict[int, int] = {}
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


def build_sequence_graph(inst: Instance) -> Digraph:
    """Digraph on pallets with an arc u -> v when some queue has a u-bin
    strictly left of a v-bin.

    A single left-to-right sweep per queue keeps the set of pallets seen so
    far and emits arcs into a deduplicating set.
    """
    arcs: set[tuple[int, int]] = set()
    for seq in inst.sequences:
        seen: set[int] = set()
        for t in seq:
            for u in seen:
                if u != t:
                    arcs.add((u, t))
            seen.add(t)
    return Digraph(inst.symbols, frozenset(arcs))


def admissibility_violations(graph: Digraph) -> tuple[str, ...]:
    """Vertex names lacking an incoming or an outgoing arc (isolated included)."""
    indeg, outdeg = graph.degrees()
    return tuple(
        graph.names[v]
        for v in range(graph.vertex_count)
        if indeg[v] == 0 or outdeg[v] == 0
    )


def strip_endpoints(graph: Digraph) -> tuple[Digraph, tuple[tuple[str, str], ...]]:
    """Iteratively remove vertices lacking in- or out-arcs.

    Returns the remaining core and the removal log as (name, kind) pairs with
    kind one of ``source``, ``sink``, ``isolated``.  Each round removes the
    lowest-indexed such vertex.  Each removal is width-neutral: a source fits
    in a singleton bag prepended to any decomposition of the rest, a sink in
    one appended.  Degrees are kept as arcs leave, so a run takes
    O((n + |E|) log n).
    """
    import heapq  # here, so that the other graph commands do not load it

    names = graph.names
    successors: list[list[int]] = [[] for _ in names]
    predecessors: list[list[int]] = [[] for _ in names]
    for u, v in graph.arcs:
        successors[u].append(v)
        predecessors[v].append(u)
    indeg, outdeg = graph.degrees()
    alive = [True] * len(names)
    # a min-heap of the vertices lacking in- or out-arcs, pushed whenever a
    # degree drops to 0; a removed vertex that comes up again is skipped
    bad = [v for v in range(len(names)) if not indeg[v] or not outdeg[v]]
    removals: list[tuple[str, str]] = []
    while bad:
        v = heapq.heappop(bad)
        if not alive[v]:
            continue
        alive[v] = False
        if indeg[v] == 0 and outdeg[v] == 0:
            kind = "isolated"
        elif indeg[v] == 0:
            kind = "source"
        else:
            kind = "sink"
        removals.append((names[v], kind))
        for w in successors[v]:
            indeg[w] -= 1
            if not indeg[w] and alive[w]:
                heapq.heappush(bad, w)
        for u in predecessors[v]:
            outdeg[u] -= 1
            if not outdeg[u] and alive[u]:
                heapq.heappush(bad, u)
    remaining = [v for v in range(len(names)) if alive[v]]
    remap = {v: i for i, v in enumerate(remaining)}
    core = Digraph(
        tuple(names[v] for v in remaining),
        frozenset((remap[a], remap[b]) for a, b in graph.arcs if alive[a] and alive[b]),
    )
    return core, tuple(removals)


def reduce_digraph_to_queues(graph: Digraph) -> Instance:
    """Queue system of a digraph: one two-bin queue [u, v] per arc (u, v).

    The sequence graph of the result equals the input graph.  Requires every
    vertex to have an incoming and an outgoing arc; ``strip_endpoints``
    removes offending vertices first (width-neutral).
    """
    bad = admissibility_violations(graph)
    if bad:
        raise InadmissibleDigraphError(
            "vertices without both incoming and outgoing arcs: "
            + ", ".join(sorted(bad)))
    if not graph.arcs:
        raise InadmissibleDigraphError("digraph has no arcs; nothing to reduce")
    queues = [[graph.names[u], graph.names[v]] for u, v in sorted(graph.arcs)]
    return Instance.from_pallet_lists(queues)


def processing_to_decomposition(inst: Instance, b_sol: BinSolution) -> DirectedPathDecomposition:
    """Decomposition read off a processing: the open-pallet sets after each
    step become the bags (empty bags retained).

    The result is validated against the sequence graph; its width equals the
    processing's peak open count minus one.  Fails for instances with
    single-bin pallets, which never open and therefore never enter a bag.
    """
    trace = open_set_trace(inst, b_sol)
    decomposition = DirectedPathDecomposition(tuple(trace))
    check = validate_decomposition(build_sequence_graph(inst), decomposition)
    if not check.ok:
        raise ValueError(
            f"processing does not induce a valid decomposition "
            f"({check.violation}, witness {check.witness!r})")
    return decomposition


def decomposition_to_processing(inst: Instance, decomposition: DirectedPathDecomposition) -> BinSolution:
    """Processing guided by a decomposition: ``transform`` of the pallets
    ordered by their first bag, ties by pallet id.

    The replayed peak open count is at most the decomposition's width plus
    one.  While the fronts drain after v joins the order, every open pallet
    is v or an earlier pallet u, and a bin of u was held back by the front
    bin of an in-neighbour w that is v or later; alpha(u) <= alpha(v) <=
    alpha(w) <= beta(u) then puts u in bag alpha(v).
    """
    check = validate_decomposition(build_sequence_graph(inst), decomposition)
    if not check.ok:
        raise ValueError(
            f"decomposition invalid for the sequence graph "
            f"({check.violation}, witness {check.witness!r})")
    alpha, _ = decomposition.intervals()
    order = sorted(range(inst.m), key=lambda t: (alpha[t], t))
    return transform(inst, PalletSolution(tuple(order)))


def decomposition_to_dot(graph: Digraph, decomposition: DirectedPathDecomposition) -> str:
    """Deterministic DOT rendering of a decomposition: bags as clusters,
    arcs drawn between the first bags holding their endpoints."""
    alpha, _ = decomposition.intervals()
    index = {name: v for v, name in enumerate(graph.names)}
    lines = ["digraph decomposition {"]
    for i, bag in enumerate(decomposition.bags, start=1):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="X{i}";')
        for name in sorted(graph.names[v] for v in bag):
            quoted = _dot_escape(name)
            lines.append(f'    "b{i}_{quoted}" [label="{quoted}"];')
        lines.append("  }")
    for u, v in sorted(graph.arc_names()):
        lines.append(f'  "b{alpha[index[u]]}_{_dot_escape(u)}" -> '
                     f'"b{alpha[index[v]]}_{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
