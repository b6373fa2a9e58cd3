"""Seeded corpora, verdicts and answer checks for the four workloads.

A verdict is what ``fifo-stackup solve|dpw`` does: parse the input text,
solve it, then replay the witness or certify the decomposition. Checks
against expected answers are separate functions, run outside the timed
region.

Corpora are stratified. Each workload fixes how many inputs fall in each
size class (queue count and grid size, vertex count or arc count), and the
seed only picks the inputs inside a class. That keeps the total work, the
median and the 90th percentile of one corpus close to those of any other
seed, so that runs on different seeds can be compared.

Every workload stays far below the configuration DP's memory wall: no
input has between 10^6 and 5*10^7 grid configurations, where the seed's DP
exhausts a 7 GB machine before its budget guard trips. The frontier inputs
lie above the guards (17 vertices for ``dpw_exact``, 3^17 configurations
for ``dpw_via_stackup``), so they trip before anything is allocated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field


class WrongAnswer(Exception):
    """An answer or witness that does not match what is expected."""


@dataclass
class Item:
    """One verdict input: the text the program reads, plus work counts the
    benchmark derives from it (grid configurations of the DP, 2^n subsets of
    ``dpw_exact``)."""

    key: str
    kind: str  # "instance" or "digraph"
    text: str
    configs: int = 0
    subsets: int = 0
    argv: tuple[str, ...] = ()
    exit_codes: tuple[int, ...] = (0,)
    file: str = ""
    answers: set = field(default_factory=set)


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_configs(inst) -> int:
    return math.prod(len(seq) + 1 for seq in inst.sequences)


def _instance_item(fs, inst) -> Item:
    text = fs.emit_instance(inst)
    return Item(fingerprint(text), "instance", text, configs=grid_configs(inst))


def _digraph_item(fs, graph, *, exact: bool) -> Item:
    text = fs.emit_digraph(graph)
    item = Item(fingerprint(text), "digraph", text)
    if exact:
        item.subsets = 2 ** graph.vertex_count
    else:
        item.configs = 3 ** len(graph.arcs)
    return item


# --- corpora ---------------------------------------------------------------

# (queues, smallest grid, largest grid, count). Queue count sets the cost per
# configuration, so each class has one queue count and a narrow grid band.
# One pass costs about 3 s, so a 30-s run has ten passes per input.
STACKUP_CLASSES = ((3, 900, 1_100, 35), (4, 1_800, 2_200, 30),
                   (5, 4_500, 5_500, 20), (6, 7_200, 8_800, 15))
STACKUP_TINY = ((3, 100, 600, 2), (4, 300, 1_500, 2))


def stackup_corpus(fs, seed: int, tiny: bool):
    rng = fs.SplitMix64(seed)
    items = []
    for queues, low, high, count in STACKUP_TINY if tiny else STACKUP_CLASSES:
        taken = 0
        while taken < count:
            spec = fs.GenSpec(pallets=rng.randint(12, 16), queues=queues, seed=rng.next_u64())
            inst = fs.generate_instance(spec)
            if low <= grid_configs(inst) <= high:
                items.append(_instance_item(fs, inst))
                taken += 1
    return items, []


# vertex count -> count. Every corpus has 100 inputs, and its median and 90th
# percentile fall inside a class rather than on the edge between two. One
# pass costs about 3 s.
SUBSET_CLASSES = {10: 20, 11: 20, 12: 20, 13: 20, 14: 12, 15: 5, 16: 3}
SUBSET_TINY = {8: 2, 9: 2}
SUBSET_FRONTIER = 17  # one above the seed's max_vertices guard


def dpw_subset_corpus(fs, seed: int, tiny: bool):
    rng = fs.SplitMix64(seed)

    def graph(n):
        return _digraph_item(fs, fs.random_admissible_digraph(n, seed=rng.next_u64()), exact=True)

    classes = SUBSET_TINY if tiny else SUBSET_CLASSES
    items = [graph(n) for n, count in classes.items() for _ in range(count)]
    frontier = [graph(SUBSET_FRONTIER) for _ in range(1 if tiny else 2)]
    return items, frontier


# arc count -> count. The reduction builds one two-bin queue per arc, so the
# grid has exactly 3^|E| configurations. One pass costs about 3 s.
REDUCED_CLASSES = {5: 30, 6: 30, 7: 20, 8: 15, 9: 5}
REDUCED_TINY = {4: 2, 5: 2}
REDUCED_FRONTIER = (10, 17)  # vertices, at least this many arcs: 3^17 > 5e7


def _admissible_with_arcs(fs, rng, vertices_range, arcs_ok):
    while True:
        vertices = rng.randint(*vertices_range)
        graph = fs.random_admissible_digraph(
            vertices, extra_arc_attempts=2 * vertices, seed=rng.next_u64())
        if arcs_ok(len(graph.arcs)):
            return graph


def dpw_reduced_corpus(fs, seed: int, tiny: bool):
    rng = fs.SplitMix64(seed)
    items = []
    for arcs, count in (REDUCED_TINY if tiny else REDUCED_CLASSES).items():
        for _ in range(count):
            graph = _admissible_with_arcs(
                fs, rng, (max(3, (arcs + 2) // 3), arcs), lambda e, arcs=arcs: e == arcs)
            items.append(_digraph_item(fs, graph, exact=False))
    vertices, min_arcs = REDUCED_FRONTIER
    graph = _admissible_with_arcs(fs, rng, (vertices, vertices), lambda e: e >= min_arcs)
    return items, [_digraph_item(fs, graph, exact=False)]


CLI_INSTANCES = 20  # three calls each
CLI_DIGRAPHS = ((5, 7, 5), (9, 9, 15))  # (fewest arcs, most arcs, count); two calls each


def cli_corpus(fs, seed: int, tiny: bool):
    """Small inputs; the calls are attached once the expected answers are
    known, because ``solve -p`` asks once at and once below the minimum.

    Most calls cost little beyond start-up, so without heavier ones the 90th
    percentile would measure only the machine's noise: the 15 stack-up calls
    on 9-arc digraphs (3^9 configurations) are the top 15 of 100."""
    rng = fs.SplitMix64(seed)
    instances, digraphs = (1, ((5, 7, 1),)) if tiny else (CLI_INSTANCES, CLI_DIGRAPHS)
    items = []
    for _ in range(instances):
        spec = fs.GenSpec(pallets=rng.randint(6, 8), queues=rng.randint(2, 3), seed=rng.next_u64())
        items.append(_instance_item(fs, fs.generate_instance(spec)))
    for low, high, count in digraphs:
        for _ in range(count):
            graph = _admissible_with_arcs(fs, rng, (3, 6), lambda e: low <= e <= high)
            item = _digraph_item(fs, graph, exact=True)
            item.configs = 3 ** len(graph.arcs)
            items.append(item)
    return items, []


def cli_calls(inputs, expected):
    """Expand written inputs into one Item per CLI call."""
    calls = []
    for item in inputs:
        if item.kind == "instance":
            best = expected[item.key]
            variants = ((("solve", "--min", "--json"), (0,), item.configs, 0),
                        (("solve", "-p", str(best), "--json"), (0,), item.configs, 0),
                        (("solve", "-p", str(best - 1), "--json"), (1,), item.configs, 0))
        else:
            variants = ((("dpw", "--json", "--method", "subset"), (0,), 0, item.subsets),
                        (("dpw", "--json", "--method", "stackup"), (0,), item.configs, 0))
        for argv, codes, configs, subsets in variants:
            calls.append(Item(item.key, item.kind, item.text, configs, subsets,
                              argv=(*argv, item.file), exit_codes=codes, file=item.file))
    return calls


# --- verdicts (timed) --------------------------------------------------------

def verdict_solve(api, item):
    inst = api.parse_instance(item.text)
    places, bins, _ = api.solve_min_places(inst)
    return inst, places, bins, api.replay(inst, bins)


def verdict_dpw_exact(api, item):
    graph = api.parse_digraph(item.text)
    return graph, api.dpw_exact(graph)


def verdict_dpw_stackup(api, item):
    graph = api.parse_digraph(item.text)
    return graph, api.dpw_via_stackup(graph)


# --- checks (untimed) --------------------------------------------------------

def check_solve(fs, item, outcome) -> int:
    _, places, _, report = outcome
    if not report.valid or report.max_open != places:
        raise WrongAnswer(f"{item.key}: witness replays {report.valid}/{report.max_open}, "
                          f"solver said {places}")
    return places


def check_dpw(fs, item, outcome) -> int:
    graph, result = outcome
    check = fs.validate_decomposition(graph, result.decomposition)
    if not check.ok or check.width != result.width:
        raise WrongAnswer(f"{item.key}: decomposition {check.violation}, "
                          f"width {check.width} vs {result.width}")
    return result.width


def check_cli(fs, item, code: int, stdout: str) -> int:
    """Answer of one CLI call whose exit code is one it may return."""
    try:
        return _check_cli_payload(fs, item, code, json.loads(stdout))
    except (KeyError, TypeError, ValueError) as exc:
        raise WrongAnswer(f"{item.key} {item.argv}: malformed output ({exc!r})") from None


def _check_cli_payload(fs, item, code: int, payload: dict) -> int:
    if item.kind == "instance":
        inst = fs.parse_instance(item.text)
        places = payload["min_places"]
        report = fs.replay(inst, fs.BinSolution(tuple(map(tuple, payload["bin_solution"]))))
        if not report.valid or report.max_open != places or payload["max_open"] != places:
            raise WrongAnswer(f"{item.key} {item.argv}: witness does not replay to {places}")
        if item.argv[1] == "-p" and (code == 0) != (places <= int(item.argv[2])):
            raise WrongAnswer(f"{item.key} {item.argv}: exit {code} with minimum {places}")
        return places
    graph = fs.parse_digraph(item.text)
    index = {name: v for v, name in enumerate(graph.names)}
    bags = tuple(frozenset(index[name] for name in bag) for bag in payload["bags"])
    check = fs.validate_decomposition(graph, fs.DirectedPathDecomposition(bags))
    if not check.ok or check.width != payload["width"]:
        raise WrongAnswer(f"{item.key} {item.argv}: decomposition {check.violation}")
    return payload["width"]


# --- expected answers: a second route ---------------------------------------

def _reverse(fs, graph):
    return fs.Digraph(graph.names, frozenset((v, u) for u, v in graph.arcs))


def second_route(fs, item) -> int:
    """Expected answer by a route the verdict does not take.

    Instances: directed pathwidth of the sequence graph plus one. Digraphs:
    ``dpw_exact`` on the reversed graph, whose pathwidth is the same (reverse
    the bag order), with the guard raised to the frontier size.
    """
    if item.kind == "instance":
        graph = fs.build_sequence_graph(fs.parse_instance(item.text))
        return fs.dpw_exact(graph, max_vertices=SUBSET_FRONTIER).width + 1
    graph = _reverse(fs, fs.parse_digraph(item.text))
    return fs.dpw_exact(graph, max_vertices=SUBSET_FRONTIER).width


def first_route(fs, item) -> int:
    """The answer by the route the verdict takes, or by ``dpw_exact`` where
    the verdict's route is over its guard (the frontier)."""
    if item.kind == "instance":
        return fs.solve_min_places(fs.parse_instance(item.text))[0]
    graph = fs.parse_digraph(item.text)
    if item.configs and item.configs <= fs.processing.DEFAULT_CONFIGURATION_BUDGET:
        return fs.dpw_via_stackup(graph).width
    return fs.dpw_exact(graph, max_vertices=SUBSET_FRONTIER).width


@dataclass(frozen=True)
class Workload:
    corpus: object
    verdict: object
    check: object


WORKLOADS = {
    "stackup_queues": Workload(stackup_corpus, verdict_solve, check_solve),
    "dpw_subset": Workload(dpw_subset_corpus, verdict_dpw_exact, check_dpw),
    "dpw_reduced": Workload(dpw_reduced_corpus, verdict_dpw_stackup, check_dpw),
    "cli_roundtrip": Workload(cli_corpus, None, None),
}
