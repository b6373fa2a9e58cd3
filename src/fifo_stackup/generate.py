"""Seeded generators for instances and admissible digraphs.

All randomness flows through splitmix64-v1 (the public-domain SplitMix64
generator), so a given seed produces byte-identical output on any platform
or language.
"""

from __future__ import annotations

from ._record import Record
from .instance import Instance
from .seqgraph import Digraph

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64-v1: tiny deterministic 64-bit PRNG."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class GenSpec(Record):
    """Parameters for a random instance.

    ``min_bins`` defaults to 2 so every pallet can open; pass 1 explicitly to
    allow single-bin pallets.
    """

    pallets: int
    queues: int
    min_bins: int = 2
    max_bins: int = 3
    seed: int = 0


def generate_instance(spec: GenSpec) -> Instance:
    """Deterministic random instance: per-pallet bin counts drawn from
    [min_bins, max_bins], bins shuffled and dealt into nonempty queues."""
    if spec.pallets < 1:
        raise ValueError("need at least one pallet")
    if spec.queues < 1:
        raise ValueError("need at least one queue")
    if not 1 <= spec.min_bins <= spec.max_bins:
        raise ValueError("need 1 <= min_bins <= max_bins")
    rng = SplitMix64(spec.seed)
    counts = [rng.randint(spec.min_bins, spec.max_bins) for _ in range(spec.pallets)]
    bins = [t for t, c in enumerate(counts) for _ in range(c)]
    if len(bins) < spec.queues:
        raise ValueError(
            f"infeasible spec: {len(bins)} bins cannot fill {spec.queues} nonempty queues")
    rng.shuffle(bins)
    gaps = list(range(1, len(bins)))
    rng.shuffle(gaps)
    cuts = sorted(gaps[: spec.queues - 1])
    bounds = [0, *cuts, len(bins)]
    names = [f"p{t + 1}" for t in range(spec.pallets)]
    queues = [[names[t] for t in bins[a:b]] for a, b in zip(bounds, bounds[1:])]
    return Instance.from_pallet_lists(queues)


def random_admissible_digraph(
    vertices: int,
    *,
    max_degree: int = 3,
    extra_arc_attempts: int | None = None,
    seed: int = 0,
) -> Digraph:
    """Random digraph where every vertex has in- and out-degree in [1, max_degree].

    A random permutation cycle guarantees admissibility; further random arcs
    are then added while respecting the degree cap.
    """
    if vertices < 2:
        raise ValueError("need at least two vertices for a loop-free admissible digraph")
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    rng = SplitMix64(seed)
    perm = list(range(vertices))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % vertices]) for i in range(vertices)}
    indeg = [1] * vertices
    outdeg = [1] * vertices
    attempts = 2 * vertices if extra_arc_attempts is None else extra_arc_attempts
    for _ in range(attempts):
        u = rng.below(vertices)
        v = rng.below(vertices)
        if u == v or (u, v) in arcs:
            continue
        if outdeg[u] >= max_degree or indeg[v] >= max_degree:
            continue
        arcs.add((u, v))
        outdeg[u] += 1
        indeg[v] += 1
    names = tuple(f"v{i + 1}" for i in range(vertices))
    return Digraph(names, frozenset(arcs))
