import pytest

from fifo_stackup import Digraph, GenSpec, Instance, SplitMix64, generate_instance


@pytest.fixture
def two_queue_instance():
    # two queues, five pallets; needs exactly three stack-up places
    return Instance.from_pallet_lists([list("aabb"), list("cdecadbe")])


@pytest.fixture
def three_queue_instance():
    # three queues whose sequence graph has a width-1 decomposition
    return Instance.from_pallet_lists([list("aaded"), list("bbd"), list("ccded")])


@pytest.fixture
def overlap_instance():
    # two queues with heavy pallet overlap between them
    return Instance.from_pallet_lists([list("abcabc"), list("defdefabc")])


@pytest.fixture
def ring_digraph():
    return Digraph.from_named_arcs(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("e", "f"), ("f", "a")])


# Reference processing of two_queue_instance: peaks at three open pallets.
TWO_QUEUE_PROCESSING = (
    (1, 1), (1, 2), (1, 3), (1, 4), (0, 1), (0, 2),
    (1, 5), (1, 6), (1, 7), (0, 3), (0, 4), (1, 8),
)

# Processing of three_queue_instance produced by opening pallets in order (a, b, c, d, e).
THREE_QUEUE_PROCESSING = (
    (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
    (0, 3), (1, 3), (2, 3), (0, 4), (0, 5), (2, 4), (2, 5),
)


def small_instance(seed, *, min_bins=2, max_pallets=5, max_queues=3, total_cap=12):
    """Deterministic small random instance for property suites."""
    rng = SplitMix64(seed * 1000003 + 17)
    m = 2 + rng.below(max_pallets - 1)
    k = 1 + rng.below(min(max_queues, m * min_bins))
    hi = max(min_bins, total_cap // m)
    spec = GenSpec(pallets=m, queues=k, min_bins=min_bins, max_bins=hi, seed=seed)
    return generate_instance(spec)


def tiny_instance(seed, *, min_bins=1):
    """Random instance with at most 10 bins, for brute-force oracles."""
    rng = SplitMix64(seed * 999331 + 5)
    m = 2 + rng.below(3)
    k = 1 + rng.below(3)
    spec = GenSpec(pallets=m, queues=k, min_bins=min_bins,
                   max_bins=max(2, 10 // m), seed=seed + 5000)
    return generate_instance(spec)


def random_fifo_order(inst, rng):
    """A uniform-ish random valid bin solution, as a move list."""
    positions = [0] * inst.k
    moves = []
    lengths = [len(seq) for seq in inst.sequences]
    while len(moves) < inst.n:
        open_queues = [j for j in range(inst.k) if positions[j] < lengths[j]]
        j = open_queues[rng.below(len(open_queues))]
        positions[j] += 1
        moves.append((j, positions[j]))
    return tuple(moves)


def sym_path(n):
    arcs = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    arcs += [(v, u) for u, v in arcs]
    return Digraph.from_named_arcs(arcs, names=[f"v{i}" for i in range(n)])


def sym_cycle(n):
    arcs = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    arcs += [(v, u) for u, v in arcs]
    return Digraph.from_named_arcs(arcs, names=[f"v{i}" for i in range(n)])


def sym_clique(n):
    arcs = [(f"v{i}", f"v{j}") for i in range(n) for j in range(n) if i != j]
    return Digraph.from_named_arcs(arcs, names=[f"v{i}" for i in range(n)])


def random_dag(rng, max_vertices=10):
    """Random vertex-valued DAG with designated source and target."""
    from fifo_stackup.oracles import ExplicitDag

    n = 2 + rng.below(max_vertices - 1)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < 40:
                arcs.append((i, j))
    values = {v: rng.below(11) for v in range(n)}
    return ExplicitDag(range(n), arcs, values, 0, n - 1)
