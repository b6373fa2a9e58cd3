"""Minimum stack-up places, and the minimax search under both exact solvers.

``solve_min_places`` searches the paper's decision configurations: those
where no front bin belongs to an open pallet.  Every other removal is forced
and never raises the open count, so a decision configuration is fixed by the
set S of pallets started so far, and one step opens a front pallet and
drains the fronts of open pallets.  The pallets open at S are the boundary
b(S) of S in the sequence graph, so the search is ``_minimax_order``, the
one ``pathwidth.dpw_exact`` runs, restricted to front pallets: the caller
hands it the pallets of each queue in first-occurrence order, and the
engine tells a front by the pallets ahead of it in its queue.  The search
starts at a proven lower bound on the peak, the degeneracy and two-vertex
bounds of the out-neighbours; see ``_minimax_order``.

The oracle it is checked against, the bottleneck dynamic program over the
whole configuration grid, ``opt_bottleneck(ConfigurationDag(inst))``, lives
in ``fifo_stackup.oracles``.  The configuration budget bounds that grid
product, not the number of states visited.
"""

from __future__ import annotations

from .errors import BudgetError
# build_pallet_index stays a module attribute: perfbench/spans.py wraps
# fifo_stackup.processing.build_pallet_index in traced runs.
from .instance import Instance, build_pallet_index  # noqa: F401
from .solutions import BinSolution, PalletSolution, transform

DEFAULT_CONFIGURATION_BUDGET = 50_000_000
# Guards of the brute forces in fifo_stackup.oracles and of the subset searches
# for directed pathwidth, kept here so the CLI can pass them as option defaults
# without loading the oracles or pathwidth.
DEFAULT_MAX_PALLETS = 8
DEFAULT_MAX_BINS = 10
DEFAULT_MAX_VERTICES = 16
# Up to this many vertices the search marks sets in a byte table of 2^n
# entries; above it, where zeroing the table costs more, in a dict.
_BYTE_TABLE_MAX_VERTICES = 21


def grid_size(inst: Instance, max_configurations: int = DEFAULT_CONFIGURATION_BUDGET) -> int:
    """Number of configurations, prod(|q_i| + 1); raises BudgetError above the budget."""
    count = 1
    for seq in inst.sequences:
        count *= len(seq) + 1
        if count > max_configurations:
            raise BudgetError(
                f"state space too large: more than {max_configurations} configurations")
    return count


def solve_min_places(
    inst: Instance, *, max_configurations: int = DEFAULT_CONFIGURATION_BUDGET
) -> tuple[int, BinSolution, PalletSolution]:
    """Minimum number of stack-up places over all processings, with witnesses.

    The search runs over the pallets with two or more bins; the in-neighbours
    of t are those with a bin before a t-bin in some queue, and its
    out-neighbours those with a bin after one.  A one-bin pallet never opens,
    and taking it from a front is forced like draining an open pallet, so the
    one-bin pallets are placed from the start.  A forward pass over each
    queue builds the in-masks and its pallets in first-occurrence order, from
    which the search keeps the front pallets; a backward pass builds the
    out-masks.  ``transform`` turns the order found, after the one-bin
    pallets, into the bin solution, and the pallet solution is its pallets by
    first removal.  The budget bounds the grid product before any search;
    the grid DP of ``ConfigurationDag`` has its own cap,
    ``oracles.MAX_GRID_CONFIGURATIONS``.
    """
    grid_size(inst, max_configurations)
    singles = sum(1 << t for t, count in enumerate(inst.bin_counts()) if count == 1)
    in_mask = [0] * inst.m
    out_mask = [0] * inst.m
    queues = []
    for seq in inst.sequences:
        seen = 0
        queue = []
        for t in seq:
            bit = 1 << t
            if not singles & bit:
                in_mask[t] |= seen & ~bit
                if not seen & bit:
                    queue.append(t)
                    seen |= bit
        queues.append(queue)
        later = 0
        for t in reversed(seq):
            bit = 1 << t
            if not singles & bit:
                out_mask[t] |= later & ~bit
                later |= bit
    peak, order = _minimax_order(in_mask, out_mask, singles, queues)
    order = [t for t in range(inst.m) if singles >> t & 1] + order
    bin_solution = transform(inst, PalletSolution(tuple(order)))
    sequences = inst.sequences
    opened = dict.fromkeys(sequences[j][pos - 1] for j, pos in bin_solution.moves)
    return peak + 1, bin_solution, PalletSolution(tuple(opened))


def _minimax_order(in_mask, out_mask, start=0, queues=None):
    """The least peak of |b(S)| over the vertex orders that place ``start``
    first, and the rest of one such order.

    ``in_mask[v]`` and ``out_mask[v]`` are the bitmasks of the in- and
    out-neighbours of vertex v.  The boundary b(S) holds the placed vertices
    with an unplaced in-neighbour; the peak of an order is the largest |b(S)|
    over its prefixes S before the last vertex, or -1 when no vertex is left
    to place.  The vertices of ``start`` have no in-neighbour outside it, so
    b(start) is empty.  Any unplaced vertex may come next unless ``queues``
    is given: ``queues[i]`` lists the vertices of queue i outside ``start``,
    each once, and only the front of each queue, its first vertex not in S,
    may come next.  Whether v heads a queue depends on S alone: every vertex
    ahead of v there is placed, a mask built once.  A stack entry carries the
    allowed mask of its parent and the vertex v placed last; at its pop v
    leaves the mask, and each queue v headed adds its next unplaced vertex.

    A minimax search over the sets S, with b(S) carried as a bitmask.
    Placing v drops from b(S) the vertices whose one unplaced in-neighbour is
    v, and adds v if it has an unplaced in-neighbour.  The cost of S is the
    peak |b| along the path that reached it, raised to the least out-degree
    h(S) of an unplaced vertex: the last vertex v of any completion of S is
    unplaced, and the prefix before it has boundary out(v).  h only grows with
    S.  Levels are costs, visited in increasing order from a start level
    that no order can beat, the bound below.  Sets whose cost is at most
    the level go on a stack, and costlier ones wait in a bucket per cost
    (Dial's buckets, not a heap).  A successor already seen is skipped
    before its boundary is computed.  One table, holding 1 + the vertex
    placed last, is both the seen mark and the witness link.

    Free moves: when placing v does not grow the boundary, |b(S + v)| <=
    |b(S)|, v is the only successor expanded from S.  This is sound because b
    is submodular.  For S within X and v not in X, placing v changes |b(X)| by
    D(X, v) = [in(v) not within X + v] - |{u in X : in(u) - X = {v}}|, whose
    first term can only fall and whose set can only grow as X grows, so
    D(X, v) <= D(S, v) <= 0.  Moving v forward to directly after S therefore
    never raises a later prefix, and some optimal ordering places v next.
    Both arguments hold under the restriction: a front stays a front while
    other vertices are placed, so placing v early disallows no vertex, and h
    bounds every order, allowed or not.

    The start level.  Let H be a set of unplaced vertices, and take any order.
    Let v be the last vertex of H placed, and w the vertex of H placed just
    before v.  Just before v, each out-neighbour of v in H is placed and waits
    on v, so the peak is at least d(v) = |out(v) & H|.  Just before w, each
    vertex of H - v - w is placed, and those in out(v) or out(w) wait on v or
    w, so the peak is at least |(out(v) | out(w)) & (H - v - w)|; v must be
    dropped too, because out(w) may hold v.  So the peak is at least the
    least, over v in H, of max(d(v), the least such pair count over w), which
    is at least the least d(v) (the degeneracy bound).  Both arguments hold
    for every order, so also under the front restriction.  ``_start_level``
    takes the bound along a peel chain: H starts as every unplaced vertex,
    whose least d(v) is h(start) because no arc enters ``start`` from
    outside, and the vertices with at most the level's out-neighbours in H
    leave it after each bound, until H has fewer than level + 2 vertices and
    cannot raise the level.  A search that starts at a bound still returns
    the least peak, and skips the levels where it would only prove that no
    order is better.
    """
    n = len(in_mask)
    full = (1 << n) - 1
    if start == full:
        return -1, []
    by_degree = sorted((mask.bit_count(), 1 << v) for v, mask in enumerate(out_mask))
    if queues is None:
        fronts = dict.fromkeys([1 << v for v in range(n)], ())
        allowed = full ^ start
    else:
        # per vertex bit, one triple per queue that holds it: the bits ahead
        # of it, the queue's bits ending in a 0 sentinel, the index after it
        fronts = {1 << v: [] for v in range(n)}
        allowed = 0
        for queue in queues:
            bits = [1 << v for v in queue] + [0]
            allowed |= bits[0]
            ahead = 0
            for p, bit in enumerate(bits[:-1], 1):
                fronts[bit].append((ahead, bits, p))
                ahead |= bit
    fronts[0] = ()  # the bit placed last at the start
    # 1 + the vertex placed last; 0 while unseen
    last = bytearray(1 << n) if n <= _BYTE_TABLE_MAX_VERTICES else _Links()
    buckets: list[list[tuple]] = [[] for _ in range(n + 1)]
    level = _start_level(out_mask, full ^ start)
    # (S, b(S), the parent's allowed mask, the bit placed last)
    stack = [(start, 0, allowed, 0)]
    while True:
        while stack:
            placed, boundary, allowed, bit = stack.pop()
            unplaced = full ^ placed
            allowed ^= bit
            for ahead, bits, p in fronts[bit]:
                if not ahead & unplaced:
                    while placed & bits[p]:
                        p += 1
                    allowed |= bits[p]
            single = -1  # set up at the first unseen successor
            moves = []
            rest = allowed
            while rest:
                bit = rest & -rest
                rest ^= bit
                successor = placed | bit
                if last[successor]:
                    continue
                if single < 0:
                    # boundary vertices with exactly one unplaced in-neighbour
                    # leave when that one is placed
                    size = boundary.bit_count()
                    single = 0
                    left = boundary
                    while left:
                        low = left & -left
                        left ^= low
                        waiting = in_mask[low.bit_length() - 1] & unplaced
                        if not waiting & (waiting - 1):
                            single |= low
                v = bit.bit_length() - 1
                grown = boundary ^ (single & out_mask[v])
                if in_mask[v] & unplaced:
                    grown |= bit
                if grown.bit_count() <= size:
                    moves = [(bit, successor, grown)]  # a free move: expand it alone
                    break
                moves.append((bit, successor, grown))
            if not moves:
                continue
            # h of a successor: the least out-degree h of an unplaced vertex,
            # or the next one up, h_after, when that vertex is the one placed
            first = h = h_after = 0
            for degree, bit in by_degree:
                if unplaced & bit:
                    if first:
                        h_after = degree
                        break
                    first, h = bit, degree
            for bit, successor, grown in moves:
                last[successor] = bit.bit_length()
                if successor == full:
                    order = []
                    while successor != start:
                        v = last[successor] - 1
                        order.append(v)
                        successor ^= 1 << v
                    order.reverse()
                    return level, order
                cost = grown.bit_count()
                bound = h_after if bit == first else h
                if bound > cost:
                    cost = bound
                (stack if cost <= level else buckets[cost]).append(
                    (successor, grown, allowed, bit))
        level += 1
        while not buckets[level]:
            level += 1
        stack = buckets[level]


def _start_level(out_mask, unplaced):
    """The level ``_minimax_order`` starts at: the two-vertex bound of its
    docstring over the sets H of a peel chain from ``unplaced``."""
    level = 0
    group = unplaced
    while group.bit_count() >= level + 2:
        # (degree in H, bit, out-neighbours in H), least degree first, so that
        # the w that fails a pair is met early
        rows = []
        rest = group
        while rest:
            bit = rest & -rest
            rest ^= bit
            near = out_mask[bit.bit_length() - 1] & group
            rows.append((near.bit_count(), bit, near))
        rows.sort()
        # the least over v of max(d(v), the least pair count of v and a w),
        # or at most the level when that is no gain
        best = len(rows)
        for degree, v, near in rows:
            if degree >= best:
                break
            floor = degree if degree > level else level
            low = best
            for _, w, other in rows:
                if w != v:
                    size = ((near | other) & ~(v | w)).bit_count()
                    if size < low:
                        low = size
                        if low <= floor:
                            break
            best = low if low > degree else degree
            if best <= level:
                break
        if best > level:
            level = best
        for degree, bit, _ in rows:
            if degree > level:
                break
            group ^= bit
    return level


class _Links(dict):
    """The link table above the byte-table size: a set not stored reads 0."""

    def __missing__(self, key):
        return 0
