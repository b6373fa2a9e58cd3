"""The level search both exact solvers run, and its input encoding.

``minimax_order`` is the search; its docstring states its rules and proves
them, and ``start_level`` is the lower bound it starts at.  ``arc_masks``
encodes a digraph as the masks the search reads.  ``pathwidth.dpw_exact``
runs the search on a digraph, back from the full set alone;
``processing.solve_min_places`` runs it on a sequence graph from both ends,
with the forward half restricted to front pallets and the backward half not.

This module is internal, like ``fifo_stackup.oracles``: it is not in the
package namespace, and is imported as ``fifo_stackup.search``.
"""

from __future__ import annotations

from .errors import InternalError

# Up to this many vertices each half marks its sets in a byte table of 2^n
# entries; above it, where zeroing the table costs more, in a dict.
BYTE_TABLE_MAX_VERTICES = 21


def arc_masks(graph) -> tuple[list[int], list[int]]:
    """Bitmasks of the in-neighbours and of the out-neighbours of each vertex;
    ``graph`` needs only ``vertex_count`` and ``arcs``."""
    in_mask = [0] * graph.vertex_count
    out_mask = [0] * graph.vertex_count
    for u, v in graph.arcs:
        in_mask[v] |= 1 << u
        out_mask[u] |= 1 << v
    return in_mask, out_mask


def minimax_order(in_mask, out_mask, start=0, queues=None):
    """The least peak of |b(S)| over the vertex orders that place ``start``
    first, and the rest of one such order.

    ``in_mask[v]`` and ``out_mask[v]`` are the bitmasks of the in- and
    out-neighbours of vertex v.  The boundary b(S) holds the placed vertices
    outside ``start`` with an unplaced in-neighbour, so b(start) is empty; the
    peak of an order is the largest |b(S)| over its prefixes S before the last
    vertex, or -1 when no vertex is left to place.  The masks may name
    vertices of ``start``: the search reads only the masks of unplaced and
    boundary vertices, and of those only the unplaced and boundary bits.  Any
    unplaced vertex may come next unless ``queues`` is given: then only the
    front of each queue, its first vertex not in S, may come next, and a
    vertex outside ``start`` and every queue, a caller's fault, raises
    InternalError.  A queue may repeat a vertex or hold ``start`` vertices;
    only first occurrences count.  With ``queues`` the masks must be the
    queues' sequence graph and ``start`` the one-bin pallets, as
    ``processing.solve_min_places`` passes them.  Whether v heads a queue
    depends on S alone: every vertex ahead of v there is placed, a mask built
    once.  A stack entry carries the allowed mask of its parent and the bit v
    placed last, 0 at the start, which heads every queue; at its pop v leaves
    the mask, and each queue v headed adds its next unplaced vertex.

    A minimax search over the sets S, with b(S) carried as a bitmask.  A
    forward step places v: it adds v unless in(v) is within S + v, and drops
    each u of out(v) & b(S) with in(u) within S + v, the only vertices that
    can lose their last unplaced in-neighbour.  The cost of S is |b(S)|.
    Levels are costs, visited in increasing order from a start level that no
    order can beat, the bound below.  Sets whose cost is at most the level go
    on a stack.  As b(S + v) is within b(S) + v, a forward step raises the
    cost by at most one, so a costlier set costs level + 1 and waits in one
    list, the next level's stack.  A successor already seen is skipped before
    its boundary is computed.  One table, holding 1 + the vertex placed last,
    is both the seen mark and the witness link.  The search is exact because a
    set's cost depends on the set alone: every path to S has a peak of at
    least |b(S)|, so skipping S when seen again loses no cheaper path to it.

    The backward half runs from the full set down: from a set T it takes out
    a vertex v of T - start, and the orders through T - v and T are those
    that place v just after T - v.  A vertex u of T - v - start is in
    b(T - v) when it is in b(T) or when v is an in-neighbour of u, so
    b(T - v) = (b(T) - v) | (out(v) & (T - v - start)), a few big-int
    operations and no loop over the boundary.  This step can raise the cost
    by up to |out(v)|, so a set that costs c above the level waits in the
    list for c, one list per cost (Dial's buckets).  With a single list, a
    set that costs level + 2 would be expanded at level + 1, on a path whose
    peak the level does not bound.  The backward side has its own table,
    holding 1 + the vertex placed just after T.

    Backward free moves: when |b(T - v)| <= |b(T)|, T - v is the only
    successor expanded from T.  This is sound because b is submodular.  For
    S within X and v not in X, placing v changes |b(X)| by D(X, v) =
    [in(v) not within X + v] - |{u in X - start : in(u) - X = {v}}|, whose
    first term can only fall and whose set can only grow as X grows, so
    D(X, v) <= D(S, v).  Take an order through T with every prefix at most
    the level, and any prefix X from where it places v up to T.  Then
    D(X - v, v) >= D(T - v, v) = |b(T)| - |b(T - v)| >= 0, so
    |b(X - v)| <= |b(X)|: moving v back to directly before T raises no prefix,
    and some such order passes T - v.  Moving v later can break a front,
    though, so the backward half runs without the front restriction, under
    which backward free moves would be unsound.

    Meeting: when a side pops a set that the other side has marked, the
    forward path from ``start`` to it and the backward path on to the full set
    join into one order.  Every set on it was popped at this level or before,
    so its peak is at most the level.  The check runs only at a pop, and that
    is enough: each side alone is a complete search at its level, and
    ``start`` and the full set are marked from the outset, so at a level that
    some order meets, no side runs out of sets before it pops a set the other
    side has marked.  The side with the smaller stack pops next, forward on a
    tie, and a level is refuted as soon as a side runs out of sets, so the
    sides meet at the least peak.  At a level change a side's stack keeps its
    sets and gains its list for the new level.  A side with nothing left, on
    its stack or waiting at any cost, would refute every later level with no
    work, and no peak reaches n; only a fault brings either about, and it
    raises InternalError.

    Which halves run: with no ``queues``, only the backward half, which
    then meets ``start``, the one set marked forward, at its pop; the order
    is the backward path.  It is the smaller half: a step back can raise the
    cost by up to |out(v)| and a step forward by one, so fewer sets near the
    full set stay under the level, and a forward half would only add pops.
    Under ``queues`` the forward half runs too, restricted to fronts: on few
    long queues that keeps the paper's fixed-k regime polynomial, where the
    backward half alone can store exponentially many sets.  It stays exact.
    Let R be the least peak of a restricted order and U that of any order,
    so R >= U.  By the argument of ``seqgraph.decomposition_to_processing``,
    ``transform`` turns an order of peak U into a processing with at most
    U + 1 pallets open at once (one-bin pallets never open).  The pallets
    open at a decision configuration are the boundary of the pallets
    started, so its opening order is a restricted order of peak at most U,
    and R = U.  A backward side that runs out at level L shows U > L, hence
    R > L, and a joined order of peak R replays at R + 1 places.

    The start level.  Let H be a set of unplaced vertices, and take any order.
    Let v be the last vertex of H placed: just before v, each out-neighbour
    of v in H is placed and waits on v, so the peak is at least the least
    d(v) = |out(v) & H| over v in H.  This holds for every order, so also
    under the front restriction, and the search starts at the largest such
    bound over the sets H, the out-degeneracy g.  ``start_level`` peels: H
    starts as every unplaced vertex, and each round raises the level to the
    least degree in H, then drops each vertex whose degree in what is left
    of H is at most the level, until H has fewer than level + 2 vertices.
    The level is always some H's least degree, so it never exceeds g.  Take
    an H* whose least degree is g: while the level is below g, no vertex of
    H* is dropped, so H keeps at least g + 1 >= level + 2 vertices and the
    peel goes on, and each round drops a vertex.  So the peel returns g, in
    whatever order the vertices are dropped.  A search that starts at a
    bound still returns the least peak, and skips the levels where it would
    only prove that no order is better.
    """
    n = len(in_mask)
    full = (1 << n) - 1
    if start == full:
        return -1, []
    back = bytearray(1 << n) if n <= BYTE_TABLE_MAX_VERTICES else _Links()
    last = bytearray(1 << n) if n <= BYTE_TABLE_MAX_VERTICES else _Links()
    stack = []
    if queues is not None:
        # per bit placed last (0 at the start), per queue holding it: the bits
        # ahead of it, the queue's first occurrences between 0s, the next index
        fronts = {bit: [] for bit in [0] + [1 << v for v in range(n)]}
        queued = start
        for queue in queues:
            bits = [0] + [1 << v for v in dict.fromkeys(queue)] + [0]
            ahead = 0
            for p, bit in enumerate(bits[:-1], 1):
                fronts[bit].append((ahead, bits, p))
                ahead |= bit
            queued |= ahead
        if queued != full:
            raise InternalError("a vertex outside start is in no queue")
        stack.append((start, 0, 0, 0))  # (S, b(S), parent's allowed mask, bit placed last)
    last[start] = back[full] = 1
    level = start_level(out_mask, full ^ start)
    later = []  # the sets that cost level + 1
    bstack = [(full, 0)]  # (T, b(T))
    waiting = {}  # cost above the level -> the backward sets that cost it
    while True:
        while bstack:
            if queues and len(stack) <= len(bstack):
                try:
                    placed, boundary, allowed, bit = stack.pop()
                except IndexError:  # the forward side ran out
                    break
                if back[placed]:
                    return level, _join(placed, last, back, start, full)
                unplaced = full ^ placed
                allowed ^= bit
                for ahead, bits, p in fronts[bit]:
                    if not ahead & unplaced:
                        while placed & bits[p]:
                            p += 1
                        allowed |= bits[p]
                rest = allowed
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    successor = placed | bit
                    if last[successor]:
                        continue
                    v = bit.bit_length() - 1
                    last[successor] = v + 1
                    grown = boundary | bit if in_mask[v] & unplaced else boundary
                    near = out_mask[v] & boundary
                    while near:
                        low = near & -near
                        near ^= low
                        if not in_mask[low.bit_length() - 1] & (unplaced ^ bit):
                            grown ^= low
                    if grown.bit_count() <= level:
                        stack.append((successor, grown, allowed, bit))
                    else:
                        later.append((successor, grown, allowed, bit))
            else:
                placed, boundary = bstack.pop()
                if last[placed]:
                    return level, _join(placed, last, back, start, full)
                inner = placed ^ start
                size = boundary.bit_count()
                moves = []
                rest = inner
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    predecessor = placed ^ bit
                    if back[predecessor]:
                        continue
                    shrunk = boundary & ~bit | out_mask[bit.bit_length() - 1] & (inner ^ bit)
                    if shrunk.bit_count() <= size:
                        moves = [(bit, predecessor, shrunk)]  # a free move: expand it alone
                        break
                    moves.append((bit, predecessor, shrunk))
                for bit, predecessor, shrunk in moves:
                    back[predecessor] = bit.bit_length()
                    cost = shrunk.bit_count()
                    if cost <= level:
                        bstack.append((predecessor, shrunk))
                    else:
                        waiting.setdefault(cost, []).append((predecessor, shrunk))
        level += 1
        stack += later
        later = []
        bstack += waiting.pop(level, ())
        if level >= n or queues and not stack or not (bstack or waiting):
            raise InternalError("the search ran out of sets before the sides met")


def _join(meet, last, back, start, full):
    """The order through ``meet``, by its ``last`` and ``back`` links."""
    order = []
    placed = meet
    while placed != start:
        v = last[placed] - 1
        order.append(v)
        placed ^= 1 << v
    order.reverse()
    while meet != full:
        v = back[meet] - 1
        order.append(v)
        meet |= 1 << v
    return order


def start_level(out_mask, unplaced):
    """The level ``minimax_order`` starts at: the out-degeneracy of the
    digraph that ``out_mask`` induces on ``unplaced``, the bound of its
    docstring."""
    level = 0
    group = unplaced
    while group.bit_count() >= level + 2:
        # (degree in H, bit, out-neighbours in H), least degree first
        rows = []
        rest = group
        while rest:
            bit = rest & -rest
            rest ^= bit
            near = out_mask[bit.bit_length() - 1] & group
            rows.append((near.bit_count(), bit, near))
        rows.sort()
        if rows[0][0] > level:
            level = rows[0][0]
        for _, bit, near in rows:
            if (near & group).bit_count() <= level:
                group ^= bit
    return level


class _Links(dict):
    """The link table above the byte-table size: a set not stored reads 0."""

    def __missing__(self, key):
        return 0
