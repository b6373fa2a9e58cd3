"""The witnesses the exact solvers return, pinned by digest.

Each corpus is solved in seed order and the SHA-256 of ``repr`` of every row
is taken over the whole corpus, so a change that keeps every answer but picks
another optimal witness fails here.  A change to the search that is meant to
change witnesses updates these digests and says so.
"""

import hashlib

import pytest

from fifo_stackup import (
    GenSpec,
    dpw_exact,
    dpw_via_stackup,
    generate_instance,
    random_admissible_digraph,
    solve_min_places,
)


def stackup_rows():
    for s in range(1500):
        spec = GenSpec(4 + s % 13, 1 + s % 6, min_bins=1 + s % 2, max_bins=3 + s % 2, seed=s)
        places, bins, pallets = solve_min_places(generate_instance(spec))
        yield places, bins.moves, pallets.order


def via_stackup_rows():
    for s in range(300):
        result = dpw_via_stackup(random_admissible_digraph(3 + s % 5, max_degree=2, seed=s))
        yield result.width, result.decomposition.bags


def exact_rows():
    for s in range(600):
        result = dpw_exact(random_admissible_digraph(6 + s % 11, max_degree=2 + s % 4, seed=s))
        yield result.width, result.decomposition.bags


@pytest.mark.parametrize("rows,digest", [
    (stackup_rows, "cf4edf32fbc0f42ee6ab90bbfe4ccee056a5b744ef6873c69a294a2bb3d83ae9"),
    (via_stackup_rows, "7b3762db3330b9c6f7662131a5fd2d91507fd865b20e44c15b0b207d77e9eacf"),
    (exact_rows, "5b78f14b9679b31af6d6435d8566c9e907179e7578f6a45c55689669270457ce"),
], ids=["solve_min_places", "dpw_via_stackup", "dpw_exact"])
def test_witnesses_are_pinned(rows, digest):
    sha = hashlib.sha256()
    for row in rows():
        sha.update(repr(row).encode())
    assert sha.hexdigest() == digest
