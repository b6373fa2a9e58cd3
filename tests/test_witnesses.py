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
    (stackup_rows, "3d00b00bc7b8e505321c9a78460105b70865be26d4b2cd404da69950bd6f1598"),
    (via_stackup_rows, "f3be76b941197df9889109589aa44c5fc11bb4f2d05a91e2a5705b5d9cdbc573"),
    (exact_rows, "3d91eda73ae2e9f7b6195c6f432d965c4cf400c04e001cf60a9f6268cdee7851"),
], ids=["solve_min_places", "dpw_via_stackup", "dpw_exact"])
def test_witnesses_are_pinned(rows, digest):
    sha = hashlib.sha256()
    for row in rows():
        sha.update(repr(row).encode())
    assert sha.hexdigest() == digest
