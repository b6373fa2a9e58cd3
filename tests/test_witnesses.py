"""The witnesses the exact solvers return, pinned by digest.

Each corpus is solved in seed order and the SHA-256 of ``repr`` of every row
is taken over the whole corpus, so a change that keeps every answer but picks
another optimal witness fails here.  A second digest covers the answers alone
(places or widths), so a failure says which of the two moved.  A change to
the search that is meant to change witnesses updates the witness digests and
says so; the answer digests stay.
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


@pytest.mark.parametrize("rows,answers,digest", [
    (stackup_rows,
     "eb64f23254951af7f10f6c31a0bbc0d86fdac7d6c4179978fff41a1f00419cc9",
     "b98ff3518aff266e92ab7feb71f52e133e17fa53f1d2f7a5ee8f76813e199762"),
    (via_stackup_rows,
     "79338fcf96a1497f2736d9713b34a448d1701e09ea004c599307c508d2962b32",
     "958ff590f1e0492345ca18a4d13ffd8175797bf6538b30f422e587811c796383"),
    (exact_rows,
     "16ab8742a657e74134275518511dcb298113bc4faa0d1b42f1c819331a644504",
     "857cbb4db3094e1983379ac4f9e844147ef4cab2468c36b2fd2ec9c4c9691d4a"),
], ids=["solve_min_places", "dpw_via_stackup", "dpw_exact"])
def test_witnesses_are_pinned(rows, answers, digest):
    answer_sha = hashlib.sha256()
    sha = hashlib.sha256()
    for row in rows():
        answer_sha.update(repr(row[0]).encode())
        sha.update(repr(row).encode())
    assert answer_sha.hexdigest() == answers
    assert sha.hexdigest() == digest
