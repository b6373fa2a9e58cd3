"""The public value types behave as frozen records.

Every value class is built on one small base, ``fifo_stackup._record.Record``.
These tests pin what callers rely on: construction by position or keyword
with class-level defaults, equality and hashing like a tuple of the fields,
the ``Name(field=value, ...)`` repr, immutability, and ``copy``, ``deepcopy``
and ``pickle`` round-trips.  The repr strings were captured from the
``dataclasses`` versions of these classes, which the records replace.
"""

import copy
import pickle

import pytest

from fifo_stackup.generate import GenSpec
from fifo_stackup.instance import Instance, PalletIndex
from fifo_stackup.oracles import DpResult
from fifo_stackup.pathwidth import DpwResult
from fifo_stackup.seqgraph import DecompositionCheck, Digraph, DirectedPathDecomposition
from fifo_stackup.solutions import BinSolution, PalletSolution, ReplayReport

DECOMPOSITION = DirectedPathDecomposition((frozenset({0}), frozenset({0, 1})))

# (class, field names, field values, repr of cls(*values))
CASES = [
    (Instance, ("sequences", "symbols"), (((0, 1), (1, 0)), ("a", "b")),
     "Instance(sequences=((0, 1), (1, 0)), symbols=('a', 'b'))"),
    (PalletIndex, ("first", "last"), (((1, 2), (2, 1)), ((1, 2), (2, 1))),
     "PalletIndex(first=((1, 2), (2, 1)), last=((1, 2), (2, 1)))"),
    (PalletSolution, ("order",), ((1, 0),), "PalletSolution(order=(1, 0))"),
    (BinSolution, ("moves",), (((0, 1), (1, 1)),), "BinSolution(moves=((0, 1), (1, 1)))"),
    (ReplayReport, ("max_open", "open_trace", "valid", "first_violation"),
     (1, (0, 1, 0), True, None),
     "ReplayReport(max_open=1, open_trace=(0, 1, 0), valid=True, first_violation=None)"),
    (Digraph, ("names", "arcs"), (("a", "b"), frozenset({(0, 1)})),
     "Digraph(names=('a', 'b'), arcs=frozenset({(0, 1)}))"),
    (DirectedPathDecomposition, ("bags",), ((frozenset({0}), frozenset({0, 1})),),
     "DirectedPathDecomposition(bags=(frozenset({0}), frozenset({0, 1})))"),
    (DecompositionCheck, ("ok", "width", "violation", "witness"), (True, 1, None, None),
     "DecompositionCheck(ok=True, width=1, violation=None, witness=None)"),
    (DpwResult, ("width", "decomposition"), (1, DECOMPOSITION),
     "DpwResult(width=1, decomposition=DirectedPathDecomposition("
     "bags=(frozenset({0}), frozenset({0, 1}))))"),
    (GenSpec, ("pallets", "queues", "min_bins", "max_bins", "seed"), (3, 2, 2, 3, 0),
     "GenSpec(pallets=3, queues=2, min_bins=2, max_bins=3, seed=0)"),
    (DpResult, ("value", "path"), (2, ((0, 0), (1, 0))),
     "DpResult(value=2, path=((0, 0), (1, 0)))"),
]

# Class-level defaults: (class, required positional values, defaults by name).
DEFAULTS = [
    (ReplayReport, (1, (0, 1, 0), True), {"first_violation": None}),
    (DecompositionCheck, (True,), {"width": None, "violation": None, "witness": None}),
    (GenSpec, (3, 2), {"min_bins": 2, "max_bins": 3, "seed": 0}),
]

IDS = [case[0].__name__ for case in CASES]


def test_every_record_class_is_covered():
    assert len({case[0] for case in CASES}) == 11


@pytest.mark.parametrize("cls,names,values,text", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, names, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert by_position == by_keyword == mixed
        assert tuple(getattr(by_keyword, name) for name in names) == values

    def test_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_eq_and_hash_follow_the_field_tuple(self, cls, names, values, text):
        record = cls(*values)
        assert record == cls(*values)
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert record != values
        assert len({record, cls(*values)}) == 1

    def test_missing_unknown_and_repeated_fields_raise(self, cls, names, values, text):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, unknown_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, values[0])

    def test_assignment_and_deletion_raise(self, cls, names, values, text):
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert getattr(record, names[0]) == values[0]

    def test_copy_deepcopy_and_pickle_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record
            assert hash(clone) == hash(record)
            assert repr(clone) == text
            with pytest.raises(AttributeError):
                setattr(clone, names[0], values[0])


@pytest.mark.parametrize("cls,required,defaults", DEFAULTS, ids=[d[0].__name__ for d in DEFAULTS])
def test_class_level_defaults(cls, required, defaults):
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*required[:-1])


def test_records_of_different_classes_with_equal_fields_differ():
    assert PalletSolution((0, 1)) != BinSolution((0, 1))
    assert BinSolution(((0, 1),)) != PalletSolution(((0, 1),))
    assert DpResult(1, ()) != DpwResult(1, ())


class TestPostInitValidation:
    def test_instance_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError, match="empty sequences"):
            Instance(((0,), ()), ("a",))
        with pytest.raises(ValueError, match="at least one sequence"):
            Instance(sequences=(), symbols=())

    def test_pallet_solution_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicates"):
            PalletSolution((0, 1, 0))
        with pytest.raises(ValueError, match="duplicates"):
            PalletSolution(order=(2, 2))

    def test_digraph_rejects_a_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(("a", "b"), frozenset({(0, 1), (1, 1)}))

    def test_keyword_construction_is_validated(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(names=("a",), arcs=frozenset({(0, 0)}))
