"""Unit tests for the columnar interning layer (:mod:`repro.nr.columns`)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.errors import EvaluationError
from repro.nr.columns import (
    ValueInterner,
    reduce_segments_all,
    reduce_segments_any,
    shared_interner,
)
from repro.nr.values import pair, ur, unit, vset


def test_intern_extern_roundtrip():
    interner = ValueInterner()
    values = [
        unit(),
        ur("a"),
        ur(7),
        pair(ur("a"), unit()),
        vset([ur(i) for i in range(4)]),
        vset([pair(ur("k"), vset([ur(1), ur(2)])), pair(ur("k"), vset())]),
        vset([vset(), vset([unit()])]),
    ]
    for value in values:
        assert interner.extern(interner.intern(value)) == value


def test_ids_are_canonical_for_extensional_equality():
    interner = ValueInterner()
    left = vset([ur(1), ur(2), ur(3)])
    right = vset([ur(3), ur(1), ur(2)])
    assert interner.intern(left) == interner.intern(right)
    assert interner.intern(vset()) == interner.empty_set_id
    assert interner.intern(vset([unit()])) == interner.true_id


def test_id_level_set_algebra():
    interner = ValueInterner()
    a = interner.intern(vset([ur(1), ur(2)]))
    assert interner.member(interner.intern(ur(2)), a)
    assert not interner.member(interner.intern(ur(9)), a)
    assert not interner.member(interner.intern(ur(1)), interner.empty_set_id)


def test_non_set_operands_raise():
    interner = ValueInterner()
    p = interner.intern(pair(ur(1), ur(2)))
    s = interner.intern(vset([ur(1)]))
    with pytest.raises(EvaluationError):
        interner.member(s, p)
    with pytest.raises(EvaluationError):
        interner.explode_sets([s, p], "not a set %s")
    with pytest.raises(EvaluationError):
        interner.proj_column([s], 1)


def test_explode_sets_roundtrip():
    interner = ValueInterner()
    sets = [vset([ur(1), ur(2)]), vset(), vset([ur(2), ur(3), ur(4)])]
    column = [interner.intern(s) for s in sets]
    members, rowmap, lengths = interner.explode_sets(column, "not a set %s")
    assert lengths == [2, 0, 3]
    assert rowmap == [0, 0, 2, 2, 2]
    rebuilt, position = [], 0
    for count in lengths:
        rebuilt.append(interner.set_id(members[position : position + count]))
        position += count
    assert rebuilt == column


def test_shared_interner_is_a_singleton():
    assert shared_interner() is shared_interner()


# ------------------------------------------------- short-circuit reduction
segment_plans = st.lists(st.lists(st.booleans(), max_size=6), max_size=8)


@given(segments=segment_plans)
def test_reduce_segments_all_matches_sliced_all(segments):
    body = [b for segment in segments for b in segment]
    lengths = [len(segment) for segment in segments]
    assert reduce_segments_all(body, lengths) == [all(s) for s in segments]


@given(segments=segment_plans)
def test_reduce_segments_any_matches_sliced_any(segments):
    body = [b for segment in segments for b in segment]
    lengths = [len(segment) for segment in segments]
    assert reduce_segments_any(body, lengths) == [any(s) for s in segments]


def test_reduce_segments_empty_segments_are_vacuous():
    assert reduce_segments_all([], [0, 0]) == [True, True]
    assert reduce_segments_any([], [0, 0]) == [False, False]
