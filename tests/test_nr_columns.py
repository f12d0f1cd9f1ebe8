"""Unit tests for the columnar interning layer (:mod:`repro.nr.columns`)."""

from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.errors import EvaluationError
from repro.nr.columns import (
    ValueInterner,
    merge_diff,
    merge_many,
    merge_union,
    reduce_segments_all,
    reduce_segments_any,
    shared_interner,
)
from repro.nr.values import pair, ur, unit, vset

sorted_ids = st.lists(st.integers(0, 40), max_size=12).map(lambda xs: array("q", sorted(set(xs))))


@given(left=sorted_ids, right=sorted_ids)
def test_merge_union_matches_set_union(left, right):
    assert list(merge_union(left, right)) == sorted(set(left) | set(right))


@given(left=sorted_ids, right=sorted_ids)
def test_merge_diff_matches_set_difference(left, right):
    assert list(merge_diff(left, right)) == sorted(set(left) - set(right))


@given(arrays=st.lists(sorted_ids, max_size=5))
def test_merge_many_matches_set_union(arrays):
    expected = sorted(set().union(*[set(a) for a in arrays])) if arrays else []
    assert list(merge_many(arrays)) == expected


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
    b = interner.intern(vset([ur(2), ur(3)]))
    assert interner.extern(interner.union_id(a, b)) == vset([ur(1), ur(2), ur(3)])
    assert interner.extern(interner.diff_id(a, b)) == vset([ur(1)])
    assert interner.member(interner.intern(ur(2)), a)
    assert not interner.member(interner.intern(ur(9)), a)


def test_non_set_operands_raise():
    interner = ValueInterner()
    p = interner.intern(pair(ur(1), ur(2)))
    s = interner.intern(vset([ur(1)]))
    with pytest.raises(EvaluationError):
        interner.union_id(p, s)
    with pytest.raises(EvaluationError):
        interner.diff_id(s, p)
    with pytest.raises(EvaluationError):
        interner.proj_column([s], 1)
    with pytest.raises(EvaluationError):
        interner.get_column([p], lambda: interner.unit_id)


def test_explode_and_union_segments_roundtrip():
    interner = ValueInterner()
    sets = [vset([ur(1), ur(2)]), vset(), vset([ur(2), ur(3), ur(4)])]
    column = [interner.intern(s) for s in sets]
    members, rowmap, lengths = interner.explode_sets(column, "not a set %s")
    assert lengths == [2, 0, 3]
    assert rowmap == [0, 0, 2, 2, 2]
    singletons = interner.singleton_column(members)
    folded = interner.union_segments(singletons, lengths, "not a set %s")
    assert folded[0] == column[0]
    assert folded[1] == interner.empty_set_id
    assert folded[2] == column[2]


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


# ------------------------------------------------- wide-segment union memo
def test_wide_segment_unions_are_memoized():
    interner = ValueInterner()
    width = ValueInterner.WIDE_SEGMENT + 2
    column = [interner.intern(vset([ur(i)])) for i in range(width)] * 2
    lengths = [width, width]
    first = interner.union_segments(column, lengths, "not a set %s")
    assert first[0] == first[1]
    assert interner.stats()["multi_union_cache"] == 1
    # The repeat is a pure dictionary hit producing the same id.
    assert interner.union_segments(column, lengths, "not a set %s") == first


def test_wide_segment_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(ValueInterner, "MULTI_UNION_MEMO_BOUND", 2)
    interner = ValueInterner()
    width = ValueInterner.WIDE_SEGMENT + 1
    for round_ in range(4):
        column = [interner.intern(vset([ur((round_, i))])) for i in range(width)]
        interner.union_segments(column, [width], "not a set %s")
    stats = interner.stats()
    assert stats["multi_union_cache"] <= 2
    assert stats["multi_union_cache_clears"] >= 1
    assert stats["multi_union_cache_bound"] == 2


def test_clear_memo_caches_drops_the_multi_union_memo():
    interner = ValueInterner()
    width = ValueInterner.WIDE_SEGMENT + 1
    column = [interner.intern(vset([ur(i)])) for i in range(width)]
    folded = interner.union_segments(column, [width], "not a set %s")
    assert interner.stats()["multi_union_cache"] == 1
    interner.clear_memo_caches()
    assert interner.stats()["multi_union_cache"] == 0
    # Recomputation reproduces the same canonical id.
    assert interner.union_segments(column, [width], "not a set %s") == folded
