"""Columnar value interning for the batched formula evaluator.

NRC expressions are evaluated per environment (:mod:`repro.nrc.eval`), but
Δ0 formulas are filtered over whole assignment families at once by the
column program of :mod:`repro.logic.compile`.  This module is its
substrate:

* a :class:`ValueInterner` assigns every distinct nested value a dense
  integer id.  Pairs are interned by their component ids, and set values are
  canonically represented as **sorted** ``array('q')`` id arrays — two sets
  are extensionally equal exactly when they receive the same id, so value
  equality in a batched formula is a single ``int`` comparison and
  membership is a binary search;
* columnar kernels (pairing, projection, set explosion, short-circuiting
  per-segment ``all``/``any``) process one id per row in tight loops;
* :class:`BatchFrame` and the ``gather_*`` helpers align bound-variable and
  free-variable columns with the rows a quantifier expanded;
* :class:`LazyColumns` interns the per-variable columns of an assignment
  family on first use, preserving the per-row "unbound variables only fail
  if actually evaluated" behavior.

The interner is append-only; ids are never recycled.  Callers that process
unbounded streams of fresh values should use a private interner per batch
(:func:`ValueInterner` is cheap to construct) instead of the shared one
returned by :func:`shared_interner`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import repeat
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.nr.values import PairValue, SetValue, UnitValue, UrValue, Value

#: Kind tags for interned ids (parallel to the four Value classes).
UNIT_KIND, UR_KIND, PAIR_KIND, SET_KIND = range(4)

_EMPTY_ARRAY = array("q")


# =====================================================================
# Segment reduction kernels (quantifier short-circuit)
# =====================================================================


def reduce_segments_all(body: List[bool], lengths: List[int]) -> List[bool]:
    """Per-segment ``all`` over a flat Boolean column, short-circuiting.

    ``body`` is the concatenation of one Boolean run per source row (a
    compiled quantifier's exploded body mask) and ``lengths`` the
    per-row run widths.  Instead of slicing each segment and folding it, the
    kernel tracks the position of the **next deciding element** (the next
    ``False``) with C-level ``list.index`` scans: a segment is decided the
    moment the cached position clears its end, the elements after a deciding
    element are never examined again, and every element is visited at most
    once across the whole column.  Empty segments reduce to ``True`` (the
    vacuous ``all``).
    """
    out = []
    append = out.append
    index = body.index
    total = len(body)
    position = 0
    deciding = -1  # position of the next False at or after `position`; total = none
    for count in lengths:
        end = position + count
        if deciding < position:
            try:
                deciding = index(False, position)
            except ValueError:
                deciding = total
        append(deciding >= end)
        position = end
    return out


def reduce_segments_any(body: List[bool], lengths: List[int]) -> List[bool]:
    """Per-segment ``any`` over a flat Boolean column, short-circuiting.

    The dual of :func:`reduce_segments_all`: the deciding element is the next
    ``True``.  Empty segments reduce to ``False`` (the vacuous ``any``).
    """
    out = []
    append = out.append
    index = body.index
    total = len(body)
    position = 0
    deciding = -1
    for count in lengths:
        end = position + count
        if deciding < position:
            try:
                deciding = index(True, position)
            except ValueError:
                deciding = total
        append(deciding < end)
        position = end
    return out


# =====================================================================
# The interner
# =====================================================================


class ValueInterner:
    """Dense integer ids for nested relational values, with columnar kernels.

    Per id the interner stores a kind tag and a payload: ``None`` for unit,
    the atom for Ur-elements, a ``(first_id, second_id)`` tuple for pairs and
    a sorted ``array('q')`` of member ids for sets.  All columnar methods
    operate on plain lists of ids (one entry per row).
    """

    __slots__ = (
        "_kinds",
        "_payloads",
        "_ur_ids",
        "_pair_ids",
        "_set_ids",
        "_by_value",
        "_value_of",
        "unit_id",
        "empty_set_id",
        "true_id",
    )

    def __init__(self) -> None:
        self._kinds: List[int] = []
        self._payloads: List[object] = []
        self._ur_ids: Dict[Hashable, int] = {}
        self._pair_ids: Dict[Tuple[int, int], int] = {}
        self._set_ids: Dict[Tuple[int, ...], int] = {}
        self._by_value: Dict[Value, int] = {}
        self._value_of: List[Optional[Value]] = []
        self.unit_id = self._new_id(UNIT_KIND, None)
        self.empty_set_id = self._new_id(SET_KIND, _EMPTY_ARRAY)
        self._set_ids[()] = self.empty_set_id
        #: The Boolean ``true`` (``{()}``); ``false`` is :attr:`empty_set_id`.
        self.true_id = self.set_id((self.unit_id,))

    def __len__(self) -> int:
        return len(self._kinds)

    # ------------------------------------------------------------- telemetry
    def stats(self) -> Dict[str, int]:
        """Sizes of the id space and its intern tables (service telemetry)."""
        return {
            "ids": len(self._kinds),
            "ur_ids": len(self._ur_ids),
            "pair_ids": len(self._pair_ids),
            "set_ids": len(self._set_ids),
            "value_memo": len(self._by_value),
        }

    # ----------------------------------------------------------- id creation
    def _new_id(self, kind: int, payload: object) -> int:
        vid = len(self._kinds)
        self._kinds.append(kind)
        self._payloads.append(payload)
        self._value_of.append(None)
        return vid

    def ur_id(self, atom: Hashable) -> int:
        vid = self._ur_ids.get(atom)
        if vid is None:
            vid = self._new_id(UR_KIND, atom)
            self._ur_ids[atom] = vid
        return vid

    def pair_id(self, first: int, second: int) -> int:
        key = (first, second)
        vid = self._pair_ids.get(key)
        if vid is None:
            vid = self._new_id(PAIR_KIND, key)
            self._pair_ids[key] = vid
        return vid

    def set_id(self, member_ids: Iterable[int]) -> int:
        """Intern a set given arbitrary (unsorted, possibly duplicated) ids."""
        key = tuple(sorted(set(member_ids)))
        vid = self._set_ids.get(key)
        if vid is None:
            vid = self._new_id(SET_KIND, array("q", key))
            self._set_ids[key] = vid
        return vid

    # ------------------------------------------------------- intern / extern
    def intern(self, value: Value) -> int:
        """Id of ``value`` (iterative post-order walk, memoized per value)."""
        memo = self._by_value
        vid = memo.get(value)
        if vid is not None:
            return vid
        out: List[int] = []
        stack: List[Tuple[Value, bool]] = [(value, False)]
        while stack:
            node, emit = stack.pop()
            if not emit:
                vid = memo.get(node)
                if vid is not None:
                    out.append(vid)
                    continue
                cls = type(node)
                if cls is UnitValue:
                    memo[node] = self.unit_id
                    out.append(self.unit_id)
                elif cls is UrValue:
                    vid = self.ur_id(node.atom)
                    memo[node] = vid
                    out.append(vid)
                elif cls is PairValue:
                    stack.append((node, True))
                    stack.append((node.second, False))
                    stack.append((node.first, False))
                elif cls is SetValue:
                    stack.append((node, True))
                    for element in node.elements:
                        stack.append((element, False))
                else:
                    raise EvaluationError(f"cannot intern non-Value {node!r}")
            elif type(node) is PairValue:
                second = out.pop()
                first = out.pop()
                vid = self.pair_id(first, second)
                memo[node] = vid
                out.append(vid)
            else:  # SetValue
                count = len(node.elements)
                members = out[len(out) - count :] if count else ()
                del out[len(out) - count :]
                vid = self.set_id(members)
                memo[node] = vid
                out.append(vid)
        return out[-1]

    def extern(self, vid: int) -> Value:
        """The :class:`Value` for ``vid`` (memoized, iterative)."""
        cached = self._value_of[vid]
        if cached is not None:
            return cached
        value_of = self._value_of
        kinds = self._kinds
        payloads = self._payloads
        stack: List[int] = [vid]
        while stack:
            current = stack[-1]
            if value_of[current] is not None:
                stack.pop()
                continue
            kind = kinds[current]
            if kind == UNIT_KIND:
                value_of[current] = UnitValue()
                stack.pop()
            elif kind == UR_KIND:
                value_of[current] = UrValue(payloads[current])
                stack.pop()
            elif kind == PAIR_KIND:
                first, second = payloads[current]
                left = value_of[first]
                right = value_of[second]
                if left is not None and right is not None:
                    value_of[current] = PairValue(left, right)
                    stack.pop()
                else:
                    if right is None:
                        stack.append(second)
                    if left is None:
                        stack.append(first)
            else:  # SET_KIND
                members = payloads[current]
                pending = [m for m in members if value_of[m] is None]
                if pending:
                    stack.extend(pending)
                else:
                    value_of[current] = SetValue(frozenset(value_of[m] for m in members))
                    stack.pop()
        return value_of[vid]

    # ------------------------------------------------------- id-level queries
    def member(self, elem_id: int, set_id: int) -> bool:
        """Membership test by binary search on the sorted member array."""
        members = self._payloads[set_id]
        if self._kinds[set_id] != SET_KIND:
            raise EvaluationError(f"membership in non-set value {self.extern(set_id)}")
        index = bisect_left(members, elem_id)
        return index < len(members) and members[index] == elem_id

    # ------------------------------------------------------- columnar kernels
    def pair_column(self, left: List[int], right: List[int]) -> List[int]:
        pair_ids = self._pair_ids
        new = self._new_id
        out = []
        append = out.append
        for key in zip(left, right):
            vid = pair_ids.get(key)
            if vid is None:
                vid = new(PAIR_KIND, key)
                pair_ids[key] = vid
            append(vid)
        return out

    def proj_column(self, column: List[int], index: int) -> List[int]:
        kinds = self._kinds
        payloads = self._payloads
        component = 0 if index == 1 else 1
        out = []
        append = out.append
        for vid in column:
            if kinds[vid] != PAIR_KIND:
                raise EvaluationError(f"projection of non-pair value {self.extern(vid)}")
            append(payloads[vid][component])
        return out

    def explode_sets(self, column: List[int], error: str) -> Tuple[List[int], List[int], List[int]]:
        """Expand a column of set ids to ``(member_column, rowmap, lengths)``.

        ``member_column`` concatenates the member ids of every row's set,
        ``rowmap[j]`` is the source row of expanded row ``j`` and ``lengths``
        holds the per-row member counts (for :func:`reduce_segments_all` and
        :func:`reduce_segments_any`).
        """
        kinds = self._kinds
        payloads = self._payloads
        member_column: List[int] = []
        rowmap: List[int] = []
        lengths: List[int] = []
        extend_members = member_column.extend
        extend_rowmap = rowmap.extend
        append_length = lengths.append
        for row, vid in enumerate(column):
            if kinds[vid] != SET_KIND:
                raise EvaluationError(error % (self.extern(vid),) if "%s" in error else error)
            members = payloads[vid]
            count = len(members)
            append_length(count)
            if count:
                extend_members(members)
                extend_rowmap(repeat(row, count))
        return member_column, rowmap, lengths


class BatchFrame:
    """One binder/quantifier/selection level of a batched evaluation.

    ``var`` is the bound (logic) variable, ``column`` holds its ids for the
    current (expanded) rows, ``rowmap[j]`` is the parent-level row expanded
    row ``j`` came from (``None`` = identity), and ``parent`` is the
    enclosing frame (``None`` at the base level).  *Selection* frames —
    produced by the formula compiler's short-circuit connectives — bind no
    variable (``var``/``column`` of ``None``) and contribute only their
    rowmap.
    """

    __slots__ = ("var", "column", "rowmap", "parent")

    def __init__(
        self,
        var,
        column: Optional[List[int]],
        rowmap: Optional[List[int]],
        parent: Optional["BatchFrame"],
    ) -> None:
        self.var = var
        self.column = column
        self.rowmap = rowmap
        self.parent = parent


def gather_column(column: List[int], rowmap: Optional[List[int]]) -> List[int]:
    """``column`` aligned to the current rows (``rowmap`` of ``None`` = identity)."""
    return column if rowmap is None else [column[i] for i in rowmap]


def compose_rowmap(rowmap: Optional[List[int]], step: Optional[List[int]]) -> Optional[List[int]]:
    """Extend a current-rows→ancestor-rows map by one more frame's ``step``.

    ``None`` is the identity on either side: frames whose row set equals the
    parent's (e.g. a short-circuit selection that kept every row) carry a
    ``None`` rowmap and compose away for free.
    """
    if step is None:
        return rowmap
    return step if rowmap is None else [step[i] for i in rowmap]


def gather_binder_column(frame: Optional["BatchFrame"], hops: int) -> List[int]:
    """The binder column ``hops`` frames up, aligned to the current rows.

    Crossing a frame applies its rowmap; the target frame's own column is
    gathered through the composed map.  Selection frames (``var``/``column``
    of ``None``) are counted like binder frames — they contribute only their
    rowmap.
    """
    rowmap: Optional[List[int]] = None
    for _ in range(hops):
        rowmap = compose_rowmap(rowmap, frame.rowmap)
        frame = frame.parent
    return gather_column(frame.column, rowmap)


def gather_base_column(
    frame: Optional["BatchFrame"], hops: int, base, var, nrows: int
) -> List[int]:
    """A free variable's base column, aligned to the current rows.

    ``hops`` is the number of frames between the current rows and the base
    level.  Gathering goes through the base's :meth:`LazyColumns.gather`,
    which only interns (and only checks boundness of) the base rows the
    composed rowmap references — so a variable under a binder is demanded
    exactly for the rows whose source sets are non-empty, matching the
    per-environment evaluators' lazy lookup row for row.
    """
    if nrows == 0:
        return []
    rowmap: Optional[List[int]] = None
    for _ in range(hops):
        rowmap = compose_rowmap(rowmap, frame.rowmap)
        frame = frame.parent
    return base.gather(var, rowmap)


class LazyColumns:
    """Per-variable id columns over a family of mappings, interned on demand.

    ``unbound(var)`` is called (and must raise) when a demanded row lacks
    ``var``.  Laziness is per *row*, not per column: :meth:`gather` through a
    rowmap only interns (and only checks boundness of) the base rows the
    rowmap actually references, which preserves the per-environment
    evaluator's behavior exactly — a variable inside a binder is never
    demanded for rows whose source set is empty.
    """

    __slots__ = ("rows", "interner", "unbound", "_columns", "_cells")

    def __init__(
        self,
        rows: Sequence[Mapping],
        interner: ValueInterner,
        unbound: Callable[[object], None],
    ) -> None:
        self.rows = rows
        self.interner = interner
        self.unbound = unbound
        self._columns: Dict[object, List[int]] = {}
        self._cells: Dict[object, Dict[int, int]] = {}

    def column(self, var) -> List[int]:
        """The full base column for ``var`` (every row must bind it)."""
        column = self._columns.get(var)
        if column is None:
            intern = self.interner.intern
            column = []
            append = column.append
            for row in self.rows:
                value = row.get(var, _MISSING)
                if value is _MISSING:
                    self.unbound(var)
                append(intern(value))
            self._columns[var] = column
        return column

    def gather(self, var, rowmap: Optional[List[int]]) -> List[int]:
        """``var``'s ids aligned to the current rows, demanding only used rows.

        When every row binds ``var`` (the common, homogeneous-family case)
        the full column is interned once and gathers are plain indexing;
        otherwise only the rows a rowmap references are boundness-checked,
        so rows lacking ``var`` fail exactly when actually demanded.
        """
        if rowmap is None:
            return self.column(var)
        column = self._columns.get(var)
        if column is None and var not in self._cells:
            column = self._scan(var)
        if column is not None:
            return [column[i] for i in rowmap]
        cells = self._cells[var]
        out: List[int] = []
        append = out.append
        for index in rowmap:
            vid = cells.get(index)
            if vid is None:
                self.unbound(var)
            append(vid)
        return out

    def _scan(self, var) -> Optional[List[int]]:
        """Intern ``var`` for every row that binds it.

        Returns (and caches) the full column when all rows bind ``var``;
        otherwise caches the bound rows in ``_cells`` and returns ``None``.
        Interning never raises, so pre-interning rows that are never demanded
        is extra work at most, not a semantic change.
        """
        intern = self.interner.intern
        column: List[int] = []
        append = column.append
        complete = True
        for row in self.rows:
            value = row.get(var, _MISSING)
            if value is _MISSING:
                complete = False
                append(-1)
            else:
                append(intern(value))
        if complete:
            self._columns[var] = column
            return column
        self._cells[var] = {i: vid for i, vid in enumerate(column) if vid != -1}
        return None


_MISSING = object()


class FixedColumns:
    """Base columns supplied directly as interned ids (no value interning).

    Duck-types the ``column``/``gather`` surface of :class:`LazyColumns` for
    callers that already hold id columns — e.g. replaying deduplicated
    assignment rows through a compiled formula program — without externing
    the ids to values first.  ``unbound(var)`` is called (and must raise) when a column
    is missing entirely; per-row laziness does not apply — fixed columns are
    total by construction.
    """

    __slots__ = ("_columns", "_unbound")

    def __init__(self, columns: Mapping, unbound: Callable[[object], None]) -> None:
        self._columns = columns
        self._unbound = unbound

    def column(self, var) -> List[int]:
        column = self._columns.get(var)
        if column is None:
            self._unbound(var)
        return column

    def gather(self, var, rowmap: Optional[List[int]]) -> List[int]:
        return gather_column(self.column(var), rowmap)


#: Rotation threshold for the shared interner: once it holds this many ids it
#: is replaced by a fresh one, bounding memory in long-running processes.
#: Safe because ids are only meaningful relative to the interner instance a
#: caller obtained at the start of its batch — in-flight batches keep their
#: reference, new batches start clean.
SHARED_INTERNER_MAX_IDS = 1_000_000

_SHARED_INTERNER = ValueInterner()


_SHARED_ROTATIONS = 0


def shared_interner() -> ValueInterner:
    """The process-wide interner shared by the batched evaluator defaults.

    Rotated once it exceeds :data:`SHARED_INTERNER_MAX_IDS` ids; callers must
    grab one instance per batch (all built-in consumers do) rather than
    holding ids across separately obtained instances.
    """
    global _SHARED_INTERNER, _SHARED_ROTATIONS
    if len(_SHARED_INTERNER) > SHARED_INTERNER_MAX_IDS:
        _SHARED_INTERNER = ValueInterner()
        _SHARED_ROTATIONS += 1
    return _SHARED_INTERNER


def shared_interner_stats() -> Dict[str, int]:
    """Stats of the current shared interner plus its rotation telemetry."""
    stats = _SHARED_INTERNER.stats()
    stats["max_ids"] = SHARED_INTERNER_MAX_IDS
    stats["rotations"] = _SHARED_ROTATIONS
    return stats


def shared_interner_metric_samples() -> Dict[str, float]:
    """Numeric projection of :func:`shared_interner_stats` for gauge adapters.

    The metrics registry (:mod:`repro.obs.metrics`) samples this from a
    scrape-time collector; non-numeric stats entries are dropped so future
    additions to ``stats()`` cannot break exposition.
    """
    return {
        key: float(value)
        for key, value in shared_interner_stats().items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def reset_shared_interner() -> None:
    """Force an immediate rotation of the shared interner (frees all ids)."""
    global _SHARED_INTERNER, _SHARED_ROTATIONS
    _SHARED_INTERNER = ValueInterner()
    _SHARED_ROTATIONS += 1
