"""Semantics of Δ0 formulas over nested relational values.

An :class:`Assignment` maps variables to values; ``eval_formula`` evaluates an
(extended) Δ0 formula under an assignment.  Because values are extensional,
this is the "nested relation" semantics (|=nested) of the paper.  The
non-extensional ("every model") semantics lives in
:mod:`repro.logic.general_models`.

Satisfying-assignment enumeration over whole families goes through the
batched path: :func:`eval_formula_batch` runs the formula *compiler*
(:mod:`repro.logic.compile`) over a **column** of assignments at once on the
interned-id substrate of :mod:`repro.nr.columns` (equality and membership
become integer comparisons and binary searches; a quantifier expands each
row into one row per member of its bound; ``And``/``Or``
short-circuit through selection masks, matching :func:`eval_formula`'s
row-by-row laziness), and :func:`satisfying_assignments` filters a family
with it, returning a zero-copy :class:`SatisfyingView`.  The batched path
requires **well-typed** formulas (as enforced by
:func:`repro.logic.typecheck.check_formula`).

Three batch backends are registered in :data:`BATCH_EVALUATORS` — the
compiler's generated-source and interpreter backends plus the legacy
per-node batcher (:func:`eval_formula_batch_nodes`, kept as the speed
baseline recorded in ``BENCH_formula_compile.json``).  The per-assignment
:func:`eval_formula` is the differential oracle for all of them; the
conformance suite (``tests/test_formula_compile.py``) enumerates the
registry, so a new backend that is not differentially tested fails loudly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import EvaluationError
from repro.logic.compile import compile_formula
from repro.logic.formulas import (
    And,
    Bottom,
    EqUr,
    Exists,
    Forall,
    Formula,
    Member,
    NeqUr,
    NotMember,
    Or,
    Top,
)
from repro.logic.terms import PairTerm, Proj, Term, UnitTerm, Var
from repro.nr.columns import (
    BatchFrame,
    LazyColumns,
    ValueInterner,
    compose_rowmap,
    gather_column,
    shared_interner,
)
from repro.nr.values import PairValue, SetValue, UnitValue, Value

#: A variable assignment.
Assignment = Mapping[Var, Value]


def eval_term(term: Term, env: Assignment) -> Value:
    """Evaluate a Δ0 term under an assignment."""
    if isinstance(term, Var):
        try:
            return env[term]
        except KeyError as exc:
            raise EvaluationError(f"unbound variable {term} : {term.typ}") from exc
    if isinstance(term, UnitTerm):
        return UnitValue()
    if isinstance(term, PairTerm):
        return PairValue(eval_term(term.left, env), eval_term(term.right, env))
    if isinstance(term, Proj):
        value = eval_term(term.arg, env)
        if not isinstance(value, PairValue):
            raise EvaluationError(f"projection of non-pair value {value}")
        return value.first if term.index == 1 else value.second
    raise EvaluationError(f"unknown term {term!r}")


def eval_formula(formula: Formula, env: Assignment) -> bool:
    """Evaluate an (extended) Δ0 formula under an assignment."""
    if isinstance(formula, EqUr):
        return eval_term(formula.left, env) == eval_term(formula.right, env)
    if isinstance(formula, NeqUr):
        return eval_term(formula.left, env) != eval_term(formula.right, env)
    if isinstance(formula, Member):
        collection = eval_term(formula.collection, env)
        if not isinstance(collection, SetValue):
            raise EvaluationError(f"membership in non-set value {collection}")
        return eval_term(formula.elem, env) in collection.elements
    if isinstance(formula, NotMember):
        return not eval_formula(Member(formula.elem, formula.collection), env)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, And):
        return eval_formula(formula.left, env) and eval_formula(formula.right, env)
    if isinstance(formula, Or):
        return eval_formula(formula.left, env) or eval_formula(formula.right, env)
    if isinstance(formula, (Forall, Exists)):
        bound = eval_term(formula.bound, env)
        if not isinstance(bound, SetValue):
            raise EvaluationError(f"quantifier bound evaluated to non-set {bound}")
        extended: Dict[Var, Value] = dict(env)
        results = []
        for element in bound.elements:
            extended[formula.var] = element
            results.append(eval_formula(formula.body, extended))
        if isinstance(formula, Forall):
            return all(results)
        return any(results)
    raise EvaluationError(f"unknown formula {formula!r}")


def models(env: Assignment, *formulas: Formula) -> bool:
    """True iff the assignment satisfies every formula."""
    return all(eval_formula(formula, env) for formula in formulas)


# =====================================================================
# Batched (columnar) evaluation over assignment families
# =====================================================================
#
# The default batched path compiles the formula once (repro.logic.compile)
# and runs the cached column program.  The per-node batcher below is the PR 2
# implementation, kept verbatim as ``eval_formula_batch_nodes``: it is the
# baseline the compiler's speedup is measured against and a second reference
# implementation in the conformance registry.  Unlike the compiled backends
# it does not short-circuit connectives row by row.


def _unbound_var(var: Var) -> None:
    raise EvaluationError(f"unbound variable {var} : {var.typ}")


def _var_column(var: Var, frame, base: LazyColumns, nrows: int) -> List[int]:
    """Look up ``var`` through the quantifier frames (innermost shadows).

    Free variables gather through :meth:`LazyColumns.gather`: only the base
    rows the composed rowmap references are demanded, so a variable under a
    quantifier whose bound set is empty on some rows is never interned (nor
    boundness-checked) for those rows — matching per-row ``eval_formula``.
    """
    rowmap = None
    while frame is not None:
        if frame.var == var:
            return gather_column(frame.column, rowmap)
        rowmap = compose_rowmap(rowmap, frame.rowmap)
        frame = frame.parent
    if nrows == 0:
        return []
    return base.gather(var, rowmap)


def _term_column(
    term: Term, frame, base: LazyColumns, interner: ValueInterner, nrows: int
) -> List[int]:
    if isinstance(term, Var):
        return _var_column(term, frame, base, nrows)
    if isinstance(term, UnitTerm):
        return [interner.unit_id] * nrows
    if isinstance(term, PairTerm):
        return interner.pair_column(
            _term_column(term.left, frame, base, interner, nrows),
            _term_column(term.right, frame, base, interner, nrows),
        )
    if isinstance(term, Proj):
        return interner.proj_column(_term_column(term.arg, frame, base, interner, nrows), term.index)
    raise EvaluationError(f"unknown term {term!r}")


def _formula_column(
    formula: Formula, frame, base: LazyColumns, interner: ValueInterner, nrows: int
) -> List[bool]:
    if isinstance(formula, EqUr):
        left = _term_column(formula.left, frame, base, interner, nrows)
        right = _term_column(formula.right, frame, base, interner, nrows)
        return [a == b for a, b in zip(left, right)]
    if isinstance(formula, NeqUr):
        left = _term_column(formula.left, frame, base, interner, nrows)
        right = _term_column(formula.right, frame, base, interner, nrows)
        return [a != b for a, b in zip(left, right)]
    if isinstance(formula, Member):
        elems = _term_column(formula.elem, frame, base, interner, nrows)
        collections = _term_column(formula.collection, frame, base, interner, nrows)
        member = interner.member
        return [member(e, c) for e, c in zip(elems, collections)]
    if isinstance(formula, NotMember):
        inner = _formula_column(Member(formula.elem, formula.collection), frame, base, interner, nrows)
        return [not ok for ok in inner]
    if isinstance(formula, Top):
        return [True] * nrows
    if isinstance(formula, Bottom):
        return [False] * nrows
    if isinstance(formula, And):
        left = _formula_column(formula.left, frame, base, interner, nrows)
        right = _formula_column(formula.right, frame, base, interner, nrows)
        return [a and b for a, b in zip(left, right)]
    if isinstance(formula, Or):
        left = _formula_column(formula.left, frame, base, interner, nrows)
        right = _formula_column(formula.right, frame, base, interner, nrows)
        return [a or b for a, b in zip(left, right)]
    if isinstance(formula, (Forall, Exists)):
        bounds = _term_column(formula.bound, frame, base, interner, nrows)
        member_column, rowmap, lengths = interner.explode_sets(
            bounds, "quantifier bound evaluated to non-set %s"
        )
        child = BatchFrame(formula.var, member_column, rowmap, frame)
        body = _formula_column(formula.body, child, base, interner, len(member_column))
        out: List[bool] = []
        append = out.append
        reducer = all if isinstance(formula, Forall) else any
        position = 0
        for count in lengths:
            append(reducer(body[position : position + count]))
            position += count
        return out
    raise EvaluationError(f"unknown formula {formula!r}")


def eval_formula_batch_nodes(
    formula: Formula,
    assignments: Sequence[Assignment],
    interner: Optional[ValueInterner] = None,
) -> List[bool]:
    """The PR 2 per-node batcher (reference backend and speed baseline).

    Walks the formula AST once per node per call, gathering columns through
    the quantifier rowmaps; no program caching, no row deduplication, no
    connective short-circuiting.  Kept as the denominator of the
    ``BENCH_formula_compile.json`` speedup ratios and as an independent
    implementation in the conformance registry.
    """
    assignments = list(assignments)
    if interner is None:
        interner = shared_interner()
    base = LazyColumns(assignments, interner, _unbound_var)
    return _formula_column(formula, None, base, interner, len(assignments))


def eval_formula_batch(
    formula: Formula,
    assignments: Sequence[Assignment],
    interner: Optional[ValueInterner] = None,
    backend: Optional[str] = None,
) -> List[bool]:
    """Evaluate a **well-typed** Δ0 formula over a family of assignments.

    Returns one Boolean per assignment, in order; agrees with mapping
    :func:`eval_formula` over the family (the per-assignment evaluator is the
    differential oracle).  The formula is compiled once to a straight-line
    column program (cached on the hash-consed node — see
    :mod:`repro.logic.compile`); quantifiers expand the family by one row per
    (assignment, bound element) and reduce back with one generated loop per
    quantifier, duplicate assignment rows are evaluated once, and rows seen
    in earlier calls are answered from the program's memo.

    ``backend`` forces ``"codegen"`` or ``"interp"`` (``None`` auto-selects;
    deep nesting falls back to the interpreter).
    """
    assignments = list(assignments)
    if interner is None:
        interner = shared_interner()
    return compile_formula(formula, backend=backend).eval_mask(assignments, interner)


class SatisfyingView(Sequence):
    """The satisfying sub-family of an assignment family, as a zero-copy view.

    Indexing/iteration yields the satisfying :class:`Assignment` mappings of
    the underlying family **without copying them**; ``mask`` holds one
    Boolean per *original* row and ``indices`` the original positions of the
    satisfying rows, so columnar consumers (fused verification) can keep
    working positionally.  Compares equal to any sequence of the satisfying
    assignments, so existing list-shaped callers keep working.
    """

    __slots__ = ("family", "mask", "_indices")

    def __init__(self, family: Sequence[Assignment], mask: Sequence[bool]) -> None:
        self.family = family
        self.mask = mask
        self._indices: Optional[List[int]] = None

    @property
    def indices(self) -> List[int]:
        """Original row positions of the satisfying assignments (cached)."""
        if self._indices is None:
            self._indices = [row for row, ok in enumerate(self.mask) if ok]
        return self._indices

    @property
    def total(self) -> int:
        """Size of the underlying family (satisfying and not)."""
        return len(self.family)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self.family[row] for row in self.indices[item]]
        return self.family[self.indices[item]]

    def __iter__(self):
        family = self.family
        return (family[row] for row in self.indices)

    def __eq__(self, other) -> bool:
        if isinstance(other, SatisfyingView):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # views are positionally mutable-adjacent; not hashable

    def __repr__(self) -> str:
        return f"SatisfyingView({len(self)}/{self.total} rows)"


def satisfying_assignments(
    formula: Formula,
    assignments: Sequence[Assignment],
    interner: Optional[ValueInterner] = None,
    backend: Optional[str] = None,
) -> SatisfyingView:
    """The satisfying sub-family of ``assignments`` as a :class:`SatisfyingView`.

    Filter-then-evaluate consumers (``synthesis/verification.py``) read the
    view's ``mask``/``indices`` directly instead of materializing copied
    assignment dicts; iterating the view yields the satisfying assignments in
    order, so it still behaves like the list this function used to return.
    """
    assignments = list(assignments)
    mask = eval_formula_batch(formula, assignments, interner, backend=backend)
    return SatisfyingView(assignments, mask)


def _batch_codegen(formula, assignments, interner=None):
    return eval_formula_batch(formula, assignments, interner, backend="codegen")


def _batch_interp(formula, assignments, interner=None):
    return eval_formula_batch(formula, assignments, interner, backend="interp")


#: Every batched evaluator backend, by name.  The conformance suite
#: (``tests/test_formula_compile.py``) parametrizes its differential tests
#: over this registry **and** asserts every ``eval_formula_batch*`` function
#: in this module is registered — adding a backend without wiring it into the
#: differential tests fails loudly.
BATCH_EVALUATORS: Dict[str, Callable[..., List[bool]]] = {
    "codegen": _batch_codegen,
    "interp": _batch_interp,
    "nodes": eval_formula_batch_nodes,
}
