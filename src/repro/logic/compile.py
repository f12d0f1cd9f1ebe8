"""Compilation of Δ0 formulas to postfix column programs.

A well-typed formula is compiled **once** to a structured postfix program
over interned id columns (:mod:`repro.nr.columns` is the substrate), and the
program is cached on the hash-consed formula node, so structurally equal
specifications share it.  :func:`_run_program` interprets the program over a
whole assignment family at once: terms become columnar kernel calls, atoms
become ``zip`` comparisons, each quantifier explodes its bound sets into one
row per (assignment, element) and reduces back per segment, and
``And``/``Or`` short-circuit through **selection masks** — the right operand
is evaluated only over the rows the left operand left undecided (a selection
frame with a rowmap and no binder), matching the per-row evaluator's lazy
semantics.

:meth:`FormulaProgram.eval_mask` is the assignment-family front-end: the
family is deduplicated on the interned ids of the formula's free variables,
so each distinct row runs once.  Rows lacking a free variable fall back to
the lazy :class:`~repro.nr.columns.LazyColumns` path so "unbound only fails
if actually demanded" is preserved exactly.

The interpreter is the only backend.  Generating and ``exec``-ing Python
source per formula cost more than it saved: verification filters one family
of a few dozen rows per specification, and at that size the interpreter's
cold cost (compile plus one run) is about half the generated-source path's.
Programs live only in the process that built them.

The per-assignment :func:`repro.logic.semantics.eval_formula` remains the
differential-testing oracle (``tests/test_formula_compile.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interning import intern
from repro.errors import EvaluationError
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
from repro.logic.terms import PairTerm, Proj, UnitTerm, Var
from repro.nr.columns import (
    BatchFrame,
    FixedColumns,
    LazyColumns,
    ValueInterner,
    gather_base_column,
    gather_binder_column,
    reduce_segments_all,
    reduce_segments_any,
)

__all__ = ["FormulaProgram", "compile_formula"]

_QUANT_ERROR = "quantifier bound evaluated to non-set %s"


def _unbound_var(var: Var) -> None:
    raise EvaluationError(f"unbound variable {var} : {var.typ}")


# =====================================================================
# The program: postfix instructions over id/mask columns
# =====================================================================
#
# Term instructions push columns of interned value ids; formula instructions
# push Boolean masks.  Variable references are resolved at compile time:
# T_FAST carries the number of frames to hop to the binder (selection frames
# count as hops but bind nothing), T_BASE carries ``(var, frames_to_base)``.
# AND/OR carry the right operand as a nested program (evaluated under a
# selection frame); ALL/ANY carry ``(body_program, var)`` (evaluated under a
# binder frame over the exploded bound sets).

(
    _T_FAST,
    _T_BASE,
    _T_UNIT,
    _T_PAIR,
    _T_PROJ1,
    _T_PROJ2,
    _F_EQ,
    _F_NEQ,
    _F_MEMBER,
    _F_NOT,
    _F_TOP,
    _F_BOTTOM,
    _F_AND,
    _F_OR,
    _F_ALL,
    _F_ANY,
) = range(16)

_Instr = Tuple[int, object]


def _compile_program(root: Formula) -> Tuple[List[_Instr], Tuple[Var, ...]]:
    """Compile ``root`` to a structured postfix program, iteratively.

    Returns the program plus the formula's free variables in first-reference
    order.  ``NotMember`` compiles to ``MEMBER; NOT``, so evaluation never
    builds a ``Member`` node.
    """
    program: List[_Instr] = []
    free: List[Var] = []
    seen: set = set()
    # Frames: (node, out, scope, payload).  Scope is innermost-first; a None
    # entry is a selection frame (short-circuit connective), a Var entry a
    # quantifier binder.  payload carries the nested program to emit.
    stack: List[tuple] = [(root, program, (), None)]
    while stack:
        node, out, scope, payload = stack.pop()
        cls = node.__class__
        if payload is not None:
            out.append(payload)
            continue
        if cls is Var:
            for hops, bound in enumerate(scope):
                if bound == node:
                    out.append((_T_FAST, hops))
                    break
            else:
                if node not in seen:
                    seen.add(node)
                    free.append(node)
                out.append((_T_BASE, (node, len(scope))))
        elif cls is UnitTerm:
            out.append((_T_UNIT, None))
        elif cls is PairTerm:
            stack.append((node, out, scope, (_T_PAIR, None)))
            stack.append((node.right, out, scope, None))
            stack.append((node.left, out, scope, None))
        elif cls is Proj:
            stack.append((node, out, scope, (_T_PROJ1 if node.index == 1 else _T_PROJ2, None)))
            stack.append((node.arg, out, scope, None))
        elif cls is EqUr or cls is NeqUr:
            stack.append((node, out, scope, (_F_EQ if cls is EqUr else _F_NEQ, None)))
            stack.append((node.right, out, scope, None))
            stack.append((node.left, out, scope, None))
        elif cls is Member or cls is NotMember:
            if cls is NotMember:
                stack.append((node, out, scope, (_F_NOT, None)))
            stack.append((node, out, scope, (_F_MEMBER, None)))
            stack.append((node.collection, out, scope, None))
            stack.append((node.elem, out, scope, None))
        elif cls is Top:
            out.append((_F_TOP, None))
        elif cls is Bottom:
            out.append((_F_BOTTOM, None))
        elif cls is And or cls is Or:
            right_program: List[_Instr] = []
            opcode = _F_AND if cls is And else _F_OR
            stack.append((node, out, scope, (opcode, right_program)))
            stack.append((node.right, right_program, (None,) + scope, None))
            stack.append((node.left, out, scope, None))
        elif cls is Forall or cls is Exists:
            body_program: List[_Instr] = []
            opcode = _F_ALL if cls is Forall else _F_ANY
            stack.append((node, out, scope, (opcode, (body_program, node.var))))
            stack.append((node.body, body_program, (node.var,) + scope, None))
            stack.append((node.bound, out, scope, None))
        else:
            raise EvaluationError(f"unknown formula {node!r}")
    return program, tuple(free)


# =====================================================================
# The interpreter
# =====================================================================


def _run_program(
    program: List[_Instr],
    frame: Optional[BatchFrame],
    base,
    interner: ValueInterner,
    nrows: int,
) -> List[bool]:
    """Run ``program`` over ``nrows`` rows; the top of the stack is the mask.

    ``frame`` is the innermost binder/selection level (``None`` at the base)
    and ``base`` supplies the free-variable columns.  Nested subprograms run
    recursively, one level per connective or quantifier.
    """
    stack: List[list] = []
    push = stack.append
    pop = stack.pop
    for op, arg in program:
        if op == _T_FAST:
            push(gather_binder_column(frame, arg))
        elif op == _T_BASE:
            var, hops = arg
            push(gather_base_column(frame, hops, base, var, nrows))
        elif op == _T_UNIT:
            push([interner.unit_id] * nrows)
        elif op == _T_PAIR:
            right = pop()
            push(interner.pair_column(pop(), right))
        elif op == _T_PROJ1 or op == _T_PROJ2:
            push(interner.proj_column(pop(), 1 if op == _T_PROJ1 else 2))
        elif op == _F_EQ:
            right = pop()
            left = pop()
            push([a == b for a, b in zip(left, right)])
        elif op == _F_NEQ:
            right = pop()
            left = pop()
            push([a != b for a, b in zip(left, right)])
        elif op == _F_MEMBER:
            collections = pop()
            elems = pop()
            member = interner.member
            push([member(e, c) for e, c in zip(elems, collections)])
        elif op == _F_NOT:
            push([not ok for ok in pop()])
        elif op == _F_TOP:
            push([True] * nrows)
        elif op == _F_BOTTOM:
            push([False] * nrows)
        elif op == _F_AND or op == _F_OR:
            left = pop()
            want = op == _F_AND
            selection = [row for row, ok in enumerate(left) if ok is want or ok == want]
            if not selection:
                push(left)  # fully decided by the left operand
                continue
            if len(selection) == nrows:
                push(_run_program(arg, BatchFrame(None, None, None, frame), base, interner, nrows))
                continue
            child = BatchFrame(None, None, selection, frame)
            right = _run_program(arg, child, base, interner, len(selection))
            out = [not want] * nrows
            for row, ok in zip(selection, right):
                out[row] = ok
            push(out)
        elif op == _F_ALL or op == _F_ANY:
            body_program, var = arg
            bounds = pop()
            member_column, rowmap, lengths = interner.explode_sets(bounds, _QUANT_ERROR)
            child = BatchFrame(var, member_column, rowmap, frame)
            body = _run_program(body_program, child, base, interner, len(member_column))
            reducer = reduce_segments_all if op == _F_ALL else reduce_segments_any
            push(reducer(body, lengths))
    return stack[-1]


# =====================================================================
# The compiled-program handle
# =====================================================================


class FormulaProgram:
    """A Δ0 formula compiled to a column program.

    :meth:`eval_mask` evaluates it over an assignment family: free-variable
    columns are interned once and rows are deduplicated on their id tuples,
    so each distinct row runs once.  ``rows_run`` counts the rows the
    program actually ran on.
    """

    __slots__ = ("formula", "free_vars", "program", "rows_run")

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        self.program, self.free_vars = _compile_program(formula)
        self.rows_run = 0

    def eval_mask(self, assignments: Sequence, interner: ValueInterner) -> List[bool]:
        """One Boolean per assignment, in order (the satisfying mask)."""
        nrows = len(assignments)
        if nrows == 0:
            return []
        free_vars = self.free_vars
        try:
            # Intern one column per free variable (row keys come out of a
            # C-level zip).  A row lacking a free variable raises KeyError
            # here and takes the lazy per-row path below, so unboundness only
            # surfaces if the row actually demands the variable (e.g. under a
            # quantifier whose bound is empty there).
            intern_value = interner.intern
            id_columns = [[intern_value(row[var]) for row in assignments] for var in free_vars]
        except KeyError:
            self.rows_run += nrows
            base = LazyColumns(assignments, interner, _unbound_var)
            return _run_program(self.program, None, base, interner, nrows)
        keys = zip(*id_columns) if id_columns else [()] * nrows
        rows_of: Dict[Tuple[int, ...], List[int]] = {}
        for row, key in enumerate(keys):
            slot = rows_of.get(key)
            if slot is None:
                rows_of[key] = [row]
            else:
                slot.append(row)
        unique_keys = list(rows_of)
        self.rows_run += len(unique_keys)
        columns = {var: [key[index] for key in unique_keys] for index, var in enumerate(free_vars)}
        results = _run_program(self.program, None, FixedColumns(columns, _unbound_var), interner, len(unique_keys))
        out = [False] * nrows
        for key, ok in zip(unique_keys, results):
            for row in rows_of[key]:
                out[row] = ok
        return out


def compile_formula(formula: Formula) -> FormulaProgram:
    """Compile ``formula`` once; cached per **interned** formula.

    Structurally equal formulas share one program: the cache lives on the
    hash-consed canonical node, so re-verification across synthesis
    iterations — which rebuilds specifications structurally — still hits it.
    """
    program = formula.__dict__.get("_fprog")
    if program is not None:
        return program
    canonical = intern(formula)
    program = canonical.__dict__.get("_fprog")
    if program is None:
        program = FormulaProgram(canonical)
        object.__setattr__(canonical, "_fprog", program)
    if canonical is not formula:
        object.__setattr__(formula, "_fprog", program)
    return program
