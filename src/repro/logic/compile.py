"""Compilation of Δ0 formulas to straight-line column programs.

The batched formula evaluator of PR 2 (`logic/semantics.py`) walked the
formula AST once per node per *family call*: every quantifier re-gathered its
free variables through freshly composed rowmaps and ``NotMember`` even
rebuilt a ``Member`` node per evaluation.  This module compiles a well-typed
formula **once** — exactly the way :mod:`repro.nrc.eval` compiles NRC
expressions — and caches the compiled program on the (hash-consed) formula
node, so proof-search-driven re-verification reuses both the program and its
per-row results.

Two backends share one postfix program over interned id columns
(:mod:`repro.nr.columns` is the substrate; frames/rowmaps are the
:class:`~repro.nr.columns.BatchFrame` machinery shared with
:mod:`repro.logic.semantics`):

* the primary backend generates straight-line Python source: terms become
  columnar kernel calls, atoms become fused ``zip`` comparisons, each
  quantifier becomes **one generated reduction loop** over its row segments,
  and ``And``/``Or`` short-circuit through **selection masks** — the right
  operand is evaluated only over the rows the left operand left undecided
  (a selection frame with a rowmap and no binder), matching the per-row
  evaluator's lazy semantics;
* a structured-program interpreter backs it up for formulas whose
  connective/binder nesting would make source generation itself recurse too
  deeply (the recursion-limit fallback, mirroring the NRC evaluator's
  deep-binder interpreter).

On top of either backend, :meth:`FormulaProgram.eval_mask` interns whole
*assignment rows*: the family is deduplicated on the interned ids of the
formula's free variables and, across calls with the same interner, rows seen
in earlier synthesis iterations are answered from a per-program memo without
re-evaluation.  Rows lacking a free variable fall back to the lazy
:class:`~repro.nr.columns.LazyColumns` path so "unbound only fails if
actually demanded" is preserved exactly.

Both caches — the program on the formula node and its row memo — live only
in the process that built them.  Nothing is written to disk: a fresh process
compiles each formula again.

The per-assignment :func:`repro.logic.semantics.eval_formula` remains the
differential-testing oracle for every backend (``tests/test_formula_compile.py``).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    compose_rowmap,
    gather_base_column,
    gather_binder_column,
    gather_column,
    reduce_segments_all,
    reduce_segments_any,
)

__all__ = [
    "BACKENDS",
    "FormulaProgram",
    "compile_formula",
    "eval_formula_columns",
]

#: Backend names accepted by :func:`compile_formula` (``None`` = auto).
BACKENDS = ("codegen", "interp")

#: Auto-selection thresholds: beyond either, source generation (which recurses
#: once per nested subprogram) falls back to the interpreter.
MAX_CODEGEN_DEPTH = 40
MAX_CODEGEN_NODES = 4000

_QUANT_ERROR = "quantifier bound evaluated to non-set %s"
_MISSING = object()


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
    order.  ``NotMember`` compiles to ``MEMBER; NOT`` — the membership test
    is compiled exactly once instead of rebuilding a fresh ``Member`` node on
    every evaluation (the PR 2 batcher's per-call rebuild).
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


def _program_metrics(program: List[_Instr]) -> Tuple[int, int]:
    """``(nesting_depth, instruction_count)`` over all nested subprograms."""
    deepest = 0
    count = 0
    stack: List[Tuple[List[_Instr], int]] = [(program, 0)]
    while stack:
        prog, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        count += len(prog)
        for op, arg in prog:
            if op == _F_AND or op == _F_OR:
                stack.append((arg, depth + 1))
            elif op == _F_ALL or op == _F_ANY:
                stack.append((arg[0], depth + 1))
    return deepest, count


# =====================================================================
# Backend 2: structured-program interpreter (deep-nesting fallback)
# =====================================================================


def _run_program(
    program: List[_Instr],
    frame: Optional[BatchFrame],
    base,
    interner: ValueInterner,
    nrows: int,
) -> List[bool]:
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
# Backend 1: source-code generation
# =====================================================================
#
# The generated function is *flat*: every instruction becomes one statement
# over whole columns, so nesting never accumulates Python block depth — the
# only loops are the per-quantifier segment reductions (and mask scatters),
# each of which closes immediately.  Alignment through quantifier and
# selection levels is carried by rowmap locals; composed maps and base-column
# gathers are cached per static region, so a variable referenced twice at the
# same level is gathered once (the PR 2 batcher re-composed per reference).


class _Region:
    """One static binder/selection level of the generated code."""

    __slots__ = ("kind", "var", "col_name", "rm_name", "n_name", "parent", "composed", "base_cache")

    def __init__(self, kind, var, col_name, rm_name, n_name, parent) -> None:
        self.kind = kind  # "q" | "s" | "base"
        self.var = var
        self.col_name = col_name
        self.rm_name = rm_name
        self.n_name = n_name
        self.parent = parent
        self.composed: Dict[int, str] = {}
        self.base_cache: Dict[Var, str] = {}


def _generate_source(program: List[_Instr]) -> Tuple[str, dict]:
    lines: List[str] = [
        "def _compiled(base, interner, nrows):",
        "    _pc = interner.pair_column",
        "    _pj = interner.proj_column",
        "    _mb = interner.member",
        "    _uid = interner.unit_id",
        "    _ex = interner.explode_sets",
    ]
    # The static globals of every generated runner; ``const`` adds the
    # per-program ``Var`` entries.
    consts: dict = {
        "_cmp": compose_rowmap,
        "_gc": gather_column,
        "_gb": gather_base_column_flat,
        "_sc": _scatter,
        "_QERR": _QUANT_ERROR,
        "_ra": reduce_segments_all,
        "_rn": reduce_segments_any,
        "all": all,
        "any": any,
        "len": len,
        "zip": zip,
        "enumerate": enumerate,
    }
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def const(prefix: str, obj) -> str:
        name = fresh(prefix)
        consts[name] = obj
        return name

    emit = lines.append

    def composed_map(region: _Region, hops: int) -> str:
        """Expression for the map current-rows → rows ``hops`` frames up."""
        if hops == 0:
            return "None"
        cached = region.composed.get(hops)
        if cached is not None:
            return cached
        previous = composed_map(region, hops - 1)
        step = region
        for _ in range(hops - 1):
            step = step.parent
        if previous == "None":
            expression = step.rm_name
        else:
            name = fresh("cm")
            emit(f"    {name} = _cmp({previous}, {step.rm_name})")
            expression = name
        region.composed[hops] = expression
        return expression

    def gen(prog: List[_Instr], region: _Region) -> str:
        names: List[str] = []
        push = names.append
        pop = names.pop
        n = region.n_name
        for op, arg in prog:
            if op == _T_FAST:
                if arg == 0:
                    push(region.col_name)
                    continue
                target_region = region
                for _ in range(arg):
                    target_region = target_region.parent
                rowmap = composed_map(region, arg)
                name = fresh("t")
                emit(f"    {name} = _gc({target_region.col_name}, {rowmap})")
                push(name)
            elif op == _T_BASE:
                var, hops = arg
                cached = region.base_cache.get(var)
                if cached is not None:
                    push(cached)
                    continue
                rowmap = composed_map(region, hops)
                cvar = const("v", var)
                name = fresh("t")
                emit(f"    {name} = _gb(base, {cvar}, {rowmap}, {n})")
                region.base_cache[var] = name
                push(name)
            elif op == _T_UNIT:
                name = fresh("t")
                emit(f"    {name} = [_uid] * {n}")
                push(name)
            elif op == _T_PAIR:
                right = pop()
                left = pop()
                name = fresh("t")
                emit(f"    {name} = _pc({left}, {right})")
                push(name)
            elif op == _T_PROJ1 or op == _T_PROJ2:
                argname = pop()
                name = fresh("t")
                emit(f"    {name} = _pj({argname}, {1 if op == _T_PROJ1 else 2})")
                push(name)
            elif op == _F_EQ or op == _F_NEQ:
                right = pop()
                left = pop()
                name = fresh("m")
                cmp = "==" if op == _F_EQ else "!="
                emit(f"    {name} = [a {cmp} b for a, b in zip({left}, {right})]")
                push(name)
            elif op == _F_MEMBER:
                collections = pop()
                elems = pop()
                name = fresh("m")
                emit(f"    {name} = [_mb(a, b) for a, b in zip({elems}, {collections})]")
                push(name)
            elif op == _F_NOT:
                inner = pop()
                name = fresh("m")
                emit(f"    {name} = [not a for a in {inner}]")
                push(name)
            elif op == _F_TOP or op == _F_BOTTOM:
                name = fresh("m")
                emit(f"    {name} = [{op == _F_TOP}] * {n}")
                push(name)
            elif op == _F_AND or op == _F_OR:
                left = pop()
                sel = fresh("s")
                sub_n = fresh("n")
                guard = "if ok" if op == _F_AND else "if not ok"
                emit(f"    {sel} = [i for i, ok in enumerate({left}) {guard}]")
                emit(f"    {sub_n} = len({sel})")
                # A selection keeping every row is the identity: a None rowmap
                # makes every downstream gather through it free.
                emit(f"    {sel} = None if {sub_n} == {n} else {sel}")
                child = _Region("s", None, None, sel, sub_n, region)
                right = gen(arg, child)
                name = fresh("m")
                default = "False" if op == _F_AND else "True"
                emit(f"    {name} = {right} if {sel} is None else _sc({right}, {sel}, {n}, {default})")
                push(name)
            else:  # _F_ALL / _F_ANY
                body_program, var = arg
                bounds = pop()
                col = fresh("bc")
                rowmap = fresh("rm")
                lengths = fresh("ln")
                sub_n = fresh("n")
                emit(f"    {col}, {rowmap}, {lengths} = _ex({bounds}, _QERR)")
                emit(f"    {sub_n} = len({col})")
                child = _Region("q", var, col, rowmap, sub_n, region)
                body = gen(body_program, child)
                out = fresh("m")
                reducer = "_ra" if op == _F_ALL else "_rn"
                emit(f"    {out} = {reducer}({body}, {lengths})")
                push(out)
        return names.pop()

    top = _Region("base", None, None, None, "nrows", None)
    result = gen(program, top)
    emit(f"    return {result}")
    return "\n".join(lines), consts


def gather_base_column_flat(base, var, rowmap, nrows: int) -> List[int]:
    """Generated-code helper: a base column through an already composed map."""
    if nrows == 0:
        return []
    return base.gather(var, rowmap)


def _scatter(values: List[bool], selection: List[int], nrows: int, default: bool) -> List[bool]:
    """Generated-code helper: scatter a selected sub-mask back to full width."""
    out = [default] * nrows
    for row, ok in zip(selection, values):
        out[row] = ok
    return out


def _compile_codegen(program: List[_Instr]) -> Callable:
    source, namespace = _generate_source(program)
    exec(compile(source, f"<delta0:{id(program)}>", "exec"), namespace)
    return namespace["_compiled"]


# =====================================================================
# The compiled-program handle
# =====================================================================


class FormulaProgram:
    """A Δ0 formula compiled to a column program, with row-level reuse.

    ``runner(base, interner, nrows)`` evaluates the program over base
    columns (anything with the ``column``/``gather`` surface).
    :meth:`eval_mask` adds the assignment-family front-end: free-variable
    columns are interned once, rows are deduplicated on their id tuples and
    — across calls sharing an interner — previously evaluated rows are
    answered from the program's memo (``stats["row_hits"]``), so repeated
    synthesis iterations skip every row they have already verified.
    """

    __slots__ = (
        "formula",
        "backend",
        "free_vars",
        "runner",
        "stats",
        "_memo",
        "_memo_interner",
    )

    def __init__(
        self,
        formula: Formula,
        backend: str,
        free_vars: Tuple[Var, ...],
        runner: Callable,
    ) -> None:
        self.formula = formula
        self.backend = backend
        self.free_vars = free_vars
        self.runner = runner
        #: ``rows`` counts rows submitted, ``row_hits`` rows answered from the
        #: memo, ``rows_run`` distinct rows the program actually executed on
        #: (in-family duplicates collapse before execution), ``runs`` program
        #: executions.
        self.stats: Dict[str, int] = {
            "rows": 0,
            "row_hits": 0,
            "rows_run": 0,
            "runs": 0,
        }
        self._memo: Dict[Tuple[int, ...], bool] = {}
        # A *weak* reference: programs live as long as their (hash-consed)
        # formula nodes, so a strong reference here would pin a rotated-out
        # shared interner — and its whole id space — until the next eval.
        self._memo_interner: Optional[weakref.ref] = None

    def run_columns(self, base, nrows: int, interner: ValueInterner) -> List[bool]:
        """Run the compiled program over prepared base columns."""
        self.stats["runs"] += 1
        return self.runner(base, interner, nrows)

    def eval_mask(
        self,
        assignments: Sequence,
        interner: ValueInterner,
        reuse_rows: bool = True,
    ) -> List[bool]:
        """One Boolean per assignment, in order (the satisfying mask)."""
        nrows = len(assignments)
        self.stats["rows"] += nrows
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
            self.stats["rows_run"] += nrows
            return self.run_columns(LazyColumns(assignments, interner, _unbound_var), nrows, interner)
        if reuse_rows:
            memo_interner = self._memo_interner
            if memo_interner is None or memo_interner() is not interner:
                self._memo_interner = weakref.ref(interner)
                self._memo = {}
            memo = self._memo
        else:
            memo = {}
        keys = zip(*id_columns) if id_columns else [()] * nrows
        out: List[Optional[bool]] = [False] * nrows
        pending: Dict[Tuple[int, ...], List[int]] = {}
        hits = 0
        for row, key in enumerate(keys):
            cached = memo.get(key, _MISSING)
            if cached is _MISSING:
                slot = pending.get(key)
                if slot is None:
                    pending[key] = [row]
                else:
                    slot.append(row)
            else:
                out[row] = cached
                hits += 1
        self.stats["row_hits"] += hits
        if pending:
            unique_keys = list(pending)
            self.stats["rows_run"] += len(unique_keys)
            columns = {
                var: [key[index] for key in unique_keys] for index, var in enumerate(free_vars)
            }
            results = self.run_columns(
                FixedColumns(columns, _unbound_var), len(unique_keys), interner
            )
            for key, ok in zip(unique_keys, results):
                memo[key] = ok
                for row in pending[key]:
                    out[row] = ok
        return out


def _build_program(formula: Formula, backend: Optional[str]) -> FormulaProgram:
    program, free_vars = _compile_program(formula)
    resolved = backend
    if resolved is None:
        depth, count = _program_metrics(program)
        resolved = "codegen" if depth <= MAX_CODEGEN_DEPTH and count <= MAX_CODEGEN_NODES else "interp"
    if resolved == "codegen":
        runner = _compile_codegen(program)
    elif resolved == "interp":

        def runner(base, interner, nrows, _program=program):
            return _run_program(_program, None, base, interner, nrows)

    else:
        raise ValueError(f"unknown formula backend {backend!r} (expected one of {BACKENDS})")
    return FormulaProgram(formula, resolved, free_vars, runner)


def compile_formula(formula: Formula, backend: Optional[str] = None) -> FormulaProgram:
    """Compile ``formula`` once; cached per **interned** formula and backend.

    ``backend`` of ``None`` auto-selects: source generation for everything
    whose nesting a recursive generator can handle, the interpreter beyond
    (see :data:`MAX_CODEGEN_DEPTH` / :data:`MAX_CODEGEN_NODES`).  Structurally
    equal formulas share one program: the cache lives on the hash-consed
    canonical node, so re-verification across synthesis iterations — which
    rebuilds specifications structurally — still hits it.
    """
    cache = formula.__dict__.get("_fprogs")
    if cache is not None:
        hit = cache.get(backend)
        if hit is not None:
            return hit
    canonical = intern(formula)
    cache = canonical.__dict__.get("_fprogs")
    if cache is None:
        cache = {}
        object.__setattr__(canonical, "_fprogs", cache)
    program = cache.get(backend)
    if program is None:
        program = _build_program(canonical, backend)
        cache[backend] = program
        # An auto-compile and an explicit request for the backend it picked
        # are the same program; alias so neither compiles twice.
        cache.setdefault(program.backend, program)
    if canonical is not formula:
        alias = formula.__dict__.get("_fprogs")
        if alias is None:
            alias = {}
            object.__setattr__(formula, "_fprogs", alias)
        alias[backend] = program
    return program


def eval_formula_columns(
    formula: Formula,
    columns: Dict[Var, List[int]],
    nrows: int,
    interner: ValueInterner,
    backend: Optional[str] = None,
) -> List[bool]:
    """Evaluate ``formula`` over base columns of already-interned ids.

    The id-level composition primitive: a batch's output ids (or a
    deduplicated row view) can feed the formula without externing values.
    """
    program = compile_formula(formula, backend=backend)
    return program.run_columns(FixedColumns(columns, _unbound_var), nrows, interner)
