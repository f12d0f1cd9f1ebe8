"""Evaluation of NRC expressions over nested relational values.

``get`` on a non-singleton returns the default value of the element type
(Section 3 of the paper: "otherwise it returns some default object of the
appropriate type").

The evaluator compiles each expression **once** (cached on the frozen
expression node) and then runs the compiled form per environment:

* the primary backend generates straight-line Python source (one statement
  per node, binding unions become ``for`` loops), so steady-state evaluation
  runs at hand-written-loop speed with no per-node dispatch at all;
* a postfix instruction interpreter backs it up for expressions whose binder
  nesting exceeds CPython's static block limit;
* both backends are iterative over the expression (compilation and the
  interpreter use explicit stacks), so 10k-deep chains neither recurse nor
  overflow — only *binder nesting* consumes stack, and that is bounded by
  the query, not the data;
* binders extend the environment with an O(1) loop variable / chain link
  instead of copying the whole environment dict per ``NBigUnion``;
* ``get`` defaults resolve through the memoized :func:`repro.nrc.typing.infer_type`.

There is no columnar backend: verification evaluates its candidate once per
satisfying assignment (:mod:`repro.synthesis.verification`), and at that
size the compiled per-environment code beats a batch over interned ids.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.nr.types import SetType
from repro.nr.values import PairValue, SetValue, UnitValue, Value, default_value
from repro.nrc.expr import (
    NBigUnion,
    NDiff,
    NEmpty,
    NGet,
    NPair,
    NProj,
    NRCExpr,
    NSingleton,
    NUnion,
    NUnit,
    NVar,
)
from repro.nrc.typing import infer_type

#: Environment binding NRC variables (by the ``NVar`` object) to values.
NRCEnv = Mapping[NVar, Value]

_UNIT = UnitValue()
_EMPTY = SetValue(frozenset())
_MISSING = object()

#: CPython rejects functions with more than 20 statically nested blocks; stay
#: comfortably below it (every binder is one ``for`` block in generated code).
_MAX_GENERATED_BINDER_DEPTH = 16


def _unbound(var: NVar) -> Value:
    raise EvaluationError(f"unbound NRC variable {var} : {var.typ}")


def _get_default(node: NGet) -> Value:
    """The default returned by ``get`` on a non-singleton (lazy, like the seed)."""
    arg_type = infer_type(node.arg)
    if not isinstance(arg_type, SetType):
        raise EvaluationError(f"get of non-set-typed expression {node.arg}")
    return default_value(arg_type.elem)


def _binder_depth(root: NRCExpr) -> int:
    """Maximum *body*-side ``NBigUnion`` nesting of ``root`` (iterative).

    Only body nesting matters: generated code indents one ``for`` block per
    binder **body**, while source-chained unions (the shape
    ``bigunion-flatten`` produces) evaluate sequentially at the same depth.
    """
    deepest = 0
    stack: List[Tuple[NRCExpr, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if type(node) is NBigUnion:
            body_depth = depth + 1
            if body_depth > deepest:
                deepest = body_depth
            stack.append((node.body, body_depth))
            stack.append((node.source, depth))
        else:
            for child in node.children():
                stack.append((child, depth))
    return deepest


# =====================================================================
# Backend 1: source-code generation
# =====================================================================
#
# Each node becomes one Python statement; the value of a node is held in a
# fresh local (or referenced directly by name for variables).  A binding
# union becomes::
#
#     if not isinstance(t3, SetValue): <raise>
#     a4 = set()
#     for b4 in t3.elements:
#         ...body statements...
#         if not isinstance(t9, SetValue): <raise>
#         a4 |= t9.elements
#     t10 = SetValue(frozenset(a4))
#
# with the singleton-body peephole (``U{ {e} | x ∈ src }``) adding the
# element directly instead of building a one-element set per iteration.
# Emission is an explicit-stack post-order walk pushing result *names* onto a
# compile-time name stack — the runtime never touches a dispatch loop.


def _generate_source(root: NRCExpr) -> Tuple[str, dict]:
    lines: List[str] = ["def _compiled(env):"]
    consts: dict = {
        "SetValue": SetValue,
        "PairValue": PairValue,
        "frozenset": frozenset,
        "isinstance": isinstance,
        "EvaluationError": EvaluationError,
        "_unbound": _unbound,
        "_get_default": _get_default,
        "_MISSING": _MISSING,
        "_UNIT": _UNIT,
        "_EMPTY": _EMPTY,
    }
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def const(prefix: str, obj) -> str:
        name = fresh(prefix)
        consts[name] = obj
        return name

    # Prefetch the free variables once per call (with a lazy unbound check at
    # each use, preserving the seed's "only fails if actually evaluated").
    globals_seen: dict = {}

    def global_names(var: NVar) -> Tuple[str, str]:
        entry = globals_seen.get(var)
        if entry is None:
            cname = const("c", var)
            gname = fresh("g")
            entry = (gname, cname)
            globals_seen[var] = entry
            lines.insert(1, f"    {gname} = env.get({cname}, _MISSING)")
        return entry

    names: List[str] = []  # compile-time stack of result names
    # Frames: (node, indent, scope, emit) — scope maps binder NVar -> loop name.
    stack: List[Tuple[NRCExpr, int, tuple, bool]] = [(root, 1, (), False)]
    while stack:
        node, indent, scope, emit = stack.pop()
        pad = "    " * indent
        cls = node.__class__
        if not emit:
            if cls is NVar:
                for bound, loop_name in scope:
                    if bound == node:
                        names.append(loop_name)
                        break
                else:
                    gname, cname = global_names(node)
                    lines.append(f"{pad}if {gname} is _MISSING: _unbound({cname})")
                    names.append(gname)
            elif cls is NUnit:
                names.append("_UNIT")
            elif cls is NEmpty:
                names.append("_EMPTY")
            elif cls is NBigUnion:
                stack.append((node, indent, scope, True))
                body = node.body
                peephole = type(body) is NSingleton
                loop_name = fresh("b")
                inner_scope = ((node.var, loop_name),) + scope
                stack.append((body.arg if peephole else body, indent + 1, inner_scope, False))
                # Source is evaluated outside the binder scope.
                stack.append((node.source, indent, scope, False))
                object.__setattr__(node, "_loop_name", loop_name)
            elif cls in (NPair, NUnion, NDiff):
                stack.append((node, indent, scope, True))
                stack.append((node.right, indent, scope, False))
                stack.append((node.left, indent, scope, False))
            elif cls in (NProj, NSingleton, NGet):
                stack.append((node, indent, scope, True))
                stack.append((node.arg, indent, scope, False))
            else:
                raise EvaluationError(f"unknown NRC expression {node!r}")
            continue
        if cls is NPair:
            right = names.pop()
            left = names.pop()
            target = fresh("t")
            lines.append(f"{pad}{target} = PairValue({left}, {right})")
            names.append(target)
        elif cls is NProj:
            arg = names.pop()
            target = fresh("t")
            lines.append(
                f"{pad}if not isinstance({arg}, PairValue): "
                f"raise EvaluationError('projection of non-pair value %s' % ({arg},))"
            )
            field = "first" if node.index == 1 else "second"
            lines.append(f"{pad}{target} = {arg}.{field}")
            names.append(target)
        elif cls is NSingleton:
            arg = names.pop()
            target = fresh("t")
            lines.append(f"{pad}{target} = SetValue(frozenset(({arg},)))")
            names.append(target)
        elif cls is NGet:
            arg = names.pop()
            target = fresh("t")
            getter = const("n", node)
            lines.append(
                f"{pad}if not isinstance({arg}, SetValue): "
                f"raise EvaluationError('get of non-set value %s' % ({arg},))"
            )
            lines.append(f"{pad}{target}_e = {arg}.elements")
            lines.append(
                f"{pad}{target} = next(iter({target}_e)) if len({target}_e) == 1 "
                f"else _get_default({getter})"
            )
            names.append(target)
        elif cls is NUnion or cls is NDiff:
            right = names.pop()
            left = names.pop()
            target = fresh("t")
            op, word = ("|", "union") if cls is NUnion else ("-", "difference")
            lines.append(
                f"{pad}if not isinstance({left}, SetValue) or not isinstance({right}, SetValue): "
                f"raise EvaluationError('{word} of non-set values')"
            )
            lines.append(f"{pad}{target} = SetValue({left}.elements {op} {right}.elements)")
            names.append(target)
        else:  # NBigUnion: emitted after source and body statements exist.
            body_name = names.pop()
            source_name = names.pop()
            loop_name = node.__dict__.pop("_loop_name")
            acc = fresh("a")
            target = fresh("t")
            peephole = type(node.body) is NSingleton
            inner_pad = pad + "    "
            body_lines = _extract_loop_body(lines, indent)
            lines.append(
                f"{pad}if not isinstance({source_name}, SetValue): "
                f"raise EvaluationError('union-bind over non-set value %s' % ({source_name},))"
            )
            lines.append(f"{pad}{acc} = set()")
            lines.append(f"{pad}for {loop_name} in {source_name}.elements:")
            if body_lines:
                lines.extend(body_lines)
            if peephole:
                lines.append(f"{inner_pad}{acc}.add({body_name})")
            else:
                lines.append(
                    f"{inner_pad}if not isinstance({body_name}, SetValue): "
                    f"raise EvaluationError('union-bind body evaluated to non-set %s' % ({body_name},))"
                )
                lines.append(f"{inner_pad}{acc} |= {body_name}.elements")
            lines.append(f"{pad}{target} = SetValue(frozenset({acc}))")
            names.append(target)
    lines.append(f"    return {names.pop()}")
    return "\n".join(lines), consts


def _extract_loop_body(lines: List[str], outer_indent: int) -> List[str]:
    """Pop the trailing statements emitted for a binder body (deeper indent).

    Body statements were appended before the ``for`` header exists; move them
    out so they can be re-appended inside the loop.
    """
    prefix = "    " * (outer_indent + 1)
    split = len(lines)
    while split > 1 and lines[split - 1].startswith(prefix):
        split -= 1
    body = lines[split:]
    del lines[split:]
    return body


def _compile_codegen(root: NRCExpr) -> Callable[[NRCEnv], Value]:
    source, namespace = _generate_source(root)
    exec(compile(source, f"<nrc:{id(root)}>", "exec"), namespace)
    return namespace["_compiled"]


# =====================================================================
# Backend 2: postfix instruction interpreter (deep-binder fallback)
# =====================================================================

(
    _LOADFAST,
    _LOADGLOBAL,
    _UNIT_OP,
    _PAIR,
    _PROJ1,
    _PROJ2,
    _SING,
    _GET,
    _EMPTY_OP,
    _UNION,
    _DIFF,
    _BIGU,
) = range(12)

#: One instruction: (opcode, operand).  Variable references are resolved at
#: compile time: LOADFAST carries the number of environment links to hop to
#: the binder (de Bruijn-style), LOADGLOBAL carries ``(var, links_to_base)``
#: for free variables looked up in the caller's mapping.  GET carries the
#: ``NGet`` node (defaults resolve its argument type lazily, matching the
#: seed's behavior on ill-typed-but-evaluable programs); BIGU carries the
#: ``(body_program, var)`` pair.
_Instr = Tuple[int, object]


class _Link:
    """One binder extension of the environment: an O(1) chain link."""

    __slots__ = ("value", "parent")

    def __init__(self, value: Optional[Value], parent) -> None:
        self.value = value
        self.parent = parent


def _compile_program(root: NRCExpr) -> List[_Instr]:
    """Compile ``root`` to a postfix program, iteratively (deep-chain safe)."""
    program: List[_Instr] = []
    # Frames: (node, out, scope, emit).  First visit pushes children; second emits.
    stack = [(root, program, (), False)]
    while stack:
        node, out, scope, emit = stack.pop()
        cls = node.__class__
        if not emit:
            if cls is NVar:
                for hops, bound in enumerate(scope):
                    if bound == node:
                        out.append((_LOADFAST, hops))
                        break
                else:
                    out.append((_LOADGLOBAL, (node, len(scope))))
            elif cls is NUnit:
                out.append((_UNIT_OP, None))
            elif cls is NEmpty:
                out.append((_EMPTY_OP, None))
            elif cls is NBigUnion:
                body_program: List[_Instr] = []
                stack.append((node, out, scope, True))
                # The source program is emitted inline (before the BIGU
                # instruction); the body program is the BIGU operand and is
                # compiled under the extended binder scope.
                stack.append((node.source, out, scope, False))
                stack.append((node.body, body_program, (node.var,) + scope, False))
                object.__setattr__(node, "_body_prog", body_program)
            elif cls in (NPair, NUnion, NDiff):
                stack.append((node, out, scope, True))
                stack.append((node.right, out, scope, False))
                stack.append((node.left, out, scope, False))
            elif cls in (NProj, NSingleton, NGet):
                stack.append((node, out, scope, True))
                stack.append((node.arg, out, scope, False))
            else:
                raise EvaluationError(f"unknown NRC expression {node!r}")
            continue
        if cls is NPair:
            out.append((_PAIR, None))
        elif cls is NProj:
            out.append((_PROJ1 if node.index == 1 else _PROJ2, None))
        elif cls is NSingleton:
            out.append((_SING, None))
        elif cls is NGet:
            out.append((_GET, node))
        elif cls is NUnion:
            out.append((_UNION, None))
        elif cls is NDiff:
            out.append((_DIFF, None))
        else:  # NBigUnion
            body_program = node.__dict__.pop("_body_prog")
            out.append((_BIGU, (body_program, node.var)))
    return program


def _run(program: List[_Instr], env) -> Value:
    stack: List[Value] = []
    push = stack.append
    pop = stack.pop
    for op, arg in program:
        if op == _LOADFAST:
            frame = env
            for _ in range(arg):
                frame = frame.parent
            push(frame.value)
        elif op == _LOADGLOBAL:
            var, hops = arg
            frame = env
            for _ in range(hops):
                frame = frame.parent
            try:
                push(frame[var])
            except KeyError as exc:
                raise EvaluationError(f"unbound NRC variable {var} : {var.typ}") from exc
        elif op == _PAIR:
            right = pop()
            left = pop()
            push(PairValue(left, right))
        elif op == _PROJ1 or op == _PROJ2:
            value = pop()
            if not isinstance(value, PairValue):
                raise EvaluationError(f"projection of non-pair value {value}")
            push(value.first if op == _PROJ1 else value.second)
        elif op == _SING:
            push(SetValue(frozenset((pop(),))))
        elif op == _GET:
            value = pop()
            if not isinstance(value, SetValue):
                raise EvaluationError(f"get of non-set value {value}")
            if len(value.elements) == 1:
                push(next(iter(value.elements)))
            else:
                push(_get_default(arg))
        elif op == _UNION:
            right = pop()
            left = pop()
            if not isinstance(left, SetValue) or not isinstance(right, SetValue):
                raise EvaluationError("union of non-set values")
            push(SetValue(left.elements | right.elements))
        elif op == _DIFF:
            right = pop()
            left = pop()
            if not isinstance(left, SetValue) or not isinstance(right, SetValue):
                raise EvaluationError("difference of non-set values")
            push(SetValue(left.elements - right.elements))
        elif op == _BIGU:
            source = pop()
            if not isinstance(source, SetValue):
                raise EvaluationError(f"union-bind over non-set value {source}")
            body_program, _var = arg
            link = _Link(None, env)
            accumulated: set = set()
            for element in source.elements:
                link.value = element
                body_value = _run(body_program, link)
                if not isinstance(body_value, SetValue):
                    raise EvaluationError(f"union-bind body evaluated to non-set {body_value}")
                accumulated.update(body_value.elements)
            push(SetValue(frozenset(accumulated)))
        elif op == _UNIT_OP:
            push(_UNIT)
        else:  # _EMPTY_OP
            push(_EMPTY)
    return stack[-1]


# =====================================================================
# Public API
# =====================================================================


def compile_nrc(expr: NRCExpr) -> Callable[[NRCEnv], Value]:
    """Compile ``expr`` once; returns ``run(env) -> Value`` (cached on the node)."""
    runner = expr.__dict__.get("_runner")
    if runner is None:
        if _binder_depth(expr) <= _MAX_GENERATED_BINDER_DEPTH:
            runner = _compile_codegen(expr)
        else:
            program = _compile_program(expr)

            def runner(env: NRCEnv, _program=program) -> Value:
                return _run(_program, env)

        object.__setattr__(expr, "_runner", runner)
    return runner


def eval_nrc(expr: NRCExpr, env: NRCEnv) -> Value:
    """Evaluate ``expr`` under the environment ``env``."""
    runner = expr.__dict__.get("_runner")
    if runner is None:
        runner = compile_nrc(expr)
    return runner(env)


def eval_nrc_batch(expr: NRCExpr, envs: Sequence[NRCEnv], interner: Optional[object] = None) -> List[Value]:
    """Evaluate ``expr`` under each environment of ``envs``, in order.

    Kept for the ``query_eval`` benchmark harness, which measures this entry
    point by name.  It is plain per-environment :func:`eval_nrc`.
    ``interner`` is accepted and ignored.
    """
    return [eval_nrc(expr, env) for env in envs]
