"""Evaluation of NRC expressions over nested relational values.

``get`` on a non-singleton returns the default value of the element type
(Section 3 of the paper: "otherwise it returns some default object of the
appropriate type").

The evaluator compiles each expression **once** (cached on the frozen
expression node) into straight-line Python source and then runs that per
environment:

* each node becomes one statement and binding unions become ``for`` loops,
  so steady-state evaluation runs at hand-written-loop speed with no
  per-node dispatch at all;
* CPython caps static block nesting, so a binding union whose body would sit
  more than ``_MAX_GENERATED_BINDER_DEPTH`` binders deep is compiled as its
  own function and called with the enclosing loop variables added to the
  environment; deeper nesting splits again;
* compilation is iterative over the expression (an explicit stack), so
  10k-deep chains neither recurse nor overflow — only *binder nesting*
  consumes stack, one frame per split, and that is bounded by the query,
  not the data;
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


# =====================================================================
# Source-code generation
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
            elif cls is NBigUnion and indent > _MAX_GENERATED_BINDER_DEPTH:
                # Its body would nest too deep: run the union as its own
                # compiled function, with the enclosing loop variables added
                # to ``env`` outermost first, so a shadowing binder wins.
                runner = const("r", compile_nrc(node))
                bindings = "".join(f"{const('c', var)}: {loop}, " for var, loop in reversed(scope))
                target = fresh("t")
                lines.append(f"{pad}{target} = {runner}({{**env, {bindings}}})")
                names.append(target)
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
# Public API
# =====================================================================


def compile_nrc(expr: NRCExpr) -> Callable[[NRCEnv], Value]:
    """Compile ``expr`` once; returns ``run(env) -> Value`` (cached on the node)."""
    runner = expr.__dict__.get("_runner")
    if runner is None:
        runner = _compile_codegen(expr)
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
