"""Textual syntax for Δ0 specifications, terms and NRC expressions.

The grammar round-trips with the ``str``/:func:`repro.nrc.printer.pretty`
forms of every AST: ``parse(pretty(x)) == x`` structurally, which makes the
pretty forms a durable serialization for specs (the fuzz corpus under
``tests/corpus/`` is stored this way).  Whitespace and ``#`` line comments
are insignificant.

::

    type     ::= "Ur" | "Unit" | "Set" "(" type ")" | "(" type "x" type ")"
    term     ::= name | "(" ")" | "<" term "," term ">"
               | "pi1" "(" term ")" | "pi2" "(" term ")"
    formula  ::= "T" | "F"
               | term "=" term | term "!=" term
               | term "in" term | term "notin" term
               | "(" formula "&" formula ")" | "(" formula "|" formula ")"
               | "(" ("all" | "ex") name "in" term "." formula ")"
    expr     ::= name | "(" ")" | "<" expr "," expr ">"
               | "pi1" "(" expr ")" | "pi2" "(" expr ")"
               | "{" "}" | "{" expr "}" | "get" "(" expr ")"
               | "U" "{" expr "|" name "in" expr "}"
               | "(" expr "u" expr ")" | "(" expr "\\" expr ")"
    problem  ::= "problem" name "{" decl* "spec" formula "}"
    decl     ::= ("input" | "output" | "aux") name ":" type ";"

Most keywords are *contextual*: ``pi1``/``pi2``/``get``/``U`` act as
operators only when immediately followed by their opening bracket, ``u`` is
the union operator only in operator position, and ``T``/``F`` are the
constant formulas only when not followed by a relational operator — so
variables with those names still parse.  The structural keywords
(``all``/``ex``/``in``/``notin``/``problem``/``input``/``output``/``aux``/
``spec``/``Ur``/``Unit``/``Set``) are reserved and rejected as variable
names.

Types come from the declaration environment: free variables look their type
up, and bound variables reconstruct theirs from the bound collection (the
typing rules force ``var.typ == bound_type.elem``, so this is lossless for
well-typed input).  The one genuinely ambiguous token is the empty set
``{}``, whose element type does not appear in its printed form; the parser
resolves it bidirectionally (from an expected type flowing down, or from the
sibling of a union/difference) and reports a positioned error where neither
source is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
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
from repro.logic.terms import PairTerm, Proj, Term, UnitTerm, Var, term_type
from repro.nr.types import UNIT, UR, ProdType, SetType, Type
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
from repro.nrc.printer import pretty_formula
from repro.nrc.typing import infer_type
from repro.specs.problems import ImplicitDefinitionProblem

__all__ = [
    "SpecParseError",
    "parse_type",
    "parse_term",
    "parse_formula",
    "parse_expr",
    "parse_problem",
    "pretty_problem",
    "problem_env",
    "RESERVED_NAMES",
    "MAX_NESTING",
]

#: Names the parser refuses to treat as variables (structural keywords).
RESERVED_NAMES = frozenset(
    {
        "all",
        "ex",
        "in",
        "notin",
        "problem",
        "input",
        "output",
        "aux",
        "spec",
        "Ur",
        "Unit",
        "Set",
    }
)

_RELOPS = ("=", "!=", "in", "notin")

#: Deepest bracket nesting (``(``, ``<``, ``{`` together) a text may have.
#: Parsing, and every later pass over a parsed specification, recurses once
#: per level; the cap turns an over-deep text into a positioned
#: :class:`SpecParseError` instead of a ``RecursionError`` somewhere
#: downstream.  The deepest registry specification nests 12 levels.
MAX_NESTING = 128
_OPENERS = frozenset("(<{")
_CLOSERS = frozenset(")>}")


class SpecParseError(ReproError):
    """A spec text failed to parse; carries the 1-based source position."""

    def __init__(self, reason: str, *, line: int, column: int, offset: int) -> None:
        super().__init__(f"{reason} (line {line}, column {column})")
        self.reason = reason
        self.line = line
        self.column = column
        self.offset = offset

    def position(self) -> Dict[str, int]:
        """The position payload carried on the ``parse_error`` wire detail."""
        return {"line": self.line, "column": self.column, "offset": self.offset}


class _CannotInferEmpty(Exception):
    """Internal: a ``{}`` was reached with no expected type (maybe retried)."""

    def __init__(self, token: "_Token") -> None:
        self.token = token


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "punct" | "eof"
    value: str
    offset: int
    line: int
    column: int


def _describe(token: _Token) -> str:
    if token.kind == "eof":
        return "end of input"
    return repr(token.value)


_PUNCT_CHARS = set("(){}<>,.|=:;\\&")


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    depth = 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("!=", i):
            tokens.append(_Token("punct", "!=", i, line, col))
            i += 2
            col += 2
            continue
        if ch == "!":
            raise SpecParseError("expected '!=' after '!'", line=line, column=col, offset=i)
        if ch in _PUNCT_CHARS:
            if ch in _OPENERS:
                depth += 1
                if depth > MAX_NESTING:
                    raise SpecParseError(
                        f"brackets nest deeper than {MAX_NESTING} levels",
                        line=line,
                        column=col,
                        offset=i,
                    )
            elif ch in _CLOSERS:
                depth -= 1
            tokens.append(_Token("punct", ch, i, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i, line, col))
            col += j - i
            i = j
            continue
        raise SpecParseError(f"unexpected character {ch!r}", line=line, column=col, offset=i)
    tokens.append(_Token("eof", "", n, line, col))
    return tokens


@dataclass(frozen=True)
class _Node:
    """One untyped concrete-syntax node; ``token`` anchors error positions."""

    kind: str
    token: _Token
    parts: Tuple[object, ...] = ()


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------- primitives
    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos = min(self.pos + 1, len(self.tokens) - 1)
        return token

    def fail(self, reason: str, token: Optional[_Token] = None) -> None:
        tok = token or self.peek()
        raise SpecParseError(reason, line=tok.line, column=tok.column, offset=tok.offset)

    def expect(self, value: str, context: str = "") -> _Token:
        token = self.advance()
        if token.kind == "eof" or token.value != value:
            suffix = f" {context}" if context else ""
            self.fail(f"expected {value!r}{suffix}, found {_describe(token)}", token)
        return token

    def expect_name(self, what: str = "a name") -> _Token:
        token = self.advance()
        if token.kind != "name":
            self.fail(f"expected {what}, found {_describe(token)}", token)
        return token

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {_describe(self.peek())}")

    def check_variable_name(self, token: _Token) -> str:
        if token.value in RESERVED_NAMES:
            self.fail(f"{token.value!r} is a reserved keyword, not a variable name", token)
        return token.value

    # ------------------------------------------------------------------ types
    def parse_type(self) -> Type:
        token = self.advance()
        if token.value == "Ur":
            return UR
        if token.value == "Unit":
            return UNIT
        if token.value == "Set":
            self.expect("(", "after 'Set'")
            elem = self.parse_type()
            self.expect(")", "to close 'Set('")
            return SetType(elem)
        if token.value == "(":
            left = self.parse_type()
            self.expect("x", "between product components")
            right = self.parse_type()
            self.expect(")", "to close the product type")
            return ProdType(left, right)
        self.fail("expected a type: Ur, Unit, Set(T) or (T x U)", token)
        raise AssertionError  # pragma: no cover - fail always raises

    # ------------------------------------------------------------------ terms
    def parse_term_cst(self) -> _Node:
        token = self.advance()
        if token.value == "(":
            self.expect(")", "to close the unit term")
            return _Node("unit", token)
        if token.value == "<":
            left = self.parse_term_cst()
            self.expect(",", "between pair components")
            right = self.parse_term_cst()
            self.expect(">", "to close the pair")
            return _Node("pair", token, (left, right))
        if token.value in ("pi1", "pi2") and self.peek().value == "(":
            self.advance()
            arg = self.parse_term_cst()
            self.expect(")", f"to close '{token.value}('")
            return _Node("proj", token, (1 if token.value == "pi1" else 2, arg))
        if token.kind == "name":
            self.check_variable_name(token)
            return _Node("name", token, (token.value,))
        self.fail("expected a term", token)
        raise AssertionError  # pragma: no cover

    # --------------------------------------------------------------- formulas
    def parse_formula_cst(self) -> _Node:
        token = self.peek()
        if token.value == "(":
            if self.peek(1).value in ("all", "ex"):
                return self._parse_quantifier()
            if self.peek(1).value == ")":
                return self._parse_atom()  # an atom whose left term is ()
            open_token = self.advance()
            left = self.parse_formula_cst()
            op = self.advance()
            if op.value == ")":
                return left  # tolerated redundant grouping
            if op.value not in ("&", "|"):
                self.fail(f"expected '&', '|' or ')', found {_describe(op)}", op)
            right = self.parse_formula_cst()
            self.expect(")", "to close the connective")
            return _Node("and" if op.value == "&" else "or", open_token, (left, right))
        if token.value in ("T", "F") and self.peek(1).value not in _RELOPS:
            self.advance()
            return _Node("top" if token.value == "T" else "bottom", token)
        return self._parse_atom()

    def _parse_quantifier(self) -> _Node:
        open_token = self.expect("(")
        keyword = self.advance()  # all | ex
        var_token = self.expect_name("a bound variable name")
        self.check_variable_name(var_token)
        self.expect("in", "after the bound variable")
        bound = self.parse_term_cst()
        self.expect(".", "after the quantifier bound")
        body = self.parse_formula_cst()
        self.expect(")", "to close the quantifier")
        kind = "forall" if keyword.value == "all" else "exists"
        return _Node(kind, open_token, (var_token.value, bound, body))

    def _parse_atom(self) -> _Node:
        left = self.parse_term_cst()
        op = self.advance()
        if op.value not in _RELOPS:
            self.fail(f"expected '=', '!=', 'in' or 'notin', found {_describe(op)}", op)
        right = self.parse_term_cst()
        kind = {"=": "eq", "!=": "neq", "in": "member", "notin": "notmember"}[op.value]
        return _Node(kind, left.token, (left, right))

    # -------------------------------------------------------- NRC expressions
    def parse_expr_cst(self) -> _Node:
        token = self.advance()
        if token.value == "(":
            if self.peek().value == ")":
                self.advance()
                return _Node("unit", token)
            left = self.parse_expr_cst()
            op = self.advance()
            if op.value == ")":
                return left  # tolerated redundant grouping
            if op.value == "u":
                kind = "union"
            elif op.value == "\\":
                kind = "diff"
            else:
                self.fail(f"expected 'u', '\\\\' or ')', found {_describe(op)}", op)
            right = self.parse_expr_cst()
            self.expect(")", "to close the set operation")
            return _Node(kind, token, (left, right))
        if token.value == "<":
            left = self.parse_expr_cst()
            self.expect(",", "between pair components")
            right = self.parse_expr_cst()
            self.expect(">", "to close the pair")
            return _Node("pair", token, (left, right))
        if token.value in ("pi1", "pi2") and self.peek().value == "(":
            self.advance()
            arg = self.parse_expr_cst()
            self.expect(")", f"to close '{token.value}('")
            return _Node("proj", token, (1 if token.value == "pi1" else 2, arg))
        if token.value == "get" and self.peek().value == "(":
            self.advance()
            arg = self.parse_expr_cst()
            self.expect(")", "to close 'get('")
            return _Node("get", token, (arg,))
        if token.value == "U" and self.peek().value == "{":
            self.advance()
            body = self.parse_expr_cst()
            self.expect("|", "between the body and binder of U{...}")
            var_token = self.expect_name("the bound variable of U{...}")
            self.check_variable_name(var_token)
            self.expect("in", "after the bound variable")
            source = self.parse_expr_cst()
            self.expect("}", "to close 'U{'")
            return _Node("bigunion", token, (body, var_token.value, source))
        if token.value == "{":
            if self.peek().value == "}":
                self.advance()
                return _Node("empty", token)
            arg = self.parse_expr_cst()
            self.expect("}", "to close the singleton")
            return _Node("singleton", token, (arg,))
        if token.kind == "name":
            self.check_variable_name(token)
            return _Node("name", token, (token.value,))
        self.fail("expected an NRC expression", token)
        raise AssertionError  # pragma: no cover

    # ------------------------------------------------------------ elaboration
    def elab_term(self, node: _Node, env: Dict[str, Type]) -> Term:
        if node.kind == "unit":
            return UnitTerm()
        if node.kind == "name":
            name = node.parts[0]
            typ = env.get(name)
            if typ is None:
                self.fail(f"unknown variable {name!r}", node.token)
            return Var(name, typ)
        if node.kind == "pair":
            return PairTerm(self.elab_term(node.parts[0], env), self.elab_term(node.parts[1], env))
        if node.kind == "proj":
            index, arg_node = node.parts
            arg = self.elab_term(arg_node, env)
            if not self.term_sort(arg, arg_node).is_prod():
                self.fail(f"pi{index} applied to a non-product term", node.token)
            return Proj(index, arg)
        raise AssertionError(f"unknown term node {node.kind}")  # pragma: no cover

    def term_sort(self, term: Term, node: _Node) -> Type:
        try:
            return term_type(term)
        except ReproError as exc:
            self.fail(str(exc), node.token)
            raise AssertionError  # pragma: no cover

    def elab_formula(self, node: _Node, env: Dict[str, Type]) -> Formula:
        kind = node.kind
        if kind == "top":
            return Top()
        if kind == "bottom":
            return Bottom()
        if kind in ("and", "or"):
            left = self.elab_formula(node.parts[0], env)
            right = self.elab_formula(node.parts[1], env)
            return And(left, right) if kind == "and" else Or(left, right)
        if kind in ("forall", "exists"):
            var_name, bound_node, body_node = node.parts
            bound = self.elab_term(bound_node, env)
            bound_type = self.term_sort(bound, bound_node)
            if not bound_type.is_set():
                self.fail(
                    f"quantifier bound has type {bound_type}, expected a Set(...)",
                    bound_node.token,
                )
            var = Var(var_name, bound_type.elem)
            body = self.elab_formula(body_node, {**env, var_name: bound_type.elem})
            return Forall(var, bound, body) if kind == "forall" else Exists(var, bound, body)
        if kind in ("eq", "neq"):
            left_node, right_node = node.parts
            left = self.elab_term(left_node, env)
            right = self.elab_term(right_node, env)
            for side, side_node in ((left, left_node), (right, right_node)):
                if not self.term_sort(side, side_node).is_ur():
                    self.fail(
                        f"equality compares Ur terms, got type {self.term_sort(side, side_node)}",
                        side_node.token,
                    )
            return EqUr(left, right) if kind == "eq" else NeqUr(left, right)
        if kind in ("member", "notmember"):
            elem_node, coll_node = node.parts
            elem = self.elab_term(elem_node, env)
            coll = self.elab_term(coll_node, env)
            coll_type = self.term_sort(coll, coll_node)
            if not coll_type.is_set():
                self.fail(
                    f"membership needs a Set(...) collection, got type {coll_type}",
                    coll_node.token,
                )
            if coll_type.elem != self.term_sort(elem, elem_node):
                self.fail(
                    f"membership element has type {self.term_sort(elem, elem_node)}, "
                    f"collection holds {coll_type.elem}",
                    elem_node.token,
                )
            return Member(elem, coll) if kind == "member" else NotMember(elem, coll)
        raise AssertionError(f"unknown formula node {kind}")  # pragma: no cover

    def elab_expr(
        self, node: _Node, env: Dict[str, Type], expected: Optional[Type]
    ) -> NRCExpr:
        kind = node.kind
        if kind == "name":
            name = node.parts[0]
            typ = env.get(name)
            if typ is None:
                self.fail(f"unknown variable {name!r}", node.token)
            return NVar(name, typ)
        if kind == "unit":
            return NUnit()
        if kind == "empty":
            if isinstance(expected, SetType):
                return NEmpty(expected.elem)
            raise _CannotInferEmpty(node.token)
        if kind == "pair":
            left_expected = expected.left if isinstance(expected, ProdType) else None
            right_expected = expected.right if isinstance(expected, ProdType) else None
            return NPair(
                self.elab_expr(node.parts[0], env, left_expected),
                self.elab_expr(node.parts[1], env, right_expected),
            )
        if kind == "proj":
            index, arg_node = node.parts
            return NProj(index, self.elab_expr(arg_node, env, None))
        if kind == "singleton":
            elem_expected = expected.elem if isinstance(expected, SetType) else None
            return NSingleton(self.elab_expr(node.parts[0], env, elem_expected))
        if kind == "get":
            arg_expected = SetType(expected) if expected is not None else None
            return NGet(self.elab_expr(node.parts[0], env, arg_expected))
        if kind == "bigunion":
            body_node, var_name, source_node = node.parts
            try:
                source = self.elab_expr(source_node, env, None)
            except _CannotInferEmpty as exc:
                raise SpecParseError(
                    "cannot infer the element type of {} as a U{...} source",
                    line=exc.token.line,
                    column=exc.token.column,
                    offset=exc.token.offset,
                ) from None
            source_type = self.expr_type(source, source_node)
            if not source_type.is_set():
                self.fail(
                    f"U{{...}} source has type {source_type}, expected a Set(...)",
                    source_node.token,
                )
            var = NVar(var_name, source_type.elem)
            body = self.elab_expr(body_node, {**env, var_name: source_type.elem}, expected)
            return NBigUnion(body, var, source)
        if kind in ("union", "diff"):
            left_node, right_node = node.parts
            try:
                left: Optional[NRCExpr] = self.elab_expr(left_node, env, expected)
            except _CannotInferEmpty:
                left = None
            if left is not None and expected is None:
                # Give the right side the left's type so a bare {} resolves.
                expected = self.expr_type(left, left_node)
            right = self.elab_expr(right_node, env, expected)
            if left is None:
                left = self.elab_expr(left_node, env, self.expr_type(right, right_node))
            return NUnion(left, right) if kind == "union" else NDiff(left, right)
        raise AssertionError(f"unknown expression node {kind}")  # pragma: no cover

    def expr_type(self, expr: NRCExpr, node: _Node) -> Type:
        try:
            return infer_type(expr)
        except ReproError as exc:
            self.fail(str(exc), node.token)
            raise AssertionError  # pragma: no cover


# -------------------------------------------------------------------- public
def parse_type(text: str) -> Type:
    """Parse a nested relational type (``Ur``, ``Set(Ur)``, ``(Ur x Ur)``...)."""
    parser = _Parser(text)
    typ = parser.parse_type()
    parser.expect_eof()
    return typ


def parse_term(text: str, env: Dict[str, Type]) -> Term:
    """Parse a logic term; free variables take their types from ``env``."""
    parser = _Parser(text)
    node = parser.parse_term_cst()
    parser.expect_eof()
    return parser.elab_term(node, dict(env))


def parse_formula(text: str, env: Dict[str, Type]) -> Formula:
    """Parse a Δ0 formula; free variables take their types from ``env``."""
    parser = _Parser(text)
    node = parser.parse_formula_cst()
    parser.expect_eof()
    return parser.elab_formula(node, dict(env))


def parse_expr(
    text: str, env: Dict[str, Type], expected: Optional[Type] = None
) -> NRCExpr:
    """Parse an NRC expression; ``expected`` (if given) flows down to resolve
    the element type of otherwise-ambiguous ``{}`` occurrences."""
    parser = _Parser(text)
    node = parser.parse_expr_cst()
    parser.expect_eof()
    try:
        return parser.elab_expr(node, dict(env), expected)
    except _CannotInferEmpty as exc:
        raise SpecParseError(
            "cannot infer the element type of {} here (no expected type)",
            line=exc.token.line,
            column=exc.token.column,
            offset=exc.token.offset,
        ) from None


def parse_problem(text: str) -> ImplicitDefinitionProblem:
    """Parse a full ``problem name { decls... spec formula }`` block."""
    parser = _Parser(text)
    parser.expect("problem", "at the start of a specification")
    name_token = parser.expect_name("a problem name")
    parser.expect("{", "to open the problem block")
    env: Dict[str, Type] = {}
    inputs: List[Var] = []
    outputs: List[Var] = []
    auxiliaries: List[Var] = []
    buckets = {"input": inputs, "output": outputs, "aux": auxiliaries}
    while parser.peek().value in buckets:
        keyword = parser.advance()
        var_token = parser.expect_name(f"a variable name after '{keyword.value}'")
        parser.check_variable_name(var_token)
        if var_token.value in env:
            parser.fail(f"duplicate declaration of {var_token.value!r}", var_token)
        parser.expect(":", "before the variable's type")
        typ = parser.parse_type()
        parser.expect(";", "to end the declaration")
        env[var_token.value] = typ
        buckets[keyword.value].append(Var(var_token.value, typ))
    spec_token = parser.expect("spec", "after the variable declarations")
    formula_node = parser.parse_formula_cst()
    parser.expect("}", "to close the problem block")
    parser.expect_eof()
    if len(outputs) != 1:
        parser.fail(
            f"a problem declares exactly one output variable, found {len(outputs)}",
            name_token,
        )
    phi = parser.elab_formula(formula_node, env)
    try:
        return ImplicitDefinitionProblem(
            name_token.value, phi, tuple(inputs), outputs[0], tuple(auxiliaries)
        )
    except ReproError as exc:
        raise SpecParseError(
            f"invalid specification: {exc}",
            line=spec_token.line,
            column=spec_token.column,
            offset=spec_token.offset,
        ) from exc


def problem_env(problem: ImplicitDefinitionProblem) -> Dict[str, Type]:
    """The name → type environment a problem's declarations induce."""
    env = {var.name: var.typ for var in problem.inputs}
    env.update({var.name: var.typ for var in problem.auxiliaries})
    env[problem.output.name] = problem.output.typ
    return env


def pretty_problem(problem: ImplicitDefinitionProblem, max_width: int = 72) -> str:
    """Render a problem as spec text; ``parse_problem`` inverts this exactly."""
    lines = [f"problem {problem.name} {{"]
    for var in problem.inputs:
        lines.append(f"  input {var.name} : {var.typ};")
    for var in problem.auxiliaries:
        lines.append(f"  aux {var.name} : {var.typ};")
    lines.append(f"  output {problem.output.name} : {problem.output.typ};")
    lines.append("  spec")
    lines.append(pretty_formula(problem.phi, max_width=max_width, depth=2))
    lines.append("}")
    return "\n".join(lines) + "\n"
