"""Seeded Δ0 workload fuzzer: generate → synthesize → differential-check → shrink.

The generator draws random *composition-free* NRC expressions over typed
input variables and turns each into an implicit-definition problem via
:func:`repro.specs.io_spec.io_specification` — so every generated spec is
implicitly definable **by construction** and the prover is expected to
succeed on all of them.  Each spec then runs through a differential gauntlet:

* printer/parser round-trips (problem text and expression text, at several
  widths) must reproduce the exact AST;
* the synthesis pipeline must produce a definition;
* the simplified definition must evaluate like the raw extracted one on
  every instance (``eval_nrc``);
* the synthesized definition must agree with the generating expression on
  random instances, with the specification filtered both by the compiled
  formula program and by the per-assignment ``eval_formula``
  (:func:`repro.synthesis.verification.check_explicit_definition`);
* the specification itself must pass ``check_implicitly_defines`` on the
  same instances, batched and unbatched.

Any failure is minimized by :func:`shrink_failure` — greedy subtree
replacement on the *generating expression*, re-running only the failed check
— and reported with the minimized spec text, ready to be checked into
``tests/corpus/`` as a permanent regression.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.logic.terms import Var
from repro.nr.types import ProdType, SetType, Type, UR
from repro.nr.values import Value, pair, ur, vset
from repro.nrc.compose import nrc_free_vars
from repro.nrc.eval import eval_nrc
from repro.nrc.expr import (
    NBigUnion,
    NDiff,
    NEmpty,
    NPair,
    NProj,
    NRCExpr,
    NSingleton,
    NUnion,
    NVar,
)
from repro.nrc.printer import pretty
from repro.nrc.typing import infer_type
from repro.proofs.search import ProofSearch
from repro.service import api
from repro.service.pipeline import SynthesisPipeline
from repro.service.server import RemoteService
from repro.specs.io_spec import io_specification, is_composition_free
from repro.specs.lang import parse_expr, parse_problem, pretty_problem
from repro.specs.problems import ImplicitDefinitionProblem
from repro.synthesis.verification import check_explicit_definition

__all__ = [
    "GeneratedSpec",
    "FuzzFailure",
    "FuzzReport",
    "DifferentialChecker",
    "generate_spec",
    "build_spec",
    "mutate_spec",
    "shrink_failure",
    "run_fuzz",
]

#: Ur atoms instance generation draws from.
_ATOM_POOL = 6
#: Input variable types the generator draws from (weighted).
_INPUT_TYPES: Tuple[Type, ...] = (
    SetType(UR),
    SetType(UR),
    SetType(UR),
    SetType(ProdType(UR, UR)),
)
_ROUNDTRIP_WIDTHS = (0, 24, 72, 10000)


@dataclass
class GeneratedSpec:
    """One fuzz case: the generating expression and its derived problem."""

    index: int
    problem: ImplicitDefinitionProblem
    expr: NRCExpr
    instances: List[Dict[Var, Value]]

    @property
    def name(self) -> str:
        return self.problem.name

    def env(self) -> Dict[str, Type]:
        return {var.name: var.typ for var in self.problem.inputs}

    def spec_text(self) -> str:
        return pretty_problem(self.problem)


@dataclass(frozen=True)
class FuzzFailure:
    """One (minimized) fuzz finding."""

    kind: str  # "roundtrip" | "prover" | "verify" | "simplify" | "differential" | "remote"
    index: int
    name: str
    detail: str
    spec_text: str
    minimized: bool = False


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    seed: int
    count: int
    checked: int = 0
    synthesized: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


# ------------------------------------------------------------------ generator
def _random_value(rng: random.Random, typ: Type) -> Value:
    if isinstance(typ, SetType):
        size = rng.randint(0, 3)
        return vset(_random_value(rng, typ.elem) for _ in range(size))
    if isinstance(typ, ProdType):
        return pair(_random_value(rng, typ.left), _random_value(rng, typ.right))
    if typ.is_unit():
        from repro.nr.values import UnitValue

        return UnitValue()
    return ur(rng.randrange(_ATOM_POOL))


def _gen_elem_term(rng: random.Random, typ: Type, scope: Sequence[NVar], depth: int) -> Optional[NRCExpr]:
    """A term-like expression of ``typ`` over the element-typed ``scope`` vars."""
    atoms: List[NRCExpr] = []
    for var in scope:
        if var.typ == typ:
            atoms.append(var)
        if isinstance(var.typ, ProdType):
            if var.typ.left == typ:
                atoms.append(NProj(1, var))
            if var.typ.right == typ:
                atoms.append(NProj(2, var))
    if atoms and (depth <= 0 or not isinstance(typ, ProdType) or rng.random() < 0.6):
        return rng.choice(atoms)
    if isinstance(typ, ProdType) and depth > 0:
        left = _gen_elem_term(rng, typ.left, scope, depth - 1)
        right = _gen_elem_term(rng, typ.right, scope, depth - 1)
        if left is not None and right is not None:
            return NPair(left, right)
    return rng.choice(atoms) if atoms else None


def _gen_set_expr(
    rng: random.Random,
    typ: SetType,
    inputs: Sequence[NVar],
    scope: Sequence[NVar],
    depth: int,
) -> Optional[NRCExpr]:
    """A composition-free set expression of type ``typ``."""
    matching = [var for var in inputs if var.typ == typ]
    choices: List[str] = []
    if matching:
        choices.extend(["var"] * 4)
    if depth > 0:
        choices.extend(["union", "union", "diff"])
        singleton = _gen_elem_term(rng, typ.elem, scope, 1)
        if singleton is not None:
            choices.extend(["singleton"] * 2)
        if any(isinstance(var.typ, SetType) for var in inputs):
            choices.extend(["bigunion"] * 2)
    choices.append("empty")
    kind = rng.choice(choices)
    if kind == "var":
        return rng.choice(matching)
    if kind == "empty":
        return NEmpty(typ.elem)
    if kind == "singleton":
        term = _gen_elem_term(rng, typ.elem, scope, 1)
        return None if term is None else NSingleton(term)
    if kind in ("union", "diff"):
        left = _gen_set_expr(rng, typ, inputs, scope, depth - 1)
        right = _gen_set_expr(rng, typ, inputs, scope, depth - 1)
        if left is None or right is None:
            return None
        return NUnion(left, right) if kind == "union" else NDiff(left, right)
    # bigunion: bind over one of the set-typed inputs, build a body of ``typ``.
    source = rng.choice([var for var in inputs if isinstance(var.typ, SetType)])
    bound = NVar(f"x{depth}", source.typ.elem)
    body = _gen_set_expr(rng, typ, inputs, list(scope) + [bound], depth - 1)
    if body is None:
        return None
    return NBigUnion(body, bound, source)


def build_spec(
    expr: NRCExpr,
    name: str,
    rng: random.Random,
    index: int = 0,
    instance_count: int = 3,
) -> GeneratedSpec:
    """Derive the implicit-definition problem and instance family of ``expr``."""
    expr_type = infer_type(expr)
    output = Var("O", expr_type)
    phi = io_specification(expr, output)
    free = sorted(nrc_free_vars(expr), key=lambda var: var.name)
    inputs = tuple(Var(var.name, var.typ) for var in free)
    problem = ImplicitDefinitionProblem(name, phi, inputs, output)
    instances: List[Dict[Var, Value]] = []
    for _ in range(instance_count):
        env = {var: _random_value(rng, var.typ) for var in free}
        assignment = {Var(var.name, var.typ): value for var, value in env.items()}
        assignment[output] = eval_nrc(expr, env)
        instances.append(assignment)
    return GeneratedSpec(index=index, problem=problem, expr=expr, instances=instances)


def generate_spec(seed: int, index: int, instance_count: int = 3) -> GeneratedSpec:
    """The ``index``-th spec of the seeded stream (deterministic per pair)."""
    rng = random.Random(f"{seed}:{index}")
    while True:
        count = rng.randint(1, 3)
        inputs = [NVar(f"I{i + 1}", rng.choice(_INPUT_TYPES)) for i in range(count)]
        target = SetType(UR) if rng.random() < 0.7 else rng.choice(inputs).typ
        if not isinstance(target, SetType):  # pragma: no cover - pool is all sets
            target = SetType(UR)
        expr = _gen_set_expr(rng, target, inputs, [], depth=rng.randint(1, 3))
        if expr is None or not nrc_free_vars(expr):
            continue
        if not is_composition_free(expr):  # pragma: no cover - by construction
            continue
        return build_spec(expr, f"fuzz_{index:04d}", rng, index, instance_count)


# ------------------------------------------------------------------- checking
class DifferentialChecker:
    """Runs one generated spec through every layer and reports the first failure."""

    def __init__(
        self,
        max_depth: int = 12,
        widths: Sequence[int] = _ROUNDTRIP_WIDTHS,
        url: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.max_depth = max_depth
        self.widths = tuple(widths)
        self.remote = RemoteService(url, timeout=timeout) if url else None

    def check(self, spec: GeneratedSpec) -> Optional[FuzzFailure]:
        return (
            self._check_roundtrip(spec)
            or self._check_pipeline(spec)
            or self._check_remote(spec)
        )

    def _failure(self, spec: GeneratedSpec, kind: str, detail: str) -> FuzzFailure:
        return FuzzFailure(
            kind=kind,
            index=spec.index,
            name=spec.name,
            detail=detail,
            spec_text=spec.spec_text(),
        )

    def _check_roundtrip(self, spec: GeneratedSpec) -> Optional[FuzzFailure]:
        env = spec.env()
        expr_type = infer_type(spec.expr)
        for width in self.widths:
            text = pretty(spec.expr, max_width=width)
            try:
                reparsed = parse_expr(text, env, expected=expr_type)
            except ReproError as exc:
                return self._failure(
                    spec, "roundtrip", f"expr at width {width} failed to parse: {exc}"
                )
            if reparsed != spec.expr:
                return self._failure(
                    spec,
                    "roundtrip",
                    f"expr at width {width} reparsed differently: {reparsed}",
                )
        for width in self.widths:
            text = pretty_problem(spec.problem, max_width=width)
            try:
                reparsed_problem = parse_problem(text)
            except ReproError as exc:
                return self._failure(
                    spec, "roundtrip", f"problem at width {width} failed to parse: {exc}"
                )
            if reparsed_problem != spec.problem:
                return self._failure(
                    spec, "roundtrip", f"problem at width {width} reparsed differently"
                )
        canonical = spec.spec_text()
        if pretty_problem(parse_problem(canonical)) != canonical:
            return self._failure(spec, "roundtrip", "pretty ∘ parse ∘ pretty is not identity")
        return None

    def _check_pipeline(self, spec: GeneratedSpec) -> Optional[FuzzFailure]:
        depth = self.max_depth
        pipeline = SynthesisPipeline(search_factory=lambda: ProofSearch(max_depth=depth))
        try:
            report = pipeline.run(spec.problem, spec.instances)
        except ReproError as exc:
            return self._failure(spec, "prover", f"{type(exc).__name__}: {exc}")
        result = report.result
        if result is None:  # pragma: no cover - pipeline always sets result
            return self._failure(spec, "prover", "pipeline returned no result")
        # A simplifier bug would also fail verification; checking it first
        # names the layer at fault.
        simplify_failure = self._check_simplify(spec, result)
        if simplify_failure is not None:
            return simplify_failure
        if report.verification is not None and not report.verification.ok:
            return self._failure(
                spec,
                "verify",
                f"synthesized definition disagrees on "
                f"{len(report.verification.mismatches)} instance(s): {result.expression}",
            )
        # Differential: compiled vs per-assignment formula filtering, for the
        # synthesized definition and for the specification itself.
        try:
            batched = check_explicit_definition(
                spec.problem, result.expression, spec.instances, batched=True
            )
            unbatched = check_explicit_definition(
                spec.problem, result.expression, spec.instances, batched=False
            )
        except ReproError as exc:
            return self._failure(spec, "differential", f"evaluator crashed: {exc}")
        if (batched.ok, batched.satisfying) != (unbatched.ok, unbatched.satisfying):
            return self._failure(
                spec,
                "differential",
                f"batched={batched.ok}/{batched.satisfying} vs "
                f"unbatched={unbatched.ok}/{unbatched.satisfying}",
            )
        if not unbatched.ok or unbatched.satisfying != len(spec.instances):
            return self._failure(
                spec,
                "differential",
                f"constructed instances not all satisfying: "
                f"{unbatched.satisfying}/{len(spec.instances)} ok={unbatched.ok}",
            )
        for flag in (True, False):
            if not spec.problem.check_implicitly_defines(spec.instances, batched=flag):
                return self._failure(
                    spec, "differential", f"check_implicitly_defines(batched={flag}) is False"
                )
        self._local_expression = str(result.expression)
        return None

    def _check_simplify(self, spec: GeneratedSpec, result) -> Optional[FuzzFailure]:
        """The simplifier must not change what the extracted definition means."""
        if result.raw_expression is None:
            return None
        envs = [
            {NVar(var.name, var.typ): instance[var] for var in spec.problem.inputs}
            for instance in spec.instances
        ]
        try:
            raw = [eval_nrc(result.raw_expression, env) for env in envs]
            simplified = [eval_nrc(result.expression, env) for env in envs]
        except ReproError as exc:
            return self._failure(spec, "simplify", f"evaluator crashed: {exc}")
        for index, (got, want) in enumerate(zip(simplified, raw)):
            if got != want:
                return self._failure(
                    spec,
                    "simplify",
                    f"eval_nrc(simplified) disagrees with eval_nrc(raw) on instance {index}: "
                    f"{result.raw_expression} simplified to {result.expression}",
                )
        return None

    def _check_remote(self, spec: GeneratedSpec) -> Optional[FuzzFailure]:
        if self.remote is None:
            return None
        request = api.SynthesizeRequest(spec_text=spec.spec_text(), max_depth=self.max_depth)
        try:
            remote_expression = self.remote.synthesize(request).expression
        except api.ApiError as exc:
            return self._failure(spec, "remote", f"server error: {exc.code}: {exc.message}")
        local_expression = getattr(self, "_local_expression", None)
        if local_expression is not None and remote_expression != local_expression:
            return self._failure(
                spec,
                "remote",
                f"server synthesized {remote_expression!r}, local {local_expression!r}",
            )
        return None


# ------------------------------------------------------------------ shrinking
def _replacement_candidates(expr: NRCExpr) -> Iterator[NRCExpr]:
    """Strictly smaller same-typed replacements for ``expr``, smallest first."""
    typ = infer_type(expr)
    seen = set()
    if isinstance(typ, SetType):
        empty = NEmpty(typ.elem)
        if expr != empty:
            seen.add(empty)
            yield empty
    for child in expr.children():
        try:
            if infer_type(child) == typ and child != expr and child not in seen:
                seen.add(child)
                yield child
        except ReproError:
            continue
    # One level deeper (e.g. the operands of a nested union).
    for child in expr.children():
        for grandchild in child.children():
            try:
                if infer_type(grandchild) == typ and grandchild not in seen:
                    seen.add(grandchild)
                    yield grandchild
            except ReproError:
                continue


def _shrink_steps(expr: NRCExpr) -> Iterator[NRCExpr]:
    """Every expression one shrink step away from ``expr``."""
    yield from _replacement_candidates(expr)
    children = expr.children()
    for position, child in enumerate(children):
        for smaller in _shrink_steps(child):
            rebuilt = list(children)
            rebuilt[position] = smaller
            try:
                yield expr.rebuild(tuple(rebuilt))
            except ReproError:
                continue


def shrink_failure(
    spec: GeneratedSpec,
    failure: FuzzFailure,
    checker: DifferentialChecker,
    max_steps: int = 200,
) -> Tuple[GeneratedSpec, FuzzFailure]:
    """Greedily minimize ``spec`` while the same failure kind reproduces."""
    rng = random.Random(f"shrink:{spec.index}")

    def rebuild(expr: NRCExpr) -> Optional[GeneratedSpec]:
        try:
            candidate = build_spec(
                expr, spec.name, rng, spec.index, instance_count=len(spec.instances) or 3
            )
        except ReproError:
            return None
        return candidate

    current_spec, current_failure = spec, failure
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for smaller in _shrink_steps(current_spec.expr):
            steps += 1
            if steps >= max_steps:
                break
            candidate = rebuild(smaller)
            if candidate is None or not nrc_free_vars(candidate.expr):
                continue
            candidate_failure = checker.check(candidate)
            if candidate_failure is not None and candidate_failure.kind == failure.kind:
                current_spec, current_failure = candidate, candidate_failure
                progress = True
                break
    minimized = FuzzFailure(
        kind=current_failure.kind,
        index=current_failure.index,
        name=current_failure.name,
        detail=current_failure.detail,
        spec_text=current_spec.spec_text(),
        minimized=True,
    )
    return current_spec, minimized


# ------------------------------------------------------------------- mutation
def _swap_steps(expr: NRCExpr) -> Iterator[NRCExpr]:
    """Operand-order edits: each ∪/∖ node with its two operands swapped."""
    if isinstance(expr, (NUnion, NDiff)):
        left, right = expr.children()
        if left != right:
            yield expr.rebuild((right, left))
    children = expr.children()
    for position, child in enumerate(children):
        for swapped in _swap_steps(child):
            rebuilt = list(children)
            rebuilt[position] = swapped
            try:
                yield expr.rebuild(tuple(rebuilt))
            except ReproError:
                continue


def _mutation_steps(expr: NRCExpr) -> Iterator[NRCExpr]:
    """Every expression one *edit* away from ``expr``: shrinks plus swaps."""
    yield from _shrink_steps(expr)
    yield from _swap_steps(expr)


def mutate_spec(
    spec: GeneratedSpec, rng: random.Random, instance_count: int = 3
) -> Optional[GeneratedSpec]:
    """A one-subtree edit of ``spec``, rebuilt into a fresh problem.

    The edited spec differs from ``spec`` in exactly one subtree (a shrink
    or an operand swap), like an interactive edit; the ``http_serve``
    benchmark builds its edit requests with it.  Returns ``None`` when no
    edit keeps at least one free input variable.
    """
    candidates: List[NRCExpr] = []
    for candidate in _mutation_steps(spec.expr):
        if candidate != spec.expr and nrc_free_vars(candidate):
            candidates.append(candidate)
    if not candidates:
        return None
    chosen = rng.choice(candidates)
    try:
        return build_spec(
            chosen, f"{spec.name}_edited", rng, spec.index, instance_count=instance_count
        )
    except ReproError:
        return None


# ------------------------------------------------------------------- the loop
def run_fuzz(
    seed: int = 0,
    count: int = 100,
    max_depth: int = 12,
    instance_count: int = 3,
    url: Optional[str] = None,
    shrink: bool = True,
    on_event: Optional[Callable[[str, object], None]] = None,
) -> FuzzReport:
    """Drive ``count`` generated specs through the differential gauntlet.

    ``on_event(kind, payload)`` receives ``("progress", index)`` heartbeats
    and ``("failure", FuzzFailure)`` for each (minimized) finding.
    """
    checker = DifferentialChecker(max_depth=max_depth, url=url)
    report = FuzzReport(seed=seed, count=count)
    started = time.perf_counter()
    for index in range(count):
        spec = generate_spec(seed, index, instance_count=instance_count)
        failure = checker.check(spec)
        report.checked += 1
        if failure is None:
            report.synthesized += 1
        else:
            if shrink:
                _, failure = shrink_failure(spec, failure, checker)
            report.failures.append(failure)
            if on_event is not None:
                on_event("failure", failure)
        if on_event is not None and (index + 1) % 25 == 0:
            on_event("progress", index + 1)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def replay_spec_text(
    text: str, max_depth: int = 12, instance_count: int = 3, seed: int = 0
) -> Optional[FuzzFailure]:
    """Re-run one corpus spec text through the full differential gauntlet.

    The text's problem is re-derived from its own structure: round-trip
    checks use the parsed problem directly; instance-based checks need the
    generating expression, which corpus entries do not carry, so replay
    validates parse/print stability and synthesizability instead.
    """
    from repro.specs.lang import SpecParseError

    try:
        problem = parse_problem(text)
    except SpecParseError as exc:
        return FuzzFailure(
            kind="parse", index=-1, name="<unparsed>", detail=str(exc), spec_text=text
        )
    canonical = pretty_problem(problem)
    if parse_problem(canonical) != problem:
        return FuzzFailure(
            kind="roundtrip",
            index=-1,
            name=problem.name,
            detail="corpus spec does not round-trip",
            spec_text=text,
        )
    depth = max_depth
    pipeline = SynthesisPipeline(search_factory=lambda: ProofSearch(max_depth=depth))
    try:
        report = pipeline.run(problem)
    except ReproError as exc:
        return FuzzFailure(
            kind="prover",
            index=-1,
            name=problem.name,
            detail=f"{type(exc).__name__}: {exc}",
            spec_text=text,
        )
    if report.result is None:  # pragma: no cover - pipeline always sets result
        return FuzzFailure(
            kind="prover", index=-1, name=problem.name, detail="no result", spec_text=text
        )
    return None
