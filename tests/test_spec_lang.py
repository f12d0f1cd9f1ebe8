"""Spec language: round-trips, parse errors, corpus replay, spec_text API.

The contract under test is ``parse(pretty(x)) == x`` for types, terms,
formulas, expressions and whole problems — at several rendering widths, so
both the compact and the multi-line layouts stay parseable — plus the
service-layer ``spec_text`` path that rides on it.
"""

import glob
import os
import random

import pytest

from repro.nr.types import SetType, UR
from repro.nr.values import ur, vset
from repro.nrc.eval import eval_nrc
from repro.nrc.expr import NBigUnion, NVar
from repro.nrc.printer import pretty, pretty_formula
from repro.nrc.typing import infer_type
from repro.proofs.search import ProofSearch
from repro.service import api
from repro.service.pipeline import SynthesisPipeline
from repro.service.registry import default_registry
from repro.specs.fuzz import build_spec, generate_spec, replay_spec_text, run_fuzz
from repro.specs.lang import (
    MAX_NESTING,
    SpecParseError,
    parse_expr,
    parse_formula,
    parse_problem,
    pretty_problem,
    problem_env,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_SPECS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.spec")))

WIDTHS = (0, 24, 72, 10000)


# ------------------------------------------------------------- round-trips
@pytest.mark.parametrize("index", range(25))
def test_generated_specs_round_trip(index):
    spec = generate_spec(seed=7, index=index)
    env = spec.env()
    expr_type = infer_type(spec.expr)
    for width in WIDTHS:
        assert parse_expr(pretty(spec.expr, max_width=width), env, expected=expr_type) == spec.expr
        assert parse_problem(pretty_problem(spec.problem, max_width=width)) == spec.problem
    canonical = spec.spec_text()
    assert pretty_problem(parse_problem(canonical)) == canonical


@pytest.mark.parametrize(
    "name", sorted(entry.name for entry in default_registry().entries())
)
def test_registry_problems_round_trip_byte_identically(name):
    problem = default_registry().get(name).problem()
    text = pretty_problem(problem)
    reparsed = parse_problem(text)
    assert reparsed == problem
    assert pretty_problem(reparsed) == text


def test_formula_round_trip_through_pretty_formula():
    problem = default_registry().get("intersection_view").problem()
    env = problem_env(problem)
    for width in WIDTHS:
        text = pretty_formula(problem.phi, max_width=width)
        assert parse_formula(text, env) == problem.phi


# ------------------------------------------------------------ parse errors
def test_parse_error_reports_position():
    text = "problem p {\n  input I : Set(Ur);\n  output O : Set(Ur)\n  spec T\n}"
    with pytest.raises(SpecParseError) as excinfo:
        parse_problem(text)  # missing ';' after the output declaration
    error = excinfo.value
    assert error.line == 4
    assert error.column > 0
    assert error.position() == {
        "line": error.line,
        "column": error.column,
        "offset": error.offset,
    }
    assert f"line {error.line}" in str(error)


def test_parse_error_offset_points_at_the_token():
    text = "problem p { input I : Set(Ur); output O : Set(Ur); spec ??? }"
    with pytest.raises(SpecParseError) as excinfo:
        parse_problem(text)
    assert text[excinfo.value.offset] == "?"


def test_reserved_names_are_rejected_as_variables():
    text = "problem p { input all : Set(Ur); output O : Set(Ur); spec T }"
    with pytest.raises(SpecParseError):
        parse_problem(text)


# ------------------------------------------------------------------ corpus
@pytest.mark.parametrize(
    "path", CORPUS_SPECS, ids=[os.path.basename(path) for path in CORPUS_SPECS]
)
def test_corpus_spec_replays_clean(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert replay_spec_text(text) is None


def test_corpus_is_not_empty():
    assert CORPUS_SPECS, "tests/corpus/ must hold the minimized fuzz findings"


# --------------------------------------------- interpolation guard regression
def test_vacuous_bigunion_keeps_the_bound_inhabitedness_guard():
    """The fuzzer's first catch: ``U{I1 | x in I2}`` must not synthesize to
    plain ``I1`` — when I2 is empty the union is empty, so the guard that the
    bound is inhabited has to survive interpolation."""
    expr = NBigUnion(NVar("I1", SetType(UR)), NVar("x", UR), NVar("I2", SetType(UR)))
    spec = build_spec(expr, "vacuous_bigunion_guard", random.Random(0))
    pipeline = SynthesisPipeline(search_factory=lambda: ProofSearch(max_depth=12))
    report = pipeline.run(spec.problem, spec.instances)
    assert report.result is not None
    synthesized = report.result.expression
    env = {
        NVar("I1", SetType(UR)): vset([ur(0)]),
        NVar("I2", SetType(UR)): vset([]),
    }
    assert eval_nrc(synthesized, env) == vset([])
    env[NVar("I2", SetType(UR))] = vset([ur(1)])
    assert eval_nrc(synthesized, env) == vset([ur(0)])


# ------------------------------------------------------------ fuzz harness
def test_fuzz_smoke_is_clean():
    report = run_fuzz(seed=0, count=30)
    assert report.checked == 30
    assert report.synthesized == 30
    assert report.ok, [f.detail for f in report.failures]


def test_shrinker_minimizes_a_seeded_failure():
    """Force a failure (an impossible differential check via a broken checker
    subclass would be artificial) — instead check the shrinker's contract on
    a synthetic failure that always reproduces: the minimized spec is no
    larger than the original."""
    from repro.specs.fuzz import DifferentialChecker, FuzzFailure, shrink_failure

    spec = generate_spec(seed=3, index=4)

    class AlwaysFails(DifferentialChecker):
        def check(self, candidate):
            return FuzzFailure(
                kind="verify",
                index=candidate.index,
                name=candidate.name,
                detail="synthetic",
                spec_text=candidate.spec_text(),
            )

    _, minimized = shrink_failure(spec, AlwaysFails().check(spec), AlwaysFails())
    assert minimized.minimized
    assert len(minimized.spec_text) <= len(spec.spec_text())


def test_fuzz_reports_a_broken_simplifier_as_a_simplify_failure(monkeypatch):
    from repro.nrc.expr import NEmpty
    from repro.nrc.simplify import simplify_with_stats
    from repro.service import pipeline
    from repro.specs.fuzz import DifferentialChecker

    def broken(expr):
        simplified, stats = simplify_with_stats(expr)
        return NEmpty(infer_type(simplified).elem), stats

    monkeypatch.setattr(pipeline, "simplify_with_stats", broken)
    failure = DifferentialChecker().check(generate_spec(seed=0, index=0))
    assert failure is not None and failure.kind == "simplify", failure
    assert "disagrees with eval_nrc(raw)" in failure.detail


# --------------------------------------------------------- spec_text contract
def test_synthesize_request_spec_text_is_exclusive_with_problem():
    with pytest.raises(api.ApiError):
        api.SynthesizeRequest()
    with pytest.raises(api.ApiError):
        api.SynthesizeRequest(problem="union_view", spec_text="problem p {}")
    with pytest.raises(api.ApiError):
        api.SynthesizeRequest(spec_text="   ")
    request = api.SynthesizeRequest(spec_text="problem p { output O : Set(Ur); spec T }")
    assert request.problem == ""
    assert api.SynthesizeRequest.from_json_dict(request.to_json_dict()) == request


def test_spec_text_submission_matches_registry_submission():
    from repro.service.server import SynthesisService

    service = SynthesisService()
    problem = default_registry().get("intersection_view").problem()
    by_text = service.synthesize(api.SynthesizeRequest(spec_text=pretty_problem(problem)))
    by_name = service.synthesize(api.SynthesizeRequest(problem="intersection_view"))
    assert by_text.expression == by_name.expression
    assert by_text.problem == "intersection_view"


def test_spec_text_parse_failure_is_a_structured_parse_error():
    from repro.service.server import SynthesisService

    service = SynthesisService()
    with pytest.raises(api.ApiError) as excinfo:
        service.synthesize(api.SynthesizeRequest(spec_text="problem broken {"))
    assert excinfo.value.code == "parse_error"
    assert set(excinfo.value.detail) == {"line", "column", "offset"}
    assert api.ERROR_CODES["parse_error"] == 400


def _nested_spec(depth):
    """A spec whose brackets nest ``depth`` levels: the problem block's
    ``{`` and ``depth - 1`` parenthesised disjunctions."""
    formula = "y = x"
    for _ in range(depth - 1):
        formula = f"(x = y | {formula})"
    return f"problem deep {{ input x : Ur; output y : Ur; spec {formula} }}"


def test_nesting_up_to_the_cap_parses():
    assert MAX_NESTING == 128
    problem = parse_problem(_nested_spec(MAX_NESTING))
    assert problem.name == "deep"
    assert problem == parse_problem(pretty_problem(problem))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
def test_nesting_past_the_cap_is_a_parse_error(depth):
    """Too deep a spec answers ``parse_error`` with the position of the first
    bracket past the cap, never an ``internal`` error from a recursion
    overflow in the parser or in a later pass over the spec."""
    from repro.service.workers import execute_synthesize_request

    text = _nested_spec(depth)
    with pytest.raises(SpecParseError, match="nest deeper than 128"):
        parse_problem(text)
    with pytest.raises(api.ApiError) as excinfo:
        execute_synthesize_request(api.SynthesizeRequest(spec_text=text))
    assert excinfo.value.code == "parse_error"
    offset = excinfo.value.detail["offset"]
    assert text[offset] == "("
    assert text[:offset].count("(") + text[:offset].count("{") == MAX_NESTING
