"""The v1 wire, pinned byte for byte.

For every contract type (and the ``ApiError`` envelope) one minimal and one
fully populated value must render exactly the bytes recorded in
``tests/golden/wire_v1.json`` and decode from them back to an equal value.
The round-trip property test cannot see a change to the emit rules (a field
that starts or stops being omitted at its default still round-trips); this
file can.  Each golden entry is the reviewed ``json.loads(value.to_json())``
of its case; ``json.dumps(entry, indent=2)`` reproduces the bytes, key order
and ``1.0``-versus-``1`` included.
"""

import json
from pathlib import Path

import pytest

from repro.service import api

GOLDEN = json.loads((Path(__file__).parent / "golden" / "wire_v1.json").read_text("utf-8"))

_error = api.ErrorInfo(
    "synthesis_failed",
    "InterpolationError: no interpolant (café)",
    {"error_type": "InterpolationError", "expected": "xfail", "attempts": 3},
)
_stage = api.StageReport("proof-search", 0.125, {"attempts": 42, "memo_hits": 7})
_verification = api.VerificationSummary(checked=12, satisfying=11, ok=False)
_result = api.SynthesisResult(
    problem="union_view",
    digest="0123456789abcdef",
    cache_tier="disk",
    total_seconds=0.5,
    stages=(_stage, api.StageReport("validate", 0.0)),
    expression="(V1 ∪ V2)",
    expression_size=3,
    proof_size=57,
    raw_expression="U{ {x} | x in V1 }",
    verification=_verification,
    source="witness",
    display={"pretty": "never on the wire"},
)
_outcome = api.SweepOutcome(
    name="union_view",
    status="ok",
    seconds=0.75,
    expected="xfail",
    cache_tier="memory",
    expression="V",
    expression_size=1,
    proof_size=12,
    verified=True,
    error="none",
    stage_seconds={"validate": 0.25, "extraction": 1},
)
_span = api.SpanInfo(
    trace_id="0" * 32,
    span_id="1" * 16,
    name="job",
    start=1700000000.5,
    seconds=0.03125,
    parent_id="2" * 16,
    attributes={"problem": "union_view", "cached": False, "depth": 3},
)
_sweep = api.SweepResponse(
    wall_seconds=2.5,
    processes=4,
    counts={"ok": 3, "error": 1},
    cache_hits=2,
    ok=False,
    jobs=(_outcome, api.SweepOutcome(name="pair_of_views", status="error", seconds=0.5)),
)
_problem = api.ProblemInfo(
    name="union_view",
    description="V = I1 ∪ I2",
    tags=("flat", "union"),
    expected="hard",
    has_instances=True,
)
_entry = api.CacheEntryInfo(
    digest="fedcba9876543210",
    name="union_view",
    expression="V",
    expression_size=1,
    proof_size=12,
    created=1700000000.25,
    payload_bytes=2048,
    synthesis_seconds=0.0625,
)
_witness = api.WitnessInfo(
    digest="00ff00ff00ff00ff",
    name="example_1_1",
    proof_size=99,
    created=1700000001.0,
    payload_bytes=4096,
    sequent="Sigma |- exists V. phi",
)

CASES = {
    "ErrorInfo/minimal": api.ErrorInfo("not_found", "no such route"),
    "ErrorInfo/full": _error,
    "SynthesizeRequest/minimal": api.SynthesizeRequest(problem="union_view"),
    "SynthesizeRequest/full": api.SynthesizeRequest(
        max_depth=9,
        verify_scale=12,
        cache_dir="/var/cache/repro",
        include_raw=True,
        timeout=30.0,
        spec_text="problem p { }",
        ancestor="0123456789abcdef",
    ),
    "VerifyRequest/minimal": api.VerifyRequest(problem="union_view"),
    "VerifyRequest/full": api.VerifyRequest(problem="union_view", scale=5, max_depth=7),
    "SweepRequest/minimal": api.SweepRequest(),
    "SweepRequest/full": api.SweepRequest(
        problems=("union_view", "identity_view"),
        processes=2,
        timeout=1.5,
        verify_scale=3,
        cache_dir="cache",
        max_depth=8,
    ),
    "ProblemInfo/minimal": api.ProblemInfo(name="union_view", description="d"),
    "ProblemInfo/full": _problem,
    "ProblemPage/minimal": api.ProblemPage(),
    "ProblemPage/full": api.ProblemPage(problems=(_problem,), next_cursor="c2"),
    "StageReport/minimal": api.StageReport("validate", 0.0),
    "StageReport/full": _stage,
    "VerificationSummary/minimal": api.VerificationSummary(0, 0, True),
    "VerificationSummary/full": _verification,
    "SynthesisResult/minimal": api.SynthesisResult(
        problem="union_view", digest="d", cache_tier="miss", total_seconds=0.0
    ),
    "SynthesisResult/expression_only": api.SynthesisResult(
        problem="union_view",
        digest="d",
        cache_tier="memory",
        total_seconds=1.0,
        expression="V",
    ),
    "SynthesisResult/full": _result,
    "JobStatus/minimal": api.JobStatus(
        id="job-1", state=api.JOB_QUEUED, problem="union_view", submitted_at=1.0
    ),
    "JobStatus/full": api.JobStatus(
        id="job-2",
        state=api.JOB_FAILED,
        problem="union_view",
        submitted_at=1700000000.0,
        started_at=1700000000.5,
        finished_at=1700000001.25,
        result=_result,
        error=_error,
    ),
    "SweepOutcome/minimal": api.SweepOutcome(name="p", status="timeout", seconds=0.0),
    "SweepOutcome/full": _outcome,
    "SpanInfo/minimal": api.SpanInfo(
        trace_id="a" * 32, span_id="b" * 16, name="root", start=0.0, seconds=0.0
    ),
    "SpanInfo/full": _span,
    "TraceInfo/minimal": api.TraceInfo(trace_id="a" * 32),
    "TraceInfo/full": api.TraceInfo(trace_id="0" * 32, job_id="job-2", spans=(_span,)),
    "SweepResponse/minimal": api.SweepResponse(wall_seconds=0.0, processes=1),
    "SweepResponse/full": _sweep,
    "SweepJobStatus/minimal": api.SweepJobStatus(
        id="sweep-1", state=api.JOB_RUNNING, submitted_at=2.0
    ),
    "SweepJobStatus/full": api.SweepJobStatus(
        id="sweep-2",
        state=api.JOB_DONE,
        submitted_at=1700000000.0,
        started_at=1700000000.125,
        finished_at=1700000003.0,
        result=_sweep,
        error=api.ErrorInfo("internal", "gone", {"node": "b"}),
    ),
    "CacheEntryInfo/minimal": api.CacheEntryInfo(
        digest="d", name="n", expression="E", expression_size=1, proof_size=2, created=0.5
    ),
    "CacheEntryInfo/full": _entry,
    "DiskCacheStats/minimal": api.DiskCacheStats(cache_dir="cache"),
    "DiskCacheStats/full": api.DiskCacheStats(
        cache_dir="cache",
        entries=(_entry,),
        total_payload_bytes=2048,
        next_cursor="c1",
    ),
    "ProcessCacheStats/minimal": api.ProcessCacheStats(),
    "ProcessCacheStats/full": api.ProcessCacheStats(
        intern_table={"size": 10},
        shared_value_interner={"values": 3, "hits": 9},
        search_tables={"memo": 5},
        result_cache={"memory_hits": 1, "disk_hits": 0},
        witness_store={"puts": 2},
    ),
    "WitnessInfo/minimal": api.WitnessInfo(digest="00ff00ff00ff00ff"),
    "WitnessInfo/full": _witness,
    "WitnessPage/minimal": api.WitnessPage(),
    "WitnessPage/full": api.WitnessPage(witnesses=(_witness, api.WitnessInfo(digest="e"))),
    "WitnessPayload/minimal": api.WitnessPayload(payload="AAAA"),
    "WitnessPayload/full": api.WitnessPayload(payload="QUJD", info=_witness),
}

ERROR_CASES = {
    "ApiError/minimal": api.ApiError("internal", "boom"),
    "ApiError/full": api.queue_full(8),
}


def test_every_contract_type_has_both_golden_cases():
    for cls in api.CONTRACT_TYPES:
        assert f"{cls.__name__}/minimal" in CASES
        assert f"{cls.__name__}/full" in CASES
    assert set(GOLDEN) == set(CASES) | set(ERROR_CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_contract_renders_the_golden_bytes(case):
    value = CASES[case]
    expected = json.dumps(GOLDEN[case], indent=2)
    assert json.dumps(value.to_json_dict(), indent=2) == expected
    if hasattr(value, "to_json"):
        assert value.to_json() == expected
    cls = type(value)
    assert cls.from_json_dict(json.loads(expected)) == value
    if hasattr(cls, "from_json"):
        assert cls.from_json(expected) == value


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_api_error_envelope_renders_the_golden_bytes(case):
    error = ERROR_CASES[case]
    expected = json.dumps(GOLDEN[case], indent=2)
    assert error.to_json() == expected
    assert api.ApiError.from_json_dict(json.loads(expected)).info == error.info
