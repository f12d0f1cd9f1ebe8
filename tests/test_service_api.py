"""The typed service contracts: round-trips, validation, error taxonomy."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import api

# ------------------------------------------------------------------ strategies
names = st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True)
seconds = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_seconds = st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
)
json_scalars = st.one_of(st.integers(-(10**9), 10**9), st.booleans(), names, seconds)
details = st.dictionaries(names, json_scalars, max_size=4)

synthesize_requests = st.builds(
    api.SynthesizeRequest,
    problem=names,
    max_depth=st.one_of(st.none(), st.integers(1, 64)),
    verify_scale=st.integers(0, 500),
    cache_dir=st.one_of(st.none(), names),
    include_raw=st.booleans(),
    timeout=st.one_of(st.none(), positive_seconds),
    ancestor=st.one_of(st.none(), st.from_regex(r"[0-9a-f]{16}", fullmatch=True)),
)

verify_requests = st.builds(
    api.VerifyRequest,
    problem=names,
    scale=st.integers(1, 500),
    max_depth=st.one_of(st.none(), st.integers(1, 64)),
)

sweep_requests = st.builds(
    api.SweepRequest,
    problems=st.lists(names, max_size=5).map(tuple),
    include_all=st.just(False),
    processes=st.one_of(st.none(), st.integers(1, 32)),
    timeout=st.one_of(st.none(), positive_seconds),
    verify_scale=st.integers(0, 100),
    cache_dir=st.one_of(st.none(), names),
    max_depth=st.one_of(st.none(), st.integers(1, 64)),
)

sweep_submit_requests = st.builds(
    api.SweepSubmitRequest,
    problems=st.lists(names, max_size=5).map(tuple),
    include_all=st.just(False),
    processes=st.one_of(st.none(), st.integers(1, 32)),
    timeout=st.one_of(st.none(), positive_seconds),
    verify_scale=st.integers(0, 100),
    cache_dir=st.one_of(st.none(), names),
    max_depth=st.one_of(st.none(), st.integers(1, 64)),
    nodes=st.lists(names, max_size=3).map(tuple),
    shard_size=st.one_of(st.none(), st.integers(1, 16)),
    max_retries=st.integers(0, 5),
)

problem_infos = st.builds(
    api.ProblemInfo,
    name=names,
    description=names,
    tags=st.lists(names, max_size=4).map(tuple),
    expected=st.sampled_from(["ok", "xfail", "hard"]),
    has_instances=st.booleans(),
)

stage_reports = st.builds(api.StageReport, name=names, seconds=seconds, detail=details)

verifications = st.builds(
    api.VerificationSummary,
    checked=st.integers(0, 1000),
    satisfying=st.integers(0, 1000),
    ok=st.booleans(),
)

synthesis_results = st.builds(
    api.SynthesisResult,
    problem=names,
    digest=st.from_regex(r"[0-9a-f]{16}", fullmatch=True),
    cache_tier=st.sampled_from(["memory", "disk", "miss", "off"]),
    total_seconds=seconds,
    stages=st.lists(stage_reports, max_size=4).map(tuple),
    expression=names,
    expression_size=st.integers(0, 10**6),
    proof_size=st.integers(0, 10**6),
    raw_expression=st.one_of(st.none(), names),
    verification=st.one_of(st.none(), verifications),
    source=st.one_of(st.none(), st.sampled_from(["witness", "incremental", "cold"])),
)

error_infos = st.builds(
    api.ErrorInfo,
    code=st.sampled_from(sorted(api.ERROR_CODES)),
    message=names,
    detail=details,
)

job_statuses = st.builds(
    api.JobStatus,
    id=names,
    state=st.sampled_from(api.JOB_STATES),
    problem=names,
    submitted_at=seconds,
    started_at=st.one_of(st.none(), seconds),
    finished_at=st.one_of(st.none(), seconds),
    result=st.one_of(st.none(), synthesis_results),
    error=st.one_of(st.none(), error_infos),
)

sweep_outcomes = st.builds(
    api.SweepOutcome,
    name=names,
    status=st.sampled_from(["ok", "error", "timeout"]),
    seconds=seconds,
    expected=st.sampled_from(["ok", "xfail", "hard"]),
    cache_tier=st.sampled_from(["memory", "disk", "miss", "off"]),
    expression=st.one_of(st.none(), names),
    expression_size=st.one_of(st.none(), st.integers(0, 10**6)),
    proof_size=st.one_of(st.none(), st.integers(0, 10**6)),
    verified=st.one_of(st.none(), st.booleans()),
    error=st.one_of(st.none(), names),
    stage_seconds=st.dictionaries(names, seconds, max_size=4),
)

span_infos = st.builds(
    api.SpanInfo,
    trace_id=st.from_regex(r"[0-9a-f]{32}", fullmatch=True),
    span_id=st.from_regex(r"[0-9a-f]{16}", fullmatch=True),
    name=names,
    start=seconds,
    seconds=seconds,
    parent_id=st.one_of(st.none(), st.from_regex(r"[0-9a-f]{16}", fullmatch=True)),
    attributes=details,
)

trace_infos = st.builds(
    api.TraceInfo,
    trace_id=st.from_regex(r"[0-9a-f]{32}", fullmatch=True),
    job_id=names,
    spans=st.lists(span_infos, max_size=3).map(tuple),
)

sweep_responses = st.builds(
    api.SweepResponse,
    wall_seconds=seconds,
    processes=st.integers(1, 64),
    counts=st.dictionaries(st.sampled_from(["ok", "error", "timeout"]), st.integers(0, 100)),
    cache_hits=st.integers(0, 100),
    ok=st.booleans(),
    jobs=st.lists(sweep_outcomes, max_size=3).map(tuple),
    spans=st.lists(span_infos, max_size=2).map(tuple),
)

shard_infos = st.builds(
    api.ShardInfo,
    index=st.integers(0, 100),
    state=st.sampled_from(api.SHARD_STATES),
    problems=st.lists(names, max_size=4).map(tuple),
    node=st.one_of(st.just(""), names),
    retries=st.integers(0, 5),
    error=st.one_of(st.none(), error_infos),
)

sweep_job_statuses = st.builds(
    api.SweepJobStatus,
    id=names,
    state=st.sampled_from(api.JOB_STATES),
    submitted_at=seconds,
    started_at=st.one_of(st.none(), seconds),
    finished_at=st.one_of(st.none(), seconds),
    shards=st.lists(shard_infos, max_size=3).map(tuple),
    result=st.one_of(st.none(), sweep_responses),
    error=st.one_of(st.none(), error_infos),
)

problem_pages = st.builds(
    api.ProblemPage,
    problems=st.lists(problem_infos, max_size=3).map(tuple),
    next_cursor=st.one_of(st.none(), names),
)

cache_entries = st.builds(
    api.CacheEntryInfo,
    digest=st.from_regex(r"[0-9a-f]{16}", fullmatch=True),
    name=names,
    expression=names,
    expression_size=st.integers(0, 10**6),
    proof_size=st.integers(0, 10**6),
    created=seconds,
    payload_bytes=st.integers(0, 10**9),
    synthesis_seconds=seconds,
)

disk_cache_stats = st.builds(
    api.DiskCacheStats,
    cache_dir=names,
    entries=st.lists(cache_entries, max_size=3).map(tuple),
    total_payload_bytes=st.integers(0, 10**9),
    next_cursor=st.one_of(st.none(), names),
    manifest=details,
)

process_cache_stats = st.builds(
    api.ProcessCacheStats,
    intern_table=details,
    shared_value_interner=details,
    search_tables=details,
    result_cache=details,
)

witness_infos = st.builds(
    api.WitnessInfo,
    digest=st.from_regex(r"[0-9a-f]{16}", fullmatch=True),
    name=names,
    proof_size=st.integers(0, 10**6),
    created=seconds,
    payload_bytes=st.integers(0, 10**9),
    sequent=st.one_of(st.just(""), names),
)

witness_pages = st.builds(
    api.WitnessPage,
    witnesses=st.lists(witness_infos, max_size=3).map(tuple),
)

witness_payloads = st.builds(
    api.WitnessPayload,
    payload=st.from_regex(r"[A-Za-z0-9+/]{4,32}={0,2}", fullmatch=True),
    info=st.one_of(st.none(), witness_infos),
)

ROUNDTRIP_STRATEGIES = {
    api.SynthesizeRequest: synthesize_requests,
    api.VerifyRequest: verify_requests,
    api.SweepRequest: sweep_requests,
    api.SweepSubmitRequest: sweep_submit_requests,
    api.ProblemInfo: problem_infos,
    api.ProblemPage: problem_pages,
    api.StageReport: stage_reports,
    api.VerificationSummary: verifications,
    api.SynthesisResult: synthesis_results,
    api.ErrorInfo: error_infos,
    api.JobStatus: job_statuses,
    api.SweepOutcome: sweep_outcomes,
    api.SpanInfo: span_infos,
    api.TraceInfo: trace_infos,
    api.SweepResponse: sweep_responses,
    api.ShardInfo: shard_infos,
    api.SweepJobStatus: sweep_job_statuses,
    api.CacheEntryInfo: cache_entries,
    api.DiskCacheStats: disk_cache_stats,
    api.ProcessCacheStats: process_cache_stats,
    api.WitnessInfo: witness_infos,
    api.WitnessPage: witness_pages,
    api.WitnessPayload: witness_payloads,
}


def test_every_contract_type_has_a_roundtrip_strategy():
    # Loud failure when a new contract type lands without property coverage.
    assert set(ROUNDTRIP_STRATEGIES) == set(api.CONTRACT_TYPES)


@given(value=st.one_of(*ROUNDTRIP_STRATEGIES.values()))
def test_json_roundtrip_is_identity(value):
    wire = json.dumps(value.to_json_dict())
    back = type(value).from_json_dict(json.loads(wire))
    assert back == value
    # Serialization is deterministic: the same value renders the same bytes.
    assert json.dumps(back.to_json_dict()) == wire


# -------------------------------------------------------------- key stability
def test_synthesis_result_json_key_order_is_the_v1_schema():
    result = api.SynthesisResult(
        problem="p",
        digest="d",
        cache_tier="miss",
        total_seconds=0.5,
        stages=(api.StageReport("validate", 0.1, {"formula_size": 3}),),
        expression="E",
        expression_size=1,
        proof_size=2,
        verification=api.VerificationSummary(4, 4, True),
    )
    payload = result.to_json_dict()
    assert list(payload) == [
        "problem",
        "digest",
        "cache_tier",
        "cache_hit",
        "total_seconds",
        "stages",
        "expression",
        "expression_size",
        "proof_size",
        "verification",
    ]
    assert list(payload["stages"][0]) == ["name", "seconds", "detail"]
    assert list(payload["verification"]) == ["checked", "satisfying", "ok"]
    assert payload["cache_hit"] is False


def test_sweep_json_key_order_is_the_v1_schema():
    outcome = api.SweepOutcome(name="p", status="ok", seconds=0.1)
    assert list(outcome.to_json_dict()) == [
        "name",
        "status",
        "seconds",
        "expected",
        "cache_tier",
        "expression",
        "expression_size",
        "proof_size",
        "verified",
        "error",
        "stage_seconds",
    ]
    response = api.SweepResponse(wall_seconds=0.2, processes=2, jobs=(outcome,))
    assert list(response.to_json_dict()) == [
        "wall_seconds",
        "processes",
        "counts",
        "cache_hits",
        "ok",
        "jobs",
    ]


def test_display_is_transport_local():
    with_display = api.SynthesisResult(
        problem="p", digest="d", cache_tier="off", total_seconds=0.0, display={"pretty": "E"}
    )
    without = api.SynthesisResult(problem="p", digest="d", cache_tier="off", total_seconds=0.0)
    assert with_display == without  # display never affects equality
    assert "display" not in with_display.to_json_dict()
    assert "pretty" not in json.dumps(with_display.to_json_dict())


# ------------------------------------------------------------------ validation
def test_unknown_fields_are_rejected():
    with pytest.raises(api.ApiError) as excinfo:
        api.SynthesizeRequest.from_json_dict({"problem": "p", "depth": 3})
    assert excinfo.value.code == "invalid_request"
    assert "depth" in excinfo.value.message
    assert excinfo.value.http_status == 400


def test_mistyped_fields_are_rejected():
    for payload in (
        {"problem": 7},
        {"problem": "p", "max_depth": "deep"},
        {"problem": "p", "verify_scale": True},
        {"problem": "p", "include_raw": "yes"},
    ):
        with pytest.raises(api.ApiError) as excinfo:
            api.SynthesizeRequest.from_json_dict(payload)
        assert excinfo.value.code == "invalid_request"
    for cls, payload in (
        (api.ProblemInfo, {"name": "p", "description": "d", "tags": [1, {"x": 2}]}),
        (api.SweepResponse, {"wall_seconds": 0.1, "processes": 1, "counts": {"ok": "many"}}),
        (api.SweepResponse, {"wall_seconds": 0.1, "processes": 1, "counts": {"ok": True}}),
        (api.SweepOutcome, {"name": "p", "status": "ok", "seconds": 0.1, "stage_seconds": {"a": "1"}}),
        (api.SweepRequest, {"problems": ["a", 7]}),
        (api.TraceInfo, {"trace_id": "t", "spans": [3]}),
    ):
        with pytest.raises(api.ApiError) as excinfo:
            cls.from_json_dict(payload)
        assert excinfo.value.code == "invalid_request"


def test_non_finite_numbers_are_invalid_requests():
    for body in (
        '{"problem": "p", "timeout": NaN}',
        '{"problem": "p", "timeout": Infinity}',
        '{"problem": "p", "timeout": -Infinity}',
        '{"problem": "p", "timeout": 1e999}',
    ):
        with pytest.raises(api.ApiError) as excinfo:
            api.SynthesizeRequest.from_json(body)
        assert excinfo.value.code == "invalid_request"
    for timeout in (float("nan"), float("inf")):
        with pytest.raises(api.ApiError, match="finite"):
            api.SynthesizeRequest(problem="p", timeout=timeout)
        with pytest.raises(api.ApiError, match="finite"):
            api.SweepSubmitRequest(timeout=timeout)
    # An int inside a float-valued map is kept as an int: its bytes round-trip.
    outcome = api.SweepOutcome.from_json(
        '{"name": "p", "status": "ok", "seconds": 1, "stage_seconds": {"validate": 2}}'
    )
    assert outcome.seconds == 1.0 and isinstance(outcome.seconds, float)
    assert '"validate": 2\n' in outcome.to_json()


def test_request_invariants_hold_at_construction():
    with pytest.raises(api.ApiError, match="non-empty"):
        api.SynthesizeRequest(problem="")
    with pytest.raises(api.ApiError, match="at least 1"):
        api.VerifyRequest(problem="p", scale=0)
    with pytest.raises(api.ApiError, match="timeout must be positive"):
        api.SynthesizeRequest(problem="p", timeout=0.0)
    with pytest.raises(api.ApiError, match="not both"):
        api.SweepRequest(problems=("a",), include_all=True)


def test_bad_json_body_is_an_invalid_request():
    with pytest.raises(api.ApiError) as excinfo:
        api.SynthesizeRequest.from_json("{not json")
    assert excinfo.value.code == "invalid_request"
    with pytest.raises(api.ApiError) as excinfo:
        api.SynthesizeRequest.from_json("[1, 2]")
    assert excinfo.value.code == "invalid_request"


# --------------------------------------------------------------- the taxonomy
def test_error_codes_map_to_http_statuses():
    assert api.ApiError("invalid_request", "m").http_status == 400
    assert api.unknown_problem("m").http_status == 404
    assert api.unknown_job("j").http_status == 404
    assert api.job_timeout(1.5).http_status == 504
    assert api.queue_full(8).http_status == 429
    assert api.ApiError("internal", "m").http_status == 500
    with pytest.raises(ValueError):
        api.ErrorInfo("not_a_code", "m")


def test_synthesis_failure_carries_the_known_limitation_note():
    error = api.synthesis_failure(ValueError("boom"), expected="xfail")
    assert error.code == "synthesis_failed"
    assert "ValueError: boom" in error.message
    assert "'xfail'" in error.message and "known limitation" in error.message
    assert error.detail["error_type"] == "ValueError"
    clean = api.synthesis_failure(ValueError("boom"), expected="ok")
    assert "known limitation" not in clean.message


def test_api_error_json_roundtrip():
    error = api.queue_full(4)
    back = api.ApiError.from_json_dict(json.loads(error.to_json()))
    assert back.info == error.info
    assert back.http_status == 429
