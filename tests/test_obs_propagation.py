"""Trace propagation: one stitched trace across process and HTTP hops.

A sweep job runs its problems in worker *processes*, whose spans ride home
over the result pipe and must chain to the job's ``sweep.job`` span; an
inbound ``X-Repro-Trace`` header parents the server's ``http.request`` span;
and the telemetry endpoints must expose the result.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import reset_registry
from repro.obs.trace import TRACE_HEADER, TraceContext, enable_tracing
from repro.service import api
from repro.service.server import BackgroundServer, SynthesisService

NAMES = ["identity_view", "union_view", "intersection_view", "unique_element"]


@pytest.fixture
def untraced():
    reset_registry()
    tracer = enable_tracing(False)
    tracer.reset()
    tracer.activate(None)
    yield tracer
    reset_registry()


def _by_id(spans):
    return {span["span_id"]: span for span in spans}


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return json.loads(urllib.request.urlopen(request).read().decode())


def _run_sweep(server):
    """Submit a two-process sweep of ``NAMES`` over HTTP; poll it to done."""
    request = urllib.request.Request(
        server.url + "/v1/sweeps",
        data=json.dumps({"problems": NAMES, "processes": 2}).encode(),
        headers={"Content-Type": "application/json"},
    )
    status = api.SweepJobStatus.from_json_dict(
        json.loads(urllib.request.urlopen(request).read().decode())
    )
    deadline = time.monotonic() + 120
    while not status.finished and time.monotonic() < deadline:
        time.sleep(0.05)
        status = api.SweepJobStatus.from_json_dict(
            _get(server.url + f"/v1/sweeps/{status.id}")
        )
    assert status.state == api.JOB_DONE, status
    assert status.result is not None and status.result.ok
    return status


def test_sweep_job_stitches_one_trace_across_the_process_hop(traced):
    with BackgroundServer(SynthesisService()) as server:
        status = _run_sweep(server)
        info = api.TraceInfo.from_json_dict(
            _get(server.url + f"/v1/jobs/{status.id}/trace")
        )
    assert info.job_id == status.id
    spans = [span.to_json_dict() for span in info.spans]
    by_id = _by_id(spans)
    assert len(by_id) == len(spans), "span ids are unique (no double-adoption)"
    assert {span["trace_id"] for span in spans} == {info.trace_id}

    sweep_jobs = [span for span in spans if span["name"] == "sweep.job"]
    assert len(sweep_jobs) == 1
    # Every problem ran inside a worker.request span, recorded in a child
    # process and shipped home, that chains back to the sweep job.
    worker_requests = [span for span in spans if span["name"] == "worker.request"]
    assert len(worker_requests) == len(NAMES)

    def _chains_to_sweep_job(span):
        seen = set()
        while span is not None and span["span_id"] not in seen:
            seen.add(span["span_id"])
            if span["span_id"] == sweep_jobs[0]["span_id"]:
                return True
            span = by_id.get(span.get("parent_id"))
        return False

    assert all(_chains_to_sweep_job(span) for span in worker_requests)
    assert {"http.request", "pipeline.proof-search"} <= {span["name"] for span in spans}


def test_disabled_tracer_records_no_spans_anywhere(untraced):
    with BackgroundServer(SynthesisService()) as server:
        status = _run_sweep(server)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + f"/v1/jobs/{status.id}/trace")
        assert json.loads(excinfo.value.read().decode())["error"]["code"] == "no_trace"
    assert untraced.export_all() == []
    assert untraced.trace_count() == 0


def test_http_request_span_parents_on_the_inbound_trace_header(traced):
    parent = TraceContext("ab" * 16, "cd" * 8)
    with BackgroundServer(SynthesisService()) as server:
        _get(server.url + "/healthz", headers={TRACE_HEADER: parent.to_header()})
        # The span is recorded once the response is written: allow the
        # server thread a moment to close it.
        deadline = time.monotonic() + 10
        while not traced.spans_for(parent.trace_id) and time.monotonic() < deadline:
            time.sleep(0.01)
    spans = traced.spans_for(parent.trace_id)
    assert [span["name"] for span in spans] == ["http.request"]
    assert spans[0]["parent_id"] == parent.span_id
    assert spans[0]["attributes"]["endpoint"] == "/healthz"


def test_metrics_endpoint_serves_prometheus_and_json(traced):
    service = SynthesisService()
    with BackgroundServer(service) as server:
        service.synthesize(api.SynthesizeRequest(problem="identity_view"))
        text = urllib.request.urlopen(server.url + "/v1/metrics").read().decode()
        payload = json.loads(
            urllib.request.urlopen(server.url + "/v1/metrics?format=json").read().decode()
        )
    assert "# TYPE repro_pipeline_stage_seconds histogram" in text
    assert "repro_pipeline_runs_total" in text
    assert "repro_cache_misses_total" in text
    assert "repro_jobs_queue_depth" in text
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])
    names = {metric["name"] for metric in payload["metrics"]}
    assert "repro_pipeline_stage_seconds" in names
    assert "repro_http_requests_total" in names  # the Prometheus scrape itself


def test_job_trace_endpoint_spans_the_coordinator_worker_chain(traced):
    with BackgroundServer(SynthesisService()) as server:
        body = json.dumps({"problem": "union_view"}).encode()
        request = urllib.request.Request(
            server.url + "/v1/synthesize?wait=1",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        status = json.loads(urllib.request.urlopen(request).read().decode())
        assert status["state"] == "done"
        trace = json.loads(
            urllib.request.urlopen(
                server.url + f"/v1/jobs/{status['id']}/trace"
            ).read().decode()
        )
    info = api.TraceInfo.from_json_dict(trace)
    assert info.job_id == status["id"]
    spans = {span.name: span for span in info.spans}
    assert {"job", "worker.request", "pipeline.proof-search"} <= set(spans)
    assert spans["worker.request"].parent_id == spans["job"].span_id
    assert len({span.trace_id for span in info.spans}) == 1


def test_job_trace_answers_no_trace_when_tracing_was_off(untraced):
    with BackgroundServer(SynthesisService()) as server:
        body = json.dumps({"problem": "identity_view"}).encode()
        request = urllib.request.Request(
            server.url + "/v1/synthesize?wait=1",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        status = json.loads(urllib.request.urlopen(request).read().decode())
        try:
            urllib.request.urlopen(server.url + f"/v1/jobs/{status['id']}/trace")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            assert json.loads(exc.read().decode())["error"]["code"] == "no_trace"
        else:
            raise AssertionError("expected a 404 no_trace error")


def test_healthz_reports_uptime_and_request_counters(untraced):
    with BackgroundServer(SynthesisService()) as server:
        first = json.loads(urllib.request.urlopen(server.url + "/healthz").read().decode())
        second = json.loads(urllib.request.urlopen(server.url + "/healthz").read().decode())
    assert first["uptime_seconds"] >= 0
    assert second["uptime_seconds"] >= first["uptime_seconds"]
    # The second scrape has seen (at least) the first request.
    assert second["requests_total"] >= first["requests_total"] + 1
    assert second["errors_total"] == first["errors_total"]
