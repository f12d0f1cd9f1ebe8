"""Fleet-wide trace propagation: one stitched trace across process + HTTP hops.

The propagation half of ISSUE 8: a sweep fanned out over a LocalNode (worker
*processes* — spans ride home over the result pipe) and an HttpNode (spans
ride home in the ``SweepResponse`` payload, parented via ``X-Repro-Trace``)
must produce ONE trace whose shard spans parent correctly, and the telemetry
endpoints must expose it.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import reset_registry
from repro.obs.trace import enable_tracing
from repro.service import api
from repro.service.fleet import HttpNode, LocalNode, SweepCoordinator
from repro.service.server import BackgroundServer, SynthesisService

NAMES = ["identity_view", "union_view", "intersection_view", "unique_element"]


@pytest.fixture
def traced():
    """Tracing on, clean buffers; everything off again afterwards."""
    reset_registry()
    tracer = enable_tracing(True)
    tracer.reset()
    tracer.activate(None)
    yield tracer
    reset_registry()
    tracer = enable_tracing(False)
    tracer.reset()
    tracer.activate(None)


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


def test_fleet_sweep_stitches_one_trace_across_process_and_http_hops(traced):
    with BackgroundServer(SynthesisService()) as worker:
        coordinator = SweepCoordinator(
            nodes=[LocalNode("local"), HttpNode(worker.url, name="remote")],
            shard_size=2,
        )
        with traced.span("test.sweep") as root:
            trace_id = root.trace_id
            response = coordinator.run(api.SweepRequest(processes=2), list(NAMES))
    assert response.ok

    spans = traced.spans_for(trace_id)
    by_id = _by_id(spans)
    assert len(by_id) == len(spans), "span ids are unique (no double-adoption)"
    assert {span["trace_id"] for span in spans} == {trace_id}

    root_span = next(span for span in spans if span["name"] == "test.sweep")
    # Shard spans were opened on executor threads: the explicit trace-context
    # hand-off (not contextvar inheritance) parents them under the root.  (The
    # remote server's *internal* coordinator contributes further fleet.shard
    # spans one level deeper — stitched in, but not parented to the root.)
    shards = [span for span in spans if span["name"] == "fleet.shard"]
    top_shards = [s for s in shards if s["parent_id"] == root_span["span_id"]]
    assert len(top_shards) == 2
    assert {span["attributes"]["node"] for span in top_shards} == {"local", "remote"}

    # Both hops shipped their worker-process spans home: every synthesized
    # problem ran inside a worker.request span that chains back to a shard.
    worker_jobs = [span for span in spans if span["name"] == "worker.request"]
    assert len(worker_jobs) == len(NAMES)

    def _chains_to_shard(span):
        seen = set()
        while span is not None and span["span_id"] not in seen:
            seen.add(span["span_id"])
            if span["name"] == "fleet.shard":
                return True
            span = by_id.get(span.get("parent_id"))
        return False

    assert all(_chains_to_shard(span) for span in worker_jobs)
    # The HTTP hop contributed the remote server's request + sweep spans.
    names = {span["name"] for span in spans}
    assert {"http.request", "sweep.job", "pipeline.proof-search"} <= names


def test_disabled_tracer_records_no_spans_anywhere(untraced):
    with BackgroundServer(SynthesisService()) as worker:
        coordinator = SweepCoordinator(
            nodes=[LocalNode("local"), HttpNode(worker.url, name="remote")],
            shard_size=2,
        )
        response = coordinator.run(api.SweepRequest(processes=2), list(NAMES))
    assert response.ok
    assert untraced.export_all() == []
    assert untraced.trace_count() == 0
    assert response.spans == ()


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
