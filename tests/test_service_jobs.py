"""The service's job table: synthesize jobs and sweep jobs side by side.

Pins what callers see of the table: the two kinds' ids never resolve under
the other kind's routes, the trace route answers both kinds, and
finished-job retention is counted per kind.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.trace import enable_tracing
from repro.service import api
from repro.service import server as server_mod
from repro.service.server import BackgroundServer, SynthesisService


@pytest.fixture
def traced():
    tracer = enable_tracing(True)
    tracer.reset()
    tracer.activate(None)
    yield tracer
    tracer = enable_tracing(False)
    tracer.reset()
    tracer.activate(None)


def _call(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def test_job_ids_and_sweep_ids_never_cross_routes(traced):
    with BackgroundServer(SynthesisService()) as server:
        base = server.url + "/v1"
        status, job = _call(base + "/synthesize?wait=1", "POST", {"problem": "identity_view"})
        assert status == 200 and job["state"] == "done", job
        status, sweep = _call(base + "/sweeps", "POST", {"problems": ["identity_view"]})
        assert status in (200, 202), sweep
        while sweep["state"] in ("queued", "running"):
            time.sleep(0.05)
            status, sweep = _call(base + "/sweeps/" + sweep["id"])
        assert sweep["state"] == "done", sweep

        for method, url in (
            ("GET", base + "/jobs/" + sweep["id"]),
            ("DELETE", base + "/jobs/" + sweep["id"]),
            ("GET", base + "/sweeps/" + job["id"]),
        ):
            status, body = _call(url, method)
            assert status == 404, (method, url, body)
            assert body["error"]["code"] == "unknown_job", body

        # The trace route answers either kind: a sweep's trace holds its span.
        status, trace = _call(base + "/jobs/" + sweep["id"] + "/trace")
        assert status == 200, trace
        assert trace["job_id"] == sweep["id"]
        assert "sweep.job" in {span["name"] for span in trace["spans"]}


def test_finished_sweep_outlives_a_burst_of_synthesize_jobs(monkeypatch):
    monkeypatch.setattr(server_mod, "FINISHED_JOB_RETENTION", 1)

    async def scenario():
        service = SynthesisService()
        request = api.SynthesizeRequest(problem="identity_view")
        service.synthesize(request)  # warm: every submission below is born done
        sweep = await service.submit_sweep(api.SweepRequest(problems=("identity_view",)))
        sweep = await service.wait_sweep(sweep.id, timeout=120)
        assert sweep.state == api.JOB_DONE
        jobs = [await service.submit(request) for _ in range(4)]
        assert all(job.state == api.JOB_DONE for job in jobs)
        # Only the newest synthesize job is retained, and the sweep still is.
        assert (await service.job_status(jobs[-1].id)).state == api.JOB_DONE
        with pytest.raises(api.ApiError) as excinfo:
            await service.job_status(jobs[0].id)
        assert excinfo.value.code == "unknown_job"
        assert (await service.sweep_status(sweep.id)).state == api.JOB_DONE

    asyncio.run(scenario())
