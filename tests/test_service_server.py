"""SynthesisService core + async job engine + the HTTP front-end."""

import asyncio
import base64
import json
import os
import pickle
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import api
from repro.service.server import BackgroundServer, SynthesisService


def http_get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def http_post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode())


def http_error(callable_, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args)
    body = json.loads(excinfo.value.read().decode())
    return excinfo.value.code, body


# ------------------------------------------------------------- sync service
def test_sync_service_methods_speak_the_typed_api(in_process_definition):
    service = SynthesisService()
    infos = service.list_problems(tag="family:union")
    assert {info.name for info in infos} == {
        "union_of_3_views",
        "union_of_4_views",
        "union_of_5_views",
    }
    response = service.synthesize(api.SynthesizeRequest(problem="union_view"))
    assert response.problem == "union_view"
    assert response.expression == in_process_definition("union_view")
    assert response.cache_tier == "miss"
    # The service owns the cache across calls: the second run is warm.
    warm = service.synthesize(api.SynthesizeRequest(problem="union_view"))
    assert warm.cache_tier == "memory" and warm.cache_hit
    assert warm.expression == response.expression


def test_sync_service_error_taxonomy():
    service = SynthesisService()
    with pytest.raises(api.ApiError) as excinfo:
        service.synthesize(api.SynthesizeRequest(problem="no_such_problem"))
    assert excinfo.value.code == "unknown_problem"
    with pytest.raises(api.ApiError) as excinfo:
        service.verify(api.VerifyRequest(problem="selection_view"))
    assert excinfo.value.code == "invalid_request"
    assert "no instance generator" in excinfo.value.message
    with pytest.raises(api.ApiError) as excinfo:
        service.synthesize(api.SynthesizeRequest(problem="selection_view"))
    assert excinfo.value.code == "synthesis_failed"
    assert excinfo.value.detail["error_type"] == "InterpolationError"
    assert excinfo.value.detail["expected"] == "xfail"


def test_verify_runs_the_instance_family():
    service = SynthesisService()
    response = service.verify(api.VerifyRequest(problem="union_of_3_views", scale=8))
    assert response.verification == api.VerificationSummary(checked=8, satisfying=8, ok=True)


def test_sweep_through_the_service():
    service = SynthesisService()
    response = service.sweep(
        api.SweepRequest(problems=("identity_view", "unique_element"), processes=1)
    )
    assert response.ok
    assert [job.name for job in response.jobs] == ["identity_view", "unique_element"]


# ---------------------------------------------------------------- job engine
def test_submit_await_result():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(api.SynthesizeRequest(problem="identity_view"))
        assert status.state in (api.JOB_QUEUED, api.JOB_RUNNING)
        final = await service.wait(status.id)
        assert final.state == api.JOB_DONE
        assert final.result is not None and final.result.expression
        assert final.error is None
        assert service.jobs_enqueued == 1
        # Polling keeps working after completion.
        again = await service.job_status(status.id)
        assert again == final
        return service

    asyncio.run(scenario())


def test_warm_submissions_bypass_the_queue():
    async def scenario():
        service = SynthesisService()
        first = await service.wait(
            (await service.submit(api.SynthesizeRequest(problem="union_view"))).id
        )
        assert first.state == api.JOB_DONE
        assert service.jobs_enqueued == 1
        warm = await service.submit(api.SynthesizeRequest(problem="union_view"))
        # Born done: no queue, no worker, answered from the adopted cache.
        assert warm.state == api.JOB_DONE
        assert warm.result.cache_hit and warm.result.cache_tier == "memory"
        assert warm.result.expression == first.result.expression
        assert service.jobs_enqueued == 1
        assert service.warm_submissions == 1

    asyncio.run(scenario())


def test_unknown_job_and_unknown_problem():
    async def scenario():
        service = SynthesisService()
        with pytest.raises(api.ApiError) as excinfo:
            await service.job_status("job-999999")
        assert excinfo.value.code == "unknown_job"
        with pytest.raises(api.ApiError) as excinfo:
            await service.submit(api.SynthesizeRequest(problem="nope"))
        assert excinfo.value.code == "unknown_problem"

    asyncio.run(scenario())


def test_queue_bound_rejects_excess_submissions():
    async def scenario():
        service = SynthesisService(max_workers=1, queue_limit=1)
        slow = api.SynthesizeRequest(problem="example_1_1")
        first = await service.submit(slow)
        with pytest.raises(api.ApiError) as excinfo:
            await service.submit(api.SynthesizeRequest(problem="copy_chain_2"))
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.http_status == 429
        cancelled = await service.cancel(first.id)
        assert cancelled.state in (api.JOB_CANCELLED, api.JOB_RUNNING)
        final = await service.wait(first.id, timeout=30)
        assert final.state == api.JOB_CANCELLED

    asyncio.run(scenario())


def test_per_job_timeout_is_a_structured_error():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(
            api.SynthesizeRequest(problem="example_1_1", timeout=0.6)
        )
        final = await service.wait(status.id, timeout=60)
        assert final.state == api.JOB_FAILED
        assert final.error is not None and final.error.code == "timeout"
        assert final.error.detail["timeout_seconds"] == 0.6

    asyncio.run(scenario())


def test_cancel_running_job_terminates_the_worker():
    async def scenario():
        service = SynthesisService()
        status = await service.submit(api.SynthesizeRequest(problem="example_1_1"))
        # Let the job reach the worker process, then cancel it.
        for _ in range(100):
            await asyncio.sleep(0.02)
            if (await service.job_status(status.id)).state == api.JOB_RUNNING:
                break
        await service.cancel(status.id)
        final = await service.wait(status.id, timeout=30)
        assert final.state == api.JOB_CANCELLED
        assert final.error is not None and final.error.code == "cancelled"

    asyncio.run(scenario())


# ------------------------------------------------------------------ HTTP layer
@pytest.fixture(scope="module")
def server():
    with BackgroundServer(SynthesisService()) as handle:
        yield handle


def test_healthz(server):
    status, payload = http_get(server.url + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["version"] == api.API_VERSION
    assert payload["problems"] >= 18


def test_problems_endpoint_matches_the_registry(server):
    status, payload = http_get(server.url + "/v1/problems?tag=family:union")
    assert status == 200
    assert {entry["name"] for entry in payload} == {
        "union_of_3_views",
        "union_of_4_views",
        "union_of_5_views",
    }
    for entry in payload:
        api.ProblemInfo.from_json_dict(entry)  # valid wire schema


def test_synthesize_cold_then_warm_over_http(server):
    status, payload = http_post(
        server.url + "/v1/synthesize?wait=1", {"problem": "intersection_view"}
    )
    assert status == 200
    job = api.JobStatus.from_json_dict(payload)
    assert job.state == api.JOB_DONE
    assert job.result.expression
    assert not job.result.cache_hit

    _, health_before = http_get(server.url + "/healthz")
    status, payload = http_post(
        server.url + "/v1/synthesize?wait=1", {"problem": "intersection_view"}
    )
    assert status == 200
    warm = api.JobStatus.from_json_dict(payload)
    assert warm.state == api.JOB_DONE
    assert warm.result.cache_hit and warm.result.cache_tier == "memory"
    _, health_after = http_get(server.url + "/healthz")
    # The warm call never entered the queue.
    assert health_after["jobs_enqueued"] == health_before["jobs_enqueued"]
    assert health_after["warm_submissions"] == health_before["warm_submissions"] + 1


def test_async_submit_and_poll_over_http(server):
    status, payload = http_post(server.url + "/v1/synthesize", {"problem": "union_minus_view"})
    assert status in (200, 202)  # 202 while queued/running, 200 if already warm
    job_id = payload["id"]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, payload = http_get(server.url + f"/v1/jobs/{job_id}")
        assert status == 200
        if payload["state"] in ("done", "failed", "cancelled"):
            break
        time.sleep(0.05)
    assert payload["state"] == "done"
    assert payload["result"]["problem"] == "union_minus_view"


def test_http_error_taxonomy(server):
    # Unknown problem → 404 with the structured code.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize?wait=1", {"problem": "no_such"}
    )
    assert code == 404 and body["error"]["code"] == "unknown_problem"
    # Invalid spec (unknown field) → 400.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize", {"problem": "union_view", "depth": 1}
    )
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # Unknown job → 404.
    code, body = http_error(http_get, server.url + "/v1/jobs/job-424242")
    assert code == 404 and body["error"]["code"] == "unknown_job"
    # Unknown route → 404.
    code, body = http_error(http_get, server.url + "/v1/nope")
    assert code == 404 and body["error"]["code"] == "not_found"
    # Synthesis failure (the known-xfail entry) → 422 with provenance.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize?wait=1", {"problem": "selection_view"}
    )
    assert code == 422
    assert body["error"]["code"] == "synthesis_failed"
    assert body["error"]["detail"]["error_type"] == "InterpolationError"
    # Per-job timeout → 504 with the structured timeout error.
    code, body = http_error(
        http_post,
        server.url + "/v1/synthesize?wait=1",
        {"problem": "example_1_1", "timeout": 0.5},
    )
    assert code == 504 and body["error"]["code"] == "timeout"


def test_non_finite_timeout_is_a_400(server):
    # json.dumps writes float("nan") as the bare token NaN.
    code, body = http_error(
        http_post, server.url + "/v1/synthesize", {"problem": "union_view", "timeout": float("nan")}
    )
    assert code == 400 and body["error"]["code"] == "invalid_request"
    assert "NaN" in body["error"]["message"]


def test_corrupt_disk_entry_does_not_serve_warm_inline(tmp_path):
    """A peeked-but-unreadable cache entry must fall back to the job queue,
    never to an inline cold synthesis on the event loop."""

    async def scenario():
        service = SynthesisService(cache_dir=str(tmp_path))
        first = await service.wait(
            (await service.submit(api.SynthesizeRequest(problem="union_view"))).id
        )
        assert first.state == api.JOB_DONE
        # Fresh service on the same disk tier, with the payload corrupted:
        # peek still sees the file, lookup must read it as a miss.
        fresh = SynthesisService(cache_dir=str(tmp_path))
        for payload in tmp_path.glob("*.pkl"):
            payload.write_bytes(b"not a pickle")
        status = await fresh.submit(api.SynthesizeRequest(problem="union_view"))
        assert status.state in (api.JOB_QUEUED, api.JOB_RUNNING)  # queued, not inline
        assert fresh.jobs_enqueued == 1 and fresh.warm_submissions == 0
        final = await fresh.wait(status.id)
        assert final.state == api.JOB_DONE

    asyncio.run(scenario())


def test_each_warm_read_counts_one_hit(tmp_path):
    """A warm read adds one to ``hits``, plus one to ``disk_hits`` when its
    entry came from the disk tier (it then answers from memory)."""

    async def scenario():
        request = api.SynthesizeRequest(problem="union_view")
        service = SynthesisService(cache_dir=str(tmp_path))
        cold = await service.wait((await service.submit(request)).id)
        assert cold.state == api.JOB_DONE
        stats = service.cache.stats
        assert (stats.hits, stats.disk_hits) == (0, 0)
        reads = [await service.submit(request) for _ in range(3)]
        assert [status.result.cache_tier for status in reads] == ["memory"] * 3
        assert (stats.hits, stats.disk_hits) == (3, 0)
        # A fresh service on the same disk tier: the first read comes from
        # disk and is promoted, the next two from memory.
        fresh = SynthesisService(cache_dir=str(tmp_path))
        reads = [await fresh.submit(request) for _ in range(3)]
        assert fresh.warm_submissions == 3 and fresh.jobs_enqueued == 0
        assert [status.result.cache_tier for status in reads] == ["memory"] * 3
        stats = fresh.cache.stats
        assert (stats.hits, stats.disk_hits, stats.misses) == (3, 1, 0)

    asyncio.run(scenario())


def test_negative_content_length_is_a_400(server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.putrequest("POST", "/v1/synthesize", skip_accept_encoding=True)
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]["code"] == "invalid_request"
    finally:
        connection.close()


def test_malformed_body_is_a_400(server):
    request = urllib.request.Request(
        server.url + "/v1/synthesize",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_cache_stats_over_http(server, tmp_path):
    status, payload = http_get(server.url + "/v1/cache/stats")
    assert status == 200
    assert "intern_table" in payload["process"]
    status, payload = http_get(server.url + f"/v1/cache/stats?cache_dir={tmp_path}")
    assert status == 200
    assert payload["cache_dir"] == str(tmp_path) and payload["entries"] == []


def test_eight_concurrent_synthesize_requests_do_not_block_the_loop(server):
    """The ISSUE 5 acceptance bar: ≥8 concurrent /v1/synthesize requests,
    with the event loop still answering /healthz while they run."""
    problems = [
        "identity_view",
        "union_view",
        "intersection_view",
        "pair_of_views",
        "unique_element",
        "union_of_3_views",
        "union_of_4_views",
        "copy_chain_2",
    ]
    results = {}
    errors = []

    def submit(name):
        try:
            results[name] = http_post(
                server.url + "/v1/synthesize?wait=1", {"problem": name}
            )
        except Exception as exc:  # noqa: BLE001 - surfaced by the assertion below
            errors.append((name, exc))

    threads = [threading.Thread(target=submit, args=(name,)) for name in problems]
    for thread in threads:
        thread.start()
    # While the jobs run, the loop must keep serving health checks quickly.
    probes = 0
    while any(thread.is_alive() for thread in threads):
        start = time.monotonic()
        status, payload = http_get(server.url + "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert time.monotonic() - start < 5.0
        probes += 1
        time.sleep(0.05)
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert probes > 0
    assert len(results) == len(problems)
    for name, (status, payload) in results.items():
        assert status == 200, (name, payload)
        assert payload["state"] == "done", (name, payload)
        assert payload["result"]["expression"], name


# ------------------------------------------------------ sweeps + pagination
def test_health_reports_node_identity(server):
    status, payload = http_get(server.url + "/healthz")
    assert status == 200
    assert "node" not in payload
    assert isinstance(payload["queue_depth"], int)
    assert "sweeps" in payload and "sweeps_enqueued" in payload


def test_problems_pagination_tiles_the_registry(server):
    status, everything = http_get(server.url + "/v1/problems")
    assert status == 200 and isinstance(everything, list)  # legacy bare array
    collected = []
    url = server.url + "/v1/problems?limit=5"
    while True:
        status, payload = http_get(url)
        assert status == 200
        page = api.ProblemPage.from_json_dict(payload)
        assert len(page.problems) <= 5
        collected.extend(info.to_json_dict() for info in page.problems)
        if page.next_cursor is None:
            break
        url = server.url + f"/v1/problems?limit=5&cursor={page.next_cursor}"
    # Pages tile the legacy listing exactly: no gaps, no duplicates.
    assert collected == everything


def test_problems_pagination_respects_the_tag_filter(server):
    status, payload = http_get(server.url + "/v1/problems?tag=family:union&limit=2")
    assert status == 200
    page = api.ProblemPage.from_json_dict(payload)
    assert [info.name for info in page.problems] == ["union_of_3_views", "union_of_4_views"]
    status, payload = http_get(
        server.url + f"/v1/problems?tag=family:union&limit=2&cursor={page.next_cursor}"
    )
    rest = api.ProblemPage.from_json_dict(payload)
    assert [info.name for info in rest.problems] == ["union_of_5_views"]
    assert rest.next_cursor is None


def test_malformed_and_stale_cursors_are_invalid_requests(server):
    code, body = http_error(http_get, server.url + "/v1/problems?limit=5&cursor=%21%21")
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # A well-formed cursor naming a problem outside the listing is also bad.
    import base64

    stale = base64.urlsafe_b64encode(b"no_such_problem").decode().rstrip("=")
    code, body = http_error(http_get, server.url + f"/v1/problems?limit=5&cursor={stale}")
    assert code == 400 and body["error"]["code"] == "invalid_request"
    # Limits must be positive integers.
    code, body = http_error(http_get, server.url + "/v1/problems?limit=0")
    assert code == 400
    code, body = http_error(http_get, server.url + "/v1/problems?limit=soon")
    assert code == 400


def test_cache_stats_pagination_over_http(server, tmp_path):
    from repro.proofs.search import ProofSearch
    from repro.service.cache import SynthesisCache
    from repro.specs import examples
    from repro.synthesis import synthesize

    cache = SynthesisCache(disk_dir=tmp_path)
    for problem in (examples.identity_view(), examples.union_view(),
                    examples.intersection_view()):
        cache.store(problem, synthesize(problem, search=ProofSearch(max_depth=12)))
    base = server.url + f"/v1/cache/stats?cache_dir={tmp_path}"
    status, whole = http_get(base)
    assert status == 200 and len(whole["entries"]) == 3
    assert "next_cursor" not in whole  # unpaginated shape is unchanged
    status, first = http_get(base + "&limit=2")
    page = api.DiskCacheStats.from_json_dict(first)
    assert len(page.entries) == 2 and page.next_cursor is not None
    # Totals describe the whole directory on every page.
    assert page.total_payload_bytes == whole["total_payload_bytes"]
    status, second = http_get(base + f"&limit=2&cursor={page.next_cursor}")
    rest = api.DiskCacheStats.from_json_dict(second)
    assert len(rest.entries) == 1 and rest.next_cursor is None
    digests = [entry.digest for entry in page.entries + rest.entries]
    assert digests == sorted(digests)  # stable digest order across pages
    assert {entry["digest"] for entry in whole["entries"]} == set(digests)
    # Pagination without a directory to paginate is an invalid request.
    code, body = http_error(http_get, server.url + "/v1/cache/stats?limit=2")
    assert code == 400 and body["error"]["code"] == "invalid_request"


def test_sweep_submit_then_poll_over_http(server):
    status, payload = http_post(
        server.url + "/v1/sweeps",
        {"problems": ["identity_view", "unique_element"], "processes": 1},
    )
    assert status in (200, 202)
    submitted = api.SweepJobStatus.from_json_dict(payload)
    assert submitted.id.startswith("sweep-")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, payload = http_get(server.url + f"/v1/sweeps/{submitted.id}")
        assert status == 200
        polled = api.SweepJobStatus.from_json_dict(payload)
        if polled.finished:
            break
        time.sleep(0.05)
    assert polled.state == api.JOB_DONE
    assert polled.result is not None and polled.result.ok
    assert [job.name for job in polled.result.jobs] == ["identity_view", "unique_element"]


def test_sweep_wait_inline_answers_the_legacy_document(server):
    status, payload = http_post(
        server.url + "/v1/sweeps?wait=1",
        {"problems": ["identity_view"], "processes": 1},
    )
    assert status == 200
    # The bare SweepResponse shape `repro sweep --json` always printed.
    assert list(payload) == ["wall_seconds", "processes", "counts", "cache_hits", "ok", "jobs"]
    response = api.SweepResponse.from_json_dict(payload)
    assert response.ok and response.jobs[0].name == "identity_view"


def test_unknown_sweep_job_is_a_404(server):
    code, body = http_error(http_get, server.url + "/v1/sweeps/sweep-424242")
    assert code == 404 and body["error"]["code"] == "unknown_job"
    # Bad submissions are rejected before a job is minted.
    code, body = http_error(
        http_post, server.url + "/v1/sweeps", {"problems": ["x"], "shard_size": 0}
    )
    assert code == 400 and body["error"]["code"] == "invalid_request"


# ----------------------------------------------------- spec_text submissions
def test_spec_text_submission_over_http(server):
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    problem = default_registry().get("union_view").problem()
    status, by_text = http_post(
        server.url + "/v1/synthesize?wait=1", {"spec_text": pretty_problem(problem)}
    )
    assert status == 200
    assert by_text["state"] == "done"
    assert by_text["problem"] == "union_view"
    _, by_name = http_post(server.url + "/v1/synthesize?wait=1", {"problem": "union_view"})
    assert by_text["result"]["expression"] == by_name["result"]["expression"]


def test_edits_naming_an_ancestor_are_answered_cold_over_http(server, tmp_path):
    """``ancestor`` is accepted and ignored: an edit that names a stored
    spec's witness, or a digest nothing stored, answers cold with the query a
    request without ``ancestor`` gets."""
    import random

    from repro.nr.types import UR, SetType
    from repro.nrc.expr import NDiff, NUnion, NVar
    from repro.specs.fuzz import build_spec
    from repro.witness.store import witness_digest

    set_ur = SetType(UR)
    i1, i2, i3 = (NVar(name, set_ur) for name in ("I1", "I2", "I3"))
    stored = build_spec(NUnion(NDiff(i1, i2), i3), "http_anc", random.Random(0))
    stored_digest = witness_digest(stored.problem.determinacy_goal())
    edits = [
        (build_spec(NUnion(NDiff(i1, i3), i3), "http_edit", random.Random(1)), stored_digest),
        (build_spec(NUnion(NDiff(i2, i3), i1), "http_edit_2", random.Random(2)), "0" * 64),
    ]
    service = SynthesisService(cache_dir=str(tmp_path))
    with BackgroundServer(service) as handle:
        status, first = http_post(handle.url + "/v1/synthesize?wait=1", {"spec_text": stored.spec_text()})
        assert status == 200 and first["result"]["source"] == "cold"
        assert stored_digest in service.cache.witnesses
        for edit, ancestor in edits:
            body = {"spec_text": edit.spec_text()}
            status, named = http_post(handle.url + "/v1/synthesize?wait=1", {**body, "ancestor": ancestor})
            assert status == 200 and named["state"] == "done", named
            assert named["result"]["source"] == "cold", ancestor
            _, plain = http_post(server.url + "/v1/synthesize?wait=1", body)
            assert named["result"]["expression"] == plain["result"]["expression"], ancestor


def test_spec_text_parse_error_over_http(server):
    code, body = http_error(
        http_post, server.url + "/v1/synthesize", {"spec_text": "problem broken {"}
    )
    assert code == 400
    assert body["error"]["code"] == "parse_error"
    assert set(body["error"]["detail"]) == {"line", "column", "offset"}


def test_spec_text_job_snapshot_carries_the_parsed_name():
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    async def scenario():
        service = SynthesisService()
        text = pretty_problem(default_registry().get("identity_view").problem())
        status = await service.submit(api.SynthesizeRequest(spec_text=text))
        final = await service.wait(status.id)
        assert final.problem == "identity_view"
        assert final.state == api.JOB_DONE

    asyncio.run(scenario())


# ------------------------------------------------------- warm-read cost
def test_warm_reads_do_no_spec_work(monkeypatch):
    """Past the first warm read, a memory-tier hit builds, checks and
    digests nothing: the registry entry's problem carries all of it."""
    import hashlib

    from repro.service import cache as cache_mod
    from repro.service import pipeline as pipeline_mod
    from repro.service.registry import build_default_registry
    from repro.specs import problems as problems_mod

    registry = build_default_registry()
    entry = registry.get("union_view")
    counts = {"factory": 0, "check_formula": 0, "sha256": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    object.__setattr__(entry, "factory", counting("factory", entry.factory))
    for module in (pipeline_mod, problems_mod):
        monkeypatch.setattr(module, "check_formula", counting("check_formula", module.check_formula))

    class CountingHashlib:
        sha256 = staticmethod(counting("sha256", hashlib.sha256))

    monkeypatch.setattr(cache_mod, "hashlib", CountingHashlib)

    async def scenario():
        service = SynthesisService(registry=registry)
        request = api.SynthesizeRequest(problem="union_view")
        cold = await service.wait((await service.submit(request)).id)
        assert cold.state == api.JOB_DONE
        first_warm = await service.submit(request)
        assert first_warm.result.cache_tier == "memory"
        assert counts["factory"] == 1
        for name in counts:
            counts[name] = 0
        reads = [await service.submit(request) for _ in range(50)]
        return first_warm.result, [status.result for status in reads]

    first, results = asyncio.run(scenario())
    assert counts == {"factory": 0, "check_formula": 0, "sha256": 0}
    for result in results:
        assert result.cache_tier == "memory"
        assert (result.digest, result.expression, result.expression_size, result.proof_size) == (
            first.digest,
            first.expression,
            first.expression_size,
            first.proof_size,
        )


def test_job_retention_at_its_bound(monkeypatch):
    from repro.service import server as server_mod

    monkeypatch.setattr(server_mod, "FINISHED_JOB_RETENTION", 8)

    async def scenario():
        service = SynthesisService()
        request = api.SynthesizeRequest(problem="union_view")
        cold = await service.wait((await service.submit(request)).id)
        assert cold.state == api.JOB_DONE
        sweep = await service.wait_sweep(
            (await service.submit_sweep(api.SweepRequest(problems=("identity_view",)))).id
        )
        assert sweep.state == api.JOB_DONE
        warm_ids = []
        for _ in range(40):
            status = await service.submit(request)
            assert status.state == api.JOB_DONE and status.result.cache_tier == "memory"
            warm_ids.append(status.id)
        # One job still in flight: it counts toward the queue, not retention.
        pending = await service.submit(api.SynthesizeRequest(problem="intersection_view"))
        kept = [job for job in service._jobs.values() if not job.is_sweep and not job.active]
        assert [job.id for job in kept] == warm_ids[-8:]
        assert [job.finished_mono for job in kept] == sorted(job.finished_mono for job in kept)
        assert sweep.id in service._jobs
        active = sum(1 for job in service._jobs.values() if job.active)
        assert service.queue_depth() == active == 1
        await service.wait(pending.id)
        assert service.queue_depth() == 0

    asyncio.run(scenario())


# --------------------------------------------------------- clock robustness
def test_job_pruning_survives_wall_clock_jumps(monkeypatch):
    from repro.service import server as server_mod

    monkeypatch.setattr(server_mod, "FINISHED_JOB_RETENTION", 2)
    service = SynthesisService()
    request = api.SynthesizeRequest(problem="union_view")
    # Wall clock steps *backwards* across these jobs (NTP correction mid-run);
    # the finish order is the true completion order.
    for index in range(5):
        job = service._new_job(f"job-{index}", request)
        monkeypatch.setattr(server_mod.time, "time", lambda index=index: 1000.0 - index)
        service._finish(job, api.JOB_DONE)
        service._add(job)
    # The two *most recently finished* jobs survive, not the two the jumped
    # wall clock claims are newest (those are job-0/job-1).
    assert set(service._jobs) == {"job-3", "job-4"}


def test_uptime_is_immune_to_wall_clock_steps(monkeypatch):
    import time as time_module

    from repro.obs.metrics import process_uptime_seconds

    before = process_uptime_seconds()
    monkeypatch.setattr(time_module, "time", lambda: 0.0)  # step to the epoch
    after = process_uptime_seconds()
    assert 0.0 <= before <= after
    service = SynthesisService()
    assert service.health()["uptime_seconds"] >= 0.0


# ------------------------------------------------------- cache-warm failures
def test_cache_warm_failures_are_logged_and_counted(caplog):
    import logging

    from repro.obs.metrics import get_registry
    from repro.service import server as server_mod
    from repro.service.registry import RegistryEntry

    def boom():
        raise RuntimeError("factory exploded")

    service = SynthesisService()
    entry = RegistryEntry(name="boom", factory=boom, description="test entry")
    job = server_mod._Job(
        id="job-boom",
        request=api.SynthesizeRequest(spec_text="problem boom { output O : Set(Ur); spec T }"),
        state=api.JOB_DONE,
        submitted_at=0.0,
        entry=entry,
    )
    before = get_registry().counter_total("repro_cache_warm_failures_total")
    with caplog.at_level(logging.DEBUG, logger="repro.service.server"):
        service._adopt_result(job, object())
    assert get_registry().counter_total("repro_cache_warm_failures_total") == before + 1
    assert any("cache warm failed" in record.message for record in caplog.records)
    assert "repro_cache_warm_failures_total" in get_registry().render_prometheus()


# ------------------------------------------------------------ witness exchange
def http_put(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="PUT",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode())


def test_witness_endpoints_need_a_disk_backed_cache(server):
    code, body = http_error(http_get, server.url + "/v1/witnesses")
    assert code == 400
    assert body["error"]["code"] == "invalid_request"
    assert "witness store unavailable" in body["error"]["message"]


def test_witness_endpoints_roundtrip(tmp_path):
    from repro.witness.handwritten import install_handwritten

    service = SynthesisService(cache_dir=str(tmp_path / "cache"))
    records = install_handwritten(service.cache.witnesses)
    digests = {record.digest for record in records.values()}
    with BackgroundServer(service) as handle:
        status, page = http_get(handle.url + "/v1/witnesses")
        assert status == 200
        assert {info["digest"] for info in page["witnesses"]} == digests
        status, limited = http_get(handle.url + "/v1/witnesses?limit=1")
        assert status == 200 and len(limited["witnesses"]) == 1
        digest = page["witnesses"][0]["digest"]
        status, payload = http_get(handle.url + f"/v1/witnesses/{digest}")
        assert status == 200
        assert payload["info"]["digest"] == digest and payload["payload"]
        code, body = http_error(http_get, handle.url + "/v1/witnesses/" + "0" * 64)
        assert code == 404 and body["error"]["code"] == "not_found"

    # PUT the exported payload into a second, empty node.
    receiver = SynthesisService(cache_dir=str(tmp_path / "other"))
    with BackgroundServer(receiver) as handle:
        status, info = http_put(handle.url + "/v1/witnesses", payload)
        assert status == 200 and info["digest"] == digest
        status, page = http_get(handle.url + "/v1/witnesses")
        assert [item["digest"] for item in page["witnesses"]] == [digest]
        code, body = http_error(
            http_put, handle.url + "/v1/witnesses", {"payload": "definitely-not-base64!"}
        )
        assert code == 400 and body["error"]["code"] == "invalid_request"


def test_get_witness_reads_only_its_own_sidecar(tmp_path, monkeypatch, capsys):
    from repro.service.cli import main
    from repro.witness.handwritten import install_handwritten
    from repro.witness.store import WitnessStore

    service = SynthesisService(cache_dir=str(tmp_path))
    listed = {info.digest: info for info in service.list_witnesses().witnesses}
    assert not listed
    install_handwritten(service.cache.witnesses)
    listed = {info.digest: info for info in service.list_witnesses().witnesses}
    assert len(listed) == 2

    def refuse(_store):
        raise AssertionError("one witness's metadata must not list the whole store")

    monkeypatch.setattr(WitnessStore, "list", refuse)
    for digest, info in listed.items():
        assert service.get_witness(digest).info == info
    digest = sorted(listed)[0]
    with BackgroundServer(service) as handle:
        status, payload = http_get(handle.url + f"/v1/witnesses/{digest}")
    assert status == 200 and api.WitnessInfo.from_json_dict(payload["info"]) == listed[digest]
    capsys.readouterr()
    assert main(["witness", "show", digest, "--json", "--cache-dir", str(tmp_path)]) == 0
    assert api.WitnessInfo.from_json(capsys.readouterr().out) == listed[digest]


class _MkdirOnLoad:
    """Unpickles to a call of ``os.mkdir``: the shape of a code-execution payload."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_witness_import_refuses_a_payload_that_runs_code(tmp_path):
    from repro.witness.store import witness_fingerprint

    created = tmp_path / "created-by-the-payload"
    blob = pickle.dumps({"fingerprint": witness_fingerprint(), "proof": _MkdirOnLoad(str(created))})
    service = SynthesisService(cache_dir=str(tmp_path / "cache"))
    with BackgroundServer(service) as handle:
        code, body = http_error(
            http_put, handle.url + "/v1/witnesses", {"payload": base64.b64encode(blob).decode("ascii")}
        )
    assert not created.exists()
    assert code == 400 and body["error"]["code"] == "invalid_request"
    assert "mkdir is not part of a witness payload" in body["error"]["message"]
    assert len(service.cache.witnesses) == 0


# ------------------------------------------------------- untrusted requests
def _metric_label_values(url, metric, label):
    _, snapshot = http_get(url + "/v1/metrics?format=json")
    (family,) = [item for item in snapshot["metrics"] if item["name"] == metric]
    return {sample["labels"][label] for sample in family["samples"]}


def _raw_exchange(server, data):
    """Send raw bytes, then read the answer until the server closes."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(data)
        answer = b""
        try:
            while chunk := sock.recv(65536):
                answer += chunk
        except ConnectionResetError:
            pass
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_unrouted_methods_share_one_metric_label(server):
    import http.client

    for index in range(20):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        connection.request(f"M{index}", "/healthz")
        response = connection.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"]["message"] == f"no route for M{index} /healthz"
        connection.close()
    methods = _metric_label_values(server.url, "repro_http_requests_total", "method")
    assert "<other>" in methods
    assert not any(method.startswith("M") for method in methods), methods
    from repro.service.server import ROUTES

    endpoints = _metric_label_values(server.url, "repro_http_requests_total", "endpoint")
    assert "/healthz" in endpoints
    assert endpoints <= {template for _, template, _ in ROUTES} | {"<other>"}, endpoints


@pytest.mark.parametrize(
    "head",
    [
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (70 * 1024) + b"\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
    ],
    ids=["header-line-over-64KiB", "101-header-lines"],
)
def test_malformed_request_head_is_a_400(server, head):
    _, before = http_get(server.url + "/healthz")
    status, body = _raw_exchange(server, head)
    assert status == 400 and body["error"]["code"] == "invalid_request"
    _, after = http_get(server.url + "/healthz")
    assert after["errors_total"] == before["errors_total"]


def _weakened(premises, weakens):
    """``weakens`` ``weaken`` nodes over ``⊢ ⊤``, the top one with ``premises``."""
    from repro.logic.formulas import Top
    from repro.proofs.prooftree import ProofNode
    from repro.proofs.sequents import Sequent

    sequent = Sequent.of(delta=[Top()])
    node = ProofNode("top", sequent, (), {"principal": Top()})
    for _ in range(weakens - 1):
        node = ProofNode("weaken", sequent, (node,), {})
    return ProofNode("weaken", sequent, premises if premises is not None else (node,), {})


def _witness_blob(proof, **fields):
    import sys

    from repro.witness.store import export_witness

    payload = {**export_witness(proof), **fields}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)


def _top():
    from repro.logic.formulas import Top

    return Top()


MALFORMED_WITNESSES = {
    "premise-is-a-str": lambda: _witness_blob(_weakened(("not a node",), 1)),
    "chain-of-5000-weakens": lambda: _witness_blob(_weakened(None, 5000)),
    "name-is-a-formula": lambda: _witness_blob(_weakened(None, 1), name=_top()),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
def test_witness_import_rejects_a_malformed_payload(tmp_path, case):
    blob = MALFORMED_WITNESSES[case]()
    service = SynthesisService(cache_dir=str(tmp_path / "cache"))
    with BackgroundServer(service) as handle:
        code, body = http_error(
            http_put, handle.url + "/v1/witnesses", {"payload": base64.b64encode(blob).decode("ascii")}
        )
    assert code == 400 and body["error"]["code"] == "invalid_request"
    assert "witness payload rejected" in body["error"]["message"]
    assert len(service.cache.witnesses) == 0
