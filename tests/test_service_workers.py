"""Parallel scenario runner: inline + multiprocess sweeps, isolation, timeout,
and the pool of long-lived worker processes behind them."""

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.obs.trace import get_tracer
from repro.service import api, workers
from repro.service.api import SweepOutcome
from repro.service.registry import default_registry
from repro.service.server import BackgroundServer, SynthesisService
from repro.service.workers import SweepSummary, run_request_in_process, run_sweep
from repro.synthesis import synthesize

FAST_NAMES = ["identity_view", "union_view", "unique_element"]


def test_inline_sweep_runs_and_orders_outcomes():
    summary = run_sweep(FAST_NAMES, processes=1, verify_scale=8)
    assert [outcome.name for outcome in summary.outcomes] == FAST_NAMES
    assert summary.processes == 1
    assert all(outcome.status == "ok" for outcome in summary.outcomes)
    assert all(outcome.verified is True for outcome in summary.outcomes)
    assert summary.ok and summary.counts == {"ok": 3}
    for outcome in summary.outcomes:
        assert outcome.expression
        assert "proof-search" in outcome.stage_seconds


def test_inline_sweep_isolates_unknown_problem():
    summary = run_sweep(["union_view", "definitely_not_registered"], processes=1)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["definitely_not_registered"].status == "error"
    assert "unknown problem" in by_name["definitely_not_registered"].error
    assert not summary.ok  # an unknown name is an unexpected failure


def test_inline_sweep_records_expected_failures_without_failing():
    # selection_view is a known interpolation limitation: the sweep reports
    # the error but the summary stays ok because the entry is marked xfail.
    summary = run_sweep(["union_view", "selection_view"], processes=1)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["selection_view"].status == "error"
    assert by_name["selection_view"].expected == "xfail"
    assert summary.ok


def test_parallel_sweep_multiprocess():
    summary = run_sweep(FAST_NAMES + ["union_of_3_views"], processes=2, verify_scale=6)
    assert summary.processes == 2
    assert [outcome.name for outcome in summary.outcomes] == FAST_NAMES + ["union_of_3_views"]
    assert all(outcome.status == "ok" for outcome in summary.outcomes)
    assert summary.ok


def test_parallel_sweep_timeout_terminates_stuck_jobs():
    # example_1_1's proof search runs for minutes without a proof; a tiny
    # timeout must kill it without losing the other jobs' results.
    summary = run_sweep(["union_view", "example_1_1"], processes=2, timeout=0.8)
    by_name = {outcome.name: outcome for outcome in summary.outcomes}
    assert by_name["union_view"].status == "ok"
    assert by_name["example_1_1"].status == "timeout"
    assert "timeout" in by_name["example_1_1"].error
    # A timeout on a `hard` entry is expected, not a failure of the sweep.
    assert by_name["example_1_1"].unexpected_failure is False


def test_timeout_on_an_entry_expected_to_synthesize_fails_the_sweep():
    timed_out = SweepOutcome("p", "timeout", 0.8, expected="ok", error="timeout after 0.8s")
    summary = SweepSummary([SweepOutcome("q", "ok", 0.1), timed_out], 1.0, 2)
    assert summary.unexpected_failures == [timed_out]
    assert not summary.ok


def test_duplicate_names_keep_both_outcomes():
    summary = run_sweep(["union_view", "union_view"], processes=2, timeout=30)
    assert [outcome.name for outcome in summary.outcomes] == ["union_view", "union_view"]
    assert summary.counts == {"ok": 2}


def test_timeout_is_honored_for_single_job_sweeps():
    # Deadline enforcement needs a killable process, so a one-job sweep with a
    # timeout must take the process path instead of running inline unbounded.
    summary = run_sweep(["example_1_1"], processes=1, timeout=0.8)
    assert summary.outcomes[0].status == "timeout"


def test_inline_sweep_isolates_bad_cache_dir(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("not a directory")
    summary = run_sweep(["union_view"], processes=1, cache_dir=str(target))
    outcome = summary.outcomes[0]
    assert outcome.status == "error"
    assert "FileExistsError" in outcome.error


def test_parallel_sweep_shares_results_through_disk_cache(tmp_path):
    cold = run_sweep(FAST_NAMES, processes=2, cache_dir=str(tmp_path))
    assert all(outcome.status == "ok" for outcome in cold.outcomes)
    assert cold.cache_hits == 0
    warm = run_sweep(FAST_NAMES, processes=2, cache_dir=str(tmp_path))
    assert all(outcome.status == "ok" for outcome in warm.outcomes)
    assert warm.cache_hits == len(FAST_NAMES)
    assert all(outcome.cache_tier == "disk" for outcome in warm.outcomes)
    # Warm sweeps skip proof search entirely.
    for outcome in warm.outcomes:
        assert "proof-search" not in outcome.stage_seconds


def test_default_population_is_the_sweepable_registry():
    summary = run_sweep(processes=1, registry=default_registry(), max_depth=2)
    expected = [entry.name for entry in default_registry().sweepable()]
    assert [outcome.name for outcome in summary.outcomes] == expected
    # With a depth-2 budget most searches fail — but every job still reports.
    assert len(summary.outcomes) == len(expected)


def test_job_outcome_flags():
    ok = SweepOutcome("p", "ok", 0.1)
    assert ok.ok and not ok.unexpected_failure
    failed = SweepOutcome("p", "error", 0.1, expected="xfail")
    assert not failed.ok and not failed.unexpected_failure
    unexpected = SweepOutcome("p", "timeout", 0.1)
    assert unexpected.unexpected_failure
    with pytest.raises(TypeError):
        SweepOutcome()  # name/status/seconds are required


# ------------------------------------------------------------ the worker pool
def _spec_texts(count, seed=3):
    """``count`` fuzz specs with distinct content addresses, as spec text."""
    from repro.service.cache import spec_digest
    from repro.specs.fuzz import generate_spec
    from repro.specs.lang import pretty_problem

    texts, seen, index = [], set(), 0
    while len(texts) < count:
        problem = generate_spec(seed, index).problem
        index += 1
        if spec_digest(problem) not in seen:
            seen.add(spec_digest(problem))
            texts.append(pretty_problem(problem))
    return texts


def _worker_pid(service, job_id):
    spans = service.job_trace(job_id).spans
    return next(span.attributes["pid"] for span in spans if span.name == "worker.request")


async def _run(service, request, timeout=60):
    status = await service.submit(request)
    return await service.wait(status.id, timeout=timeout)


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_sequential_cold_jobs_share_one_worker(traced):
    async def scenario():
        service = SynthesisService()
        first, second = [
            await _run(service, api.SynthesizeRequest(spec_text=text)) for text in _spec_texts(2)
        ]
        assert first.state == second.state == api.JOB_DONE
        assert first.result.cache_tier == second.result.cache_tier == "miss"
        assert _worker_pid(service, first.id) == _worker_pid(service, second.id) != os.getpid()

    asyncio.run(scenario())


def test_a_timed_out_worker_is_replaced(traced):
    async def scenario():
        service = SynthesisService()
        warm_up, after = _spec_texts(2)
        first = await _run(service, api.SynthesizeRequest(spec_text=warm_up))
        stuck_pid = _worker_pid(service, first.id)
        # The hard entry takes the idle worker that just answered.
        timed_out = await _run(service, api.SynthesizeRequest(problem="example_1_1", timeout=0.6))
        assert timed_out.error is not None and timed_out.error.code == "timeout"
        assert _gone(stuck_pid)
        final = await _run(service, api.SynthesizeRequest(spec_text=after))
        assert final.state == api.JOB_DONE
        assert _worker_pid(service, final.id) != stuck_pid

    asyncio.run(scenario())


def test_a_killed_worker_fails_only_its_job(traced):
    async def scenario():
        service = SynthesisService()
        warm_up, beside, after = _spec_texts(3)
        first = await _run(service, api.SynthesizeRequest(spec_text=warm_up))
        victim = _worker_pid(service, first.id)
        # The deadline only bounds the test if the kill goes astray.
        hard = await service.submit(api.SynthesizeRequest(problem="example_1_1", timeout=120))
        # Wait until the hard job has taken the idle worker, so the job
        # beside it forks its own.
        for _ in range(3000):
            if all(worker.process.pid != victim for worker in workers._IDLE_WORKERS):
                break
            await asyncio.sleep(0.01)
        other = await _run(service, api.SynthesizeRequest(spec_text=beside))
        assert other.state == api.JOB_DONE
        assert _worker_pid(service, other.id) != victim
        os.kill(victim, signal.SIGKILL)
        crashed = await service.wait(hard.id, timeout=30)
        assert crashed.state == api.JOB_FAILED
        assert crashed.error is not None and crashed.error.code == "internal"
        final = await _run(service, api.SynthesizeRequest(spec_text=after))
        assert final.state == api.JOB_DONE

    asyncio.run(scenario())


def test_a_long_lived_worker_answers_like_a_fresh_one(traced):
    workers.stop_workers()
    request = api.SynthesizeRequest(problem="union_of_3_views")

    def run(request):
        tracer = get_tracer()
        with tracer.span("test.job") as span:
            response, _ = run_request_in_process(request, trace_context=span.context)
        trace_id = span.context.trace_id
        pid = next(
            item["attributes"]["pid"]
            for item in tracer.spans_for(trace_id)
            if item["name"] == "worker.request"
        )
        return response, pid

    fresh, pid = run(request)
    for text in _spec_texts(20):
        run(api.SynthesizeRequest(spec_text=text))
    later, later_pid = run(request)
    assert later_pid == pid
    assert fresh.cache_tier == later.cache_tier == "miss"
    assert (later.expression, later.proof_size) == (fresh.expression, fresh.proof_size)


def test_a_result_from_a_worker_is_made_of_this_process_nodes():
    """Unpickling is construction: the expression and φ a worker sends back
    are the nodes this process already holds, not copies."""
    problem = default_registry().problem("union_view")
    local = synthesize(problem)
    _, result = run_request_in_process(api.SynthesizeRequest(problem="union_view"), timeout=60)
    assert result.expression is local.expression
    assert result.problem.phi is problem.phi


def test_concurrent_jobs_never_share_a_worker():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.service.cache import spec_digest
    from repro.specs.lang import parse_problem

    workers.stop_workers()
    texts = _spec_texts(16)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(
                pool.map(
                    lambda text: run_request_in_process(api.SynthesizeRequest(spec_text=text), timeout=60)[0],
                    texts,
                )
            )
    finally:
        sys.setswitchinterval(switch)
    # A worker handed to two jobs at once would answer one of them with the
    # other's result.
    assert [answer.digest for answer in answers] == [spec_digest(parse_problem(text)) for text in texts]
    idle = [worker.process.pid for worker in workers._IDLE_WORKERS]
    assert len(set(idle)) == len(idle) <= 4


def test_stopping_the_server_ends_every_worker():
    import json
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    def synthesize(url, text):
        request = urllib.request.Request(
            url + "/v1/synthesize?wait=1",
            data=json.dumps({"spec_text": text}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read().decode())

    with BackgroundServer(SynthesisService()) as handle:
        with ThreadPoolExecutor(max_workers=2) as pool:
            answers = list(pool.map(lambda text: synthesize(handle.url, text), _spec_texts(2)))
        assert [answer["state"] for answer in answers] == ["done", "done"]
        assert multiprocessing.active_children()
    assert multiprocessing.active_children() == []


# ---------------------------------------------- `repro serve` with a busy job
def _running(pid):
    """Whether ``pid`` is a live process (a zombie counts as ended)."""
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid):
    """Pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            stat = open(f"/proc/{entry}/stat").read() if entry.isdigit() else ""
        except OSError:
            continue
        if stat and int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


@pytest.fixture
def serving_example_1_1():
    """A ``repro serve`` process whose pool worker is searching ``example_1_1``.

    Yields ``(server, worker_pids)``; whatever is still running afterwards
    is killed.
    """
    import json
    import re
    import subprocess
    import sys
    import time
    import urllib.request
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": src},
    )
    worker_pids = []
    try:
        port = re.search(r":(\d+)", server.stdout.readline().decode()).group(1)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/synthesize",
            data=json.dumps({"problem": "example_1_1", "timeout": 120}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        job = json.loads(urllib.request.urlopen(request, timeout=30).read())
        deadline = time.monotonic() + 30
        while not worker_pids and time.monotonic() < deadline:
            time.sleep(0.05)
            status = json.loads(
                urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/jobs/{job['id']}", timeout=10).read()
            )
            if status["state"] == api.JOB_RUNNING:
                worker_pids = _children(server.pid)
        assert worker_pids, "no worker started on example_1_1"
        yield server, worker_pids
    finally:
        for pid in [server.pid, *worker_pids]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        server.wait()
        server.stdout.close()


def _all_ended(pids, seconds):
    import time

    deadline = time.monotonic() + seconds
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(_running(pid) for pid in pids)


def test_an_interrupted_server_ends_its_busy_worker(serving_example_1_1):
    server, worker_pids = serving_example_1_1
    server.send_signal(signal.SIGINT)
    assert server.wait(timeout=5) == 0
    assert _all_ended(worker_pids, 1)


def test_a_busy_worker_ends_when_its_server_is_killed(serving_example_1_1):
    server, worker_pids = serving_example_1_1
    server.kill()
    server.wait()
    assert _all_ended(worker_pids, 3)
