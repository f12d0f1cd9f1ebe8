"""The ``repro`` command surface, and local↔remote parity of every operation.

``tests/golden/cli_surface_v1.json`` pins every subcommand's arguments:
option strings, positionals, ``dest``s, defaults, ``nargs``, types and
whether they are required, read from :func:`build_parser`'s actions rather
than from ``--help`` text (which differs between Python versions).

Every operation that has a local and a remote form (``list``,
``synthesize``, ``cache-stats``, ``sweep``, ``witness …``) must print the
same answer against a :class:`BackgroundServer` as in-process, and the
remote-only ``client`` operations and ``fuzz --url`` run end to end.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.service import api
from repro.service.cli import build_parser, main
from repro.service.server import BackgroundServer, SynthesisService

GOLDEN = Path(__file__).parent / "golden" / "cli_surface_v1.json"


def cli_surface(parser, path=()):
    """``{"sub command path": [argument record, ...]}`` for ``parser`` and below."""
    surface = {}
    records = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        record = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "required": action.required,
        }
        if isinstance(action, argparse._SubParsersAction):
            record["subcommands"] = list(action.choices)
            for name, sub_parser in action.choices.items():
                surface.update(cli_surface(sub_parser, path + (name,)))
        else:
            record["default"] = action.default
            record["nargs"] = action.nargs
            record["type"] = getattr(action.type, "__name__", None)
        records.append(record)
    surface[" ".join(path)] = records
    return surface


def test_cli_surface_matches_the_golden():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    surface = cli_surface(build_parser())
    assert sorted(surface) == sorted(golden)
    for path, records in golden.items():
        assert surface[path] == records, path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A server over a disk cache holding the hand-written witnesses."""
    from repro.witness.handwritten import install_handwritten

    cache_dir = tmp_path_factory.mktemp("served")
    service = SynthesisService(cache_dir=str(cache_dir))
    install_handwritten(service.cache.witnesses)
    with BackgroundServer(service) as handle:
        handle.cache_dir = str(cache_dir)
        yield handle


# ------------------------------------------------------------------- parity
@pytest.mark.parametrize(
    "argv",
    [("list",), ("list", "--tag", "family:union"), ("list", "--tag", "no-such-tag", "--json")],
)
def test_list_parity(capsys, served, argv):
    local = run_cli(capsys, *argv)
    remote = run_cli(capsys, "client", "--url", served.url, *argv)
    assert remote == local


def test_synthesize_spec_parity(capsys, served, tmp_path):
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    spec = tmp_path / "pair.spec"
    spec.write_text(pretty_problem(default_registry().get("pair_of_views").problem()))
    argv = ("synthesize", "--spec", str(spec), "--max-depth", "12", "--json")
    code, local_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, remote_out, _ = run_cli(capsys, "client", "--url", served.url, *argv)
    assert code == 0
    local, remote = json.loads(local_out), json.loads(remote_out)
    assert list(local) == list(remote)
    for key in ("problem", "digest", "expression", "expression_size", "proof_size"):
        assert local[key] == remote[key], key


@pytest.mark.parametrize("as_json", [False, True])
def test_cache_stats_parity(capsys, served, tmp_path, as_json):
    cache = tmp_path / "cache"
    assert run_cli(capsys, "synthesize", "identity_view", "--cache-dir", str(cache))[0] == 0
    argv = ("cache-stats", "--cache-dir", str(cache)) + (("--json",) if as_json else ())
    local = run_cli(capsys, *argv)
    remote = run_cli(capsys, "client", "--url", served.url, *argv)
    assert local[0] == 0 and remote == local
    assert "identity_view" in local[1]


def test_sweep_parity(capsys, served):
    argv = ("sweep", "identity_view", "union_view", "selection_view", "--processes", "1", "--json")
    code, local_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, remote_out, _ = run_cli(capsys, *argv, "--url", served.url, "--poll-interval", "0.05")
    assert code == 0
    local, remote = (api.SweepResponse.from_json(text) for text in (local_out, remote_out))
    assert local.to_stable_json() == remote.to_stable_json()
    assert local.ok and local.counts == {"error": 1, "ok": 2}


def test_sweep_url_text_output(capsys, served):
    code, out, _ = run_cli(capsys, "sweep", "identity_view", "--url", served.url)
    assert code == 0
    assert "identity_view" in out and "1 jobs in" in out


def test_witness_parity(capsys, served, tmp_path):
    local_flags = ("--cache-dir", served.cache_dir)
    remote_flags = ("--url", served.url)
    for argv in (("witness", "list"), ("witness", "list", "--json"), ("witness", "list", "--limit", "1")):
        local = run_cli(capsys, *argv, *local_flags)
        assert local[0] == 0
        assert run_cli(capsys, *argv, *remote_flags) == local
    page = json.loads(run_cli(capsys, "witness", "list", "--json", *local_flags)[1])
    digest = page["witnesses"][0]["digest"]
    for argv in (("witness", "show", digest), ("witness", "show", digest, "--json")):
        local = run_cli(capsys, *argv, *local_flags)
        assert local[0] == 0 and digest in local[1]
        assert run_cli(capsys, *argv, *remote_flags) == local
    no_limit = ("witness", "list", "--limit", "0")
    assert run_cli(capsys, *no_limit, *local_flags) == run_cli(capsys, *no_limit, *remote_flags)
    assert run_cli(capsys, *no_limit, *local_flags)[0] == 2
    missing = ("witness", "show", "0" * 64)
    assert run_cli(capsys, *missing, *local_flags)[0] == 2
    assert run_cli(capsys, *missing, *remote_flags)[0] == 2

    local_file, remote_file = tmp_path / "local.witness", tmp_path / "remote.witness"
    code, local_out, _ = run_cli(capsys, "witness", "export", digest, "-o", str(local_file), *local_flags)
    assert code == 0
    code, remote_out, _ = run_cli(capsys, "witness", "export", digest, "-o", str(remote_file), *remote_flags)
    assert code == 0
    assert local_file.read_bytes() == remote_file.read_bytes()
    assert local_out.replace(str(local_file), "FILE") == remote_out.replace(str(remote_file), "FILE")

    receiver = SynthesisService(cache_dir=str(tmp_path / "receiver"))
    with BackgroundServer(receiver) as handle:
        remote = run_cli(capsys, "witness", "import", str(local_file), "--json", "--url", handle.url)
    local = run_cli(capsys, "witness", "import", str(local_file), "--json", "--cache-dir", str(tmp_path / "other"))
    assert local[0] == 0 and remote == local
    imported = json.loads(local[1][local[1].index("{") :])
    assert [info["digest"] for info in imported["witnesses"]] == [digest]


# ------------------------------------------------------- remote-only smoke
def test_client_cancel_cache_stats_and_metrics(capsys, served):
    url = ("client", "--url", served.url)
    code, out, _ = run_cli(capsys, *url, "synthesize", "identity_view", "--no-wait")
    assert code == 0
    job_id = json.loads(out)["id"]
    code, out, _ = run_cli(capsys, *url, "cancel", job_id)
    assert code == 0
    assert json.loads(out)["state"] in ("queued", "running", "done", "cancelled")
    code, _, err = run_cli(capsys, *url, "cancel", "job-999999")
    assert code == 2 and "job-999999" in err

    code, out, _ = run_cli(capsys, *url, "cache-stats")
    assert code == 0 and "in-memory telemetry" in out
    code, out, _ = run_cli(capsys, *url, "cache-stats", "--json")
    assert code == 0 and "process" in json.loads(out)

    code, out, _ = run_cli(capsys, *url, "metrics")
    assert code == 0 and "repro_http_requests_total" in out
    code, out, _ = run_cli(capsys, *url, "metrics", "--json")
    assert code == 0
    assert "repro_http_requests_total" in {metric["name"] for metric in json.loads(out)["metrics"]}


def test_client_trace(capsys, traced):
    with BackgroundServer(SynthesisService()) as handle:
        url = ("client", "--url", handle.url)
        code, out, _ = run_cli(capsys, *url, "synthesize", "union_view", "--no-wait")
        assert code == 0
        job_id = json.loads(out)["id"]
        assert run_cli(capsys, *url, "synthesize", "union_view")[0] == 0
        # The synchronous submit above is another job, which can finish
        # first: wait on this job's own status before reading its trace.
        deadline = time.monotonic() + 120
        while True:
            code, out, _ = run_cli(capsys, *url, "job", job_id)
            assert code == 0
            state = json.loads(out)["state"]
            if state == "done" or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert state == "done"
        code, out, _ = run_cli(capsys, *url, "trace", job_id, "--json")
        assert code == 0
        trace = api.TraceInfo.from_json(out)
        assert trace.job_id == job_id
        code, out, _ = run_cli(capsys, *url, "trace", job_id)
        assert code == 0
        assert out.startswith(f"trace {trace.trace_id}") and "job" in out
        code, _, err = run_cli(capsys, *url, "trace", "job-999999")
        assert code == 2 and "job-999999" in err


def test_fuzz_against_a_server(served):
    from repro.specs.fuzz import run_fuzz

    report = run_fuzz(seed=0, count=5, url=served.url)
    assert report.checked == 5
    assert report.failures == []
