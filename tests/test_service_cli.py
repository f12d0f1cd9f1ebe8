"""The ``python -m repro`` command line."""

import json

import pytest

from repro.service.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_registry(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "union_view" in out and "pair_tower_2" in out
    assert "known-xfail" in out


def test_list_tag_filter_and_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--tag", "family:union", "--json")
    assert code == 0
    entries = json.loads(out)
    assert {entry["name"] for entry in entries} == {
        "union_of_3_views",
        "union_of_4_views",
        "union_of_5_views",
    }
    assert all("description" in entry for entry in entries)


def test_synthesize_text_output(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "union_view")
    assert code == 0
    assert "proof-search" in out and "synthesized definition" in out
    assert "cache: miss" in out


def test_synthesize_json_with_verification(capsys, in_process_definition):
    code, out, _ = run_cli(capsys, "synthesize", "union_view", "--verify-scale", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "union_view"
    assert payload["verification"]["ok"] is True
    assert payload["expression"] == in_process_definition("union_view")
    stage_names = [stage["name"] for stage in payload["stages"]]
    assert "proof-search" in stage_names and "verification" in stage_names


def test_synthesize_with_cache_dir_roundtrip(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "synthesize", "union_view", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "synthesize", "union_view", "--cache-dir", str(tmp_path), "--json"
    )
    assert code == 0
    assert json.loads(out)["cache_tier"] == "disk"


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "union_of_3_views", "--scale", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"] == {"checked": 10, "satisfying": 10, "ok": True}


def test_verify_rejects_degenerate_scale(capsys):
    code, _, err = run_cli(capsys, "verify", "union_view", "--scale", "0")
    assert code == 2
    assert "at least 1" in err


def test_verify_without_instances_is_an_error(capsys):
    code, _, err = run_cli(capsys, "verify", "selection_view")
    assert code == 2
    assert "no instance generator" in err


def test_unknown_problem_is_a_clean_error(capsys):
    code, _, err = run_cli(capsys, "synthesize", "not_a_problem")
    assert code == 2
    assert "unknown problem" in err


def test_known_xfail_synthesis_is_a_clean_error(capsys):
    # selection_view hits the known interpolation limitation: the CLI must
    # print a one-line error naming the registry expectation, not a traceback.
    code, _, err = run_cli(capsys, "synthesize", "selection_view")
    assert code == 1
    assert "InterpolationError" in err
    assert "'xfail'" in err


def test_sweep_inline_subset(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "identity_view", "unique_element", "--processes", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [job["name"] for job in payload["jobs"]] == ["identity_view", "unique_element"]


def test_sweep_reports_expected_failures_without_failing(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "identity_view", "selection_view", "--processes", "1"
    )
    assert code == 0
    assert "(expected)" in out


def test_cache_stats_empty_and_populated(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "cache-stats", "--cache-dir", str(tmp_path))
    assert code == 0 and "empty cache" in out

    run_cli(capsys, "synthesize", "union_view", "--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache-stats", "--cache-dir", str(tmp_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 1
    assert payload["entries"][0]["name"] == "union_view"
    assert payload["total_payload_bytes"] > 0


def test_cache_stats_without_dir_shows_process_telemetry(capsys):
    code, out, _ = run_cli(capsys, "cache-stats")
    assert code == 0
    assert "intern_table" in out and "shared_value_interner" in out

    code, out, _ = run_cli(capsys, "cache-stats", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "nodes" in payload["process"]["intern_table"]
    assert payload["process"]["shared_value_interner"] == {}


def test_cache_dir_pointing_at_a_file_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "not_a_dir"
    target.write_text("occupied")
    code, _, err = run_cli(capsys, "synthesize", "union_view", "--cache-dir", str(target))
    assert code == 2
    assert "cannot use cache dir" in err


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# --------------------------------------------------------- serve/client parity
@pytest.fixture(scope="module")
def live_server():
    from repro.service.server import BackgroundServer, SynthesisService

    with BackgroundServer(SynthesisService()) as handle:
        yield handle


def test_client_list_matches_local_list_byte_for_byte(capsys, live_server):
    code, local_out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    code, remote_out, _ = run_cli(
        capsys, "client", "--url", live_server.url, "list", "--json"
    )
    assert code == 0
    assert remote_out == local_out


def test_client_synthesize_matches_local_json_schema(capsys, live_server):
    code, local_out, _ = run_cli(capsys, "synthesize", "union_of_3_views", "--json")
    assert code == 0
    code, remote_out, _ = run_cli(
        capsys, "client", "--url", live_server.url, "synthesize", "union_of_3_views", "--json"
    )
    assert code == 0
    local, remote = json.loads(local_out), json.loads(remote_out)
    # Same document schema in the same order; timings differ by nature.
    assert list(local) == list(remote)
    for key in ("problem", "digest", "expression", "expression_size", "proof_size"):
        assert local[key] == remote[key], key
    assert [stage["name"] for stage in local["stages"]] == [
        stage["name"] for stage in remote["stages"]
    ]


def test_client_health_and_job_polling(capsys, live_server):
    code, out, _ = run_cli(capsys, "client", "--url", live_server.url, "health")
    assert code == 0
    assert json.loads(out)["status"] == "ok"

    code, out, _ = run_cli(
        capsys, "client", "--url", live_server.url, "synthesize", "identity_view", "--no-wait"
    )
    assert code == 0
    job_id = json.loads(out)["id"]
    code, out, _ = run_cli(capsys, "client", "--url", live_server.url, "job", job_id)
    assert code == 0
    assert json.loads(out)["state"] in ("queued", "running", "done")


def test_client_error_taxonomy_maps_to_exit_codes(capsys, live_server):
    code, _, err = run_cli(
        capsys, "client", "--url", live_server.url, "synthesize", "not_a_problem"
    )
    assert code == 2
    assert "unknown problem" in err

    code, _, err = run_cli(
        capsys, "client", "--url", live_server.url, "synthesize", "selection_view"
    )
    assert code == 1
    assert "InterpolationError" in err and "'xfail'" in err


def test_client_unreachable_server_is_a_clean_error(capsys):
    code, _, err = run_cli(
        capsys, "client", "--url", "http://127.0.0.1:9", "synthesize", "union_view"
    )
    assert code == 1
    assert "cannot reach" in err


# ---------------------------------------------------------- spec_text + fuzz
def test_synthesize_spec_file(capsys, tmp_path, in_process_definition):
    from repro.service.registry import default_registry
    from repro.specs.lang import pretty_problem

    spec_path = tmp_path / "union.spec"
    spec_path.write_text(pretty_problem(default_registry().get("union_view").problem()))
    code, out, _ = run_cli(capsys, "synthesize", "--spec", str(spec_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "union_view"
    assert payload["expression"] == in_process_definition("union_view")


def test_synthesize_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "synthesize")
    assert code == 2 and "exactly one" in err
    spec_path = tmp_path / "x.spec"
    spec_path.write_text("problem p { output O : Set(Ur); spec T }")
    code, _, err = run_cli(capsys, "synthesize", "union_view", "--spec", str(spec_path))
    assert code == 2 and "exactly one" in err


def test_synthesize_spec_parse_error_exits_2(capsys, tmp_path):
    spec_path = tmp_path / "broken.spec"
    spec_path.write_text("problem broken {")
    code, _, err = run_cli(capsys, "synthesize", "--spec", str(spec_path))
    assert code == 2
    assert "line 1" in err


def test_fuzz_smoke_and_artifacts(capsys, tmp_path):
    artifacts = tmp_path / "artifacts"
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "0", "--count", "10", "--artifacts", str(artifacts), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 10 and payload["synthesized"] == 10
    assert payload["failures"] == []
    report = json.loads((artifacts / "report.json").read_text())
    assert report["seed"] == 0 and report["checked"] == 10


def test_fuzz_replay_corpus(capsys):
    import os

    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    code, out, _ = run_cli(capsys, "fuzz", "--replay", corpus)
    assert code == 0
    assert "corpus specs replay clean" in out


def test_fuzz_replay_reports_a_broken_spec(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("problem broken {")
    code, out, _ = run_cli(capsys, "fuzz", "--replay", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_witness_cli_handwritten_list_show_exchange(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, _ = run_cli(capsys, "witness", "handwritten", "--cache-dir", str(cache))
    assert code == 0
    assert out.count("installed") == 2
    assert "replay verified" in out

    code, out, _ = run_cli(capsys, "witness", "list", "--cache-dir", str(cache), "--json")
    assert code == 0
    page = json.loads(out)
    names = sorted(info["name"] for info in page["witnesses"])
    assert len(names) == 2
    assert names[0].startswith("example_1_1") and names[1].startswith("example_4_1")
    digest = page["witnesses"][0]["digest"]

    code, out, _ = run_cli(capsys, "witness", "show", digest, "--cache-dir", str(cache))
    assert code == 0
    assert digest in out and "proof size" in out

    exported = tmp_path / "proof.witness"
    code, out, _ = run_cli(
        capsys, "witness", "export", digest, "--cache-dir", str(cache), "-o", str(exported)
    )
    assert code == 0 and exported.stat().st_size > 0

    other = tmp_path / "other"
    code, out, _ = run_cli(capsys, "witness", "import", str(exported), "--cache-dir", str(other))
    assert code == 0
    code, out, _ = run_cli(capsys, "witness", "list", "--cache-dir", str(other), "--json")
    assert [info["digest"] for info in json.loads(out)["witnesses"]] == [digest]


def test_witness_cli_requires_one_location(capsys, tmp_path):
    code, _, err = run_cli(capsys, "witness", "list")
    assert code == 2 and "exactly one of" in err
    code, _, err = run_cli(
        capsys, "witness", "show", "0" * 64, "--cache-dir", str(tmp_path)
    )
    assert code == 2 and "no witness" in err


def test_read_only_witness_commands_create_no_directories(capsys, tmp_path):
    missing = tmp_path / "probe" / "sub"
    code, out, _ = run_cli(capsys, "witness", "list", "--cache-dir", str(missing))
    assert code == 0 and "no stored witnesses" in out
    code, _, err = run_cli(capsys, "witness", "show", "0" * 64, "--cache-dir", str(missing))
    assert code == 2 and "no witness" in err
    exported = tmp_path / "proof.witness"
    code, _, err = run_cli(capsys, "witness", "export", "0" * 64, "--cache-dir", str(missing), "-o", str(exported))
    assert code == 2 and "no witness" in err
    assert not (tmp_path / "probe").exists()
    assert not exported.exists()


def test_synthesize_replays_an_imported_witness(capsys, tmp_path):
    """A witness exported from one cache and imported into another is
    replayed there: the run skips proof search and answers the same query."""
    code, out, _ = run_cli(capsys, "synthesize", "union_view", "--json")
    assert code == 0
    reference = json.loads(out)
    first, second = tmp_path / "a", tmp_path / "b"
    code, out, _ = run_cli(capsys, "synthesize", "union_view", "--cache-dir", str(first), "--json")
    assert code == 0 and json.loads(out)["source"] == "cold"
    code, out, _ = run_cli(capsys, "witness", "list", "--cache-dir", str(first), "--json")
    (info,) = json.loads(out)["witnesses"]
    exported = tmp_path / "union_view.witness"
    code, _, _ = run_cli(
        capsys, "witness", "export", info["digest"], "--cache-dir", str(first), "-o", str(exported)
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "witness", "import", str(exported), "--cache-dir", str(second))
    assert code == 0
    code, out, _ = run_cli(capsys, "synthesize", "union_view", "--cache-dir", str(second), "--json")
    assert code == 0
    replayed = json.loads(out)
    assert replayed["source"] == "witness"
    assert replayed["expression"] == reference["expression"]


@pytest.mark.parametrize("case", ["premise-is-a-str", "chain-of-5000-weakens", "name-is-a-formula"])
def test_witness_import_rejects_a_malformed_payload(capsys, tmp_path, case):
    from test_service_server import MALFORMED_WITNESSES

    payload = tmp_path / "bad.witness"
    payload.write_bytes(MALFORMED_WITNESSES[case]())
    code, _, err = run_cli(capsys, "witness", "import", str(payload), "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert f"{payload}: witness payload rejected" in err
