"""Self-tests of the benchmark; they take seconds.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import perf_common
import perf_eval
import perf_http
import perf_layers
import perf_synth

perf_common.use_source_tree()


def _contract() -> dict:
    with open(perf_common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_per_layer_metrics_match_the_contract():
    declared = [metric["name"] for metric in _contract()["per_layer"]]
    assert declared == perf_layers.per_layer_names()
    book = perf_layers.LayerBook()
    assert sorted(book.metrics(1, 1.0, 0.0)) == sorted(declared)


def test_self_time_books_each_span_once():
    spans = [
        {"span_id": "a", "name": perf_layers.ROOT_SPAN, "seconds": 1.0},
        {"span_id": "b", "parent_id": "a", "name": "proofs.search", "seconds": 0.6},
        {
            "span_id": "c",
            "parent_id": "b",
            "name": "proof.round",
            "seconds": 0.5,
            "attributes": {"attempts": 7},
        },
        {"span_id": "d", "parent_id": "c", "name": "not.a.layer", "seconds": 0.1},
    ]
    book = perf_layers.LayerBook()
    assert book.add_spans(spans) == 1.0
    assert abs(book.self_s["proofs.search"] - 0.5) < 1e-9
    assert abs(book.self_s[perf_layers.UNATTRIBUTED] - 0.5) < 1e-9
    assert abs(book.total_self_s() - 1.0) < 1e-9
    assert book.calls["proofs.search"] == 1  # the round is not a call
    assert book.counts["proofs.search.attempts"] == 7


def test_traced_synthesis_adds_up_to_its_wall_time():
    state = perf_synth.setup(0, 0)
    outcome = perf_common.run_forked(perf_synth._synthesize, state["registry"], "pair_tower_2", True)
    assert outcome["ok"], outcome
    book = perf_layers.LayerBook.from_dict(outcome["layers"])
    total = book.total_self_s()
    assert abs(total - outcome["latency"]) <= 0.05 * outcome["latency"]
    assert book.self_s[perf_layers.UNATTRIBUTED] < 0.1 * outcome["latency"]
    # Appendix G product: one search for the goal, one per component.
    assert book.calls["proofs.search"] == 3
    assert book.counts["proofs.search.attempts"] > 0
    assert book.calls["synthesis.verify"] == 1


def test_queries_agree_with_the_set_oracle():
    from repro.nr.values import SetValue, ur
    from repro.nrc.eval import eval_nrc

    queries = perf_eval._synthesize_queries()
    for name, (expression, nvars) in queries.items():
        for row in perf_eval._family("test", 0, name, nvars):
            env = {nvar: SetValue(frozenset(ur(a) for a in row[nvar.name])) for nvar in nvars}
            assert eval_nrc(expression, env) == perf_eval._expected(name, row), name


def test_write_ops_are_distinct_and_edits_name_their_parent(monkeypatch):
    monkeypatch.setattr(perf_http, "SPECS", 12)
    streams = perf_http._write_ops(0, set())
    ops = [op for stream in streams for op in stream]
    texts = [op.spec_text for op in ops]
    assert len(texts) == len(set(texts))
    assert sum(op.kind == "cold" for op in ops) == 12
    for stream in streams:
        for previous, op in zip(stream, stream[1:]):
            if op.kind == "edit":
                assert previous.kind == "cold" and op.ancestor


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(perf_common.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(perf_common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "query_eval"]
    command += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_reference_server_answers_and_stops(tmp_path):
    reference = perf_http.ReferenceServer(tmp_path / "reference.log")
    try:
        client = perf_http.Client(reference.port, traced=False)
        client.probe(reference.port)
    finally:
        reference.stop()
    assert reference.process.returncode is not None
    assert len(client.samples.latency["probe"]) == 1 and not client.samples.errors


def test_warm_reads_as_slow_as_the_reference_scale_to_its_figures():
    warm = [0.001 * (1 + i % 10) for i in range(200)]
    scaled = perf_http.scaled_warm(warm, warm)
    assert scaled == pytest.approx(perf_http.PROBE_REFERENCE_MS)
    doubled = perf_http.scaled_warm([2 * t for t in warm], warm)
    assert doubled == pytest.approx({k: 2 * v for k, v in perf_http.PROBE_REFERENCE_MS.items()})
