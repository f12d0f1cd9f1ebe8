"""Problem registry: discovery, metadata, scenario families."""

import pytest

from repro.logic.semantics import eval_formula
from repro.proofs.search import ProofSearch
from repro.service.registry import (
    EXPECTED_HARD,
    EXPECTED_OK,
    EXPECTED_XFAIL,
    ProblemRegistry,
    RegistryEntry,
    build_default_registry,
    default_registry,
)
from repro.specs import examples
from repro.synthesis import check_explicit_definition, synthesize


def test_default_registry_contains_the_paper_examples():
    registry = default_registry()
    for name in (
        "identity_view",
        "union_view",
        "intersection_view",
        "selection_view",
        "pair_of_views",
        "unique_element",
        "example_4_1",
        "example_1_1",
    ):
        assert name in registry, name


def test_default_registry_contains_scenario_families():
    registry = default_registry()
    names = set(registry.names())
    assert {"union_of_3_views", "intersection_of_3_views", "pair_tower_2", "copy_chain_2"} <= names
    unions = registry.entries(tag="family:union")
    assert len(unions) >= 3
    assert all(entry.expected == EXPECTED_OK for entry in unions)


def test_expectations_reflect_known_limitations():
    registry = default_registry()
    assert registry.get("selection_view").expected == EXPECTED_XFAIL
    assert registry.get("example_4_1").expected == EXPECTED_HARD
    sweepable = {entry.name for entry in registry.sweepable()}
    assert "selection_view" not in sweepable and "example_4_1" not in sweepable
    assert "union_view" in sweepable


def test_every_entry_produces_a_valid_problem():
    for entry in default_registry():
        problem = entry.problem()
        assert problem.name
        assert problem.output not in problem.inputs


def test_every_instance_family_satisfies_its_spec():
    for entry in default_registry():
        if entry.instances is None:
            continue
        problem = entry.problem()
        instances = entry.instances(6)
        assert instances, entry.name
        for assignment in instances:
            assert eval_formula(problem.phi, assignment), entry.name


def test_scenario_problem_synthesizes_and_verifies():
    registry = default_registry()
    entry = registry.get("union_of_3_views")
    problem = entry.problem()
    result = synthesize(problem, search=ProofSearch(max_depth=entry.max_depth))
    report = check_explicit_definition(problem, result.expression, entry.instances(16))
    assert report.satisfying == 16
    assert report.ok


def test_unknown_name_raises_with_suggestions():
    with pytest.raises(KeyError, match="unknown problem"):
        default_registry().get("no_such_problem")


def test_duplicate_registration_rejected():
    registry = ProblemRegistry()
    entry = RegistryEntry("p", examples.union_view, "desc")
    registry.add(entry)
    with pytest.raises(ValueError, match="duplicate"):
        registry.add(entry)


def test_selection_view_xfail_is_seed_stable():
    """The known-xfail entry must fail fast with InterpolationError on every
    PYTHONHASHSEED (the pre-seed flake: hash-order-dependent candidate
    enumeration made some seeds hang for minutes or surface a different
    error class).  Fixed by deterministic enumeration in proofs/search.py
    plus the bounded max_depth on the registry entry."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "from repro.service.api import ApiError, SynthesizeRequest\n"
        "from repro.service.registry import default_registry\n"
        "from repro.service.workers import execute_synthesize_request\n"
        "entry = default_registry().get('selection_view')\n"
        "assert entry.max_depth <= 6, entry.max_depth\n"
        "try:\n"
        "    execute_synthesize_request(SynthesizeRequest(problem='selection_view'))\n"
        "except ApiError as exc:\n"
        "    print(exc.detail['error_type'])\n"
    )
    for seed in ("11", "12"):  # the seeds that historically hung
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "InterpolationError", (seed, proc.stdout, proc.stderr)


def test_build_default_registry_scales_are_configurable():
    registry = build_default_registry(union_widths=(7,), intersection_widths=(), tower_widths=(), chain_lengths=())
    assert "union_of_7_views" in registry
    assert "union_of_3_views" not in registry
    problem = registry.problem("union_of_7_views")
    assert len(problem.inputs) == 7
