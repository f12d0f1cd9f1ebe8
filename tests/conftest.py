"""Shared pytest configuration: hypothesis profiles and shared fixtures.

Property tests run with the lightweight ``dev`` profile locally and the
deeper ``ci`` profile on CI, selected via the ``HYPOTHESIS_PROFILE``
environment variable (the workflow exports ``HYPOTHESIS_PROFILE=ci``).
Tests that pin an explicit ``@settings(max_examples=...)`` keep their pin;
the profile supplies the defaults for everything else.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def in_process_definition():
    """Render a registry problem's definition from the in-process pipeline.

    The returned function also asserts that the definition verifies on the
    entry's instance family, so callers comparing a CLI or HTTP answer
    against it check behaviour rather than the query's syntactic shape.
    """
    from repro.service.registry import default_registry
    from repro.service.workers import pipeline_for_entry

    def definition(name):
        entry = default_registry().get(name)
        report = pipeline_for_entry(entry).run(entry.problem(), entry.instances(8))
        assert report.verification is not None and report.verification.ok
        return str(report.result.expression)

    return definition
