"""Emit ``BENCH_nrc_batch.json``: batched vs per-assignment formula filtering.

Measures the compiled formula filter (:func:`repro.logic.semantics.eval_formula_batch`
and ``check_explicit_definition``, which filters with it) against the
per-assignment ``eval_formula`` paths **in the same process on the same
inputs**, so the recorded ``speedup`` ratios are machine-independent and
gate-able on CI (see ``benchmarks/compare_bench.py``).  NRC expressions are
evaluated per environment on both sides.

The headline row is ``check_explicit_definition`` over a 96-assignment family
of the ``union_view`` problem — the synthesis pipeline's validation hot path.
Plain NRC evaluation is measured end to end by the ``query_eval`` workload of
``perfbench/run.py`` (its ``op1_ms``/``op2_ms`` rows).

Usage::

    PYTHONPATH=src python benchmarks/bench_nrc_batch.py [output.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_core_timing import best_of  # noqa: E402

FAMILY_SIZE = 96


def build_union_view_family(count: int):
    """A ``union_view`` assignment family with realistic value sharing.

    Enumerated satisfying-assignment families (the verification workload)
    draw from a small atom universe, so most sets recur across rows — the
    regime the interning layer is designed for.
    """
    from repro.nr.values import ur, vset
    from repro.specs import examples

    problem = examples.union_view()
    v1, v2 = problem.inputs
    assignments = []
    for index in range(count):
        a = vset([ur(i % 7) for i in range(index % 5)])
        b = vset([ur((i + index) % 6) for i in range(index % 4)])
        assignments.append({v1: a, v2: b, problem.output: vset(a.elements | b.elements)})
    return problem, assignments


def measure() -> dict:
    from repro.logic.semantics import eval_formula, eval_formula_batch
    from repro.proofs.search import ProofSearch
    from repro.synthesis import check_explicit_definition, synthesize

    problem, assignments = build_union_view_family(FAMILY_SIZE)
    result = synthesize(problem, search=ProofSearch(max_depth=12))
    expression = result.expression

    per_env: dict = {}
    batch: dict = {}

    key = f"check_explicit_definition_union_view_{FAMILY_SIZE}"
    report = check_explicit_definition(problem, expression, assignments)
    oracle = check_explicit_definition(problem, expression, assignments, batched=False)
    assert report.ok and oracle.ok, "benchmark family must verify cleanly"
    per_env[key] = best_of(
        lambda: check_explicit_definition(problem, expression, assignments, batched=False),
        repeats=5,
        inner=2,
    )
    batch[key] = best_of(
        lambda: check_explicit_definition(problem, expression, assignments), repeats=5, inner=2
    )

    key = f"eval_formula_union_view_phi_{FAMILY_SIZE}"
    per_env[key] = best_of(
        lambda: [eval_formula(problem.phi, a) for a in assignments], repeats=5, inner=2
    )
    batch[key] = best_of(lambda: eval_formula_batch(problem.phi, assignments), repeats=5, inner=2)

    speedup = {name: round(per_env[name] / batch[name], 2) for name in per_env}
    return {
        "harness": "benchmarks/_bench_core_timing.py (best-of wall clock, seconds)",
        "family_sizes": {"verification": FAMILY_SIZE},
        "per_env": per_env,
        "batch": batch,
        "speedup": speedup,
    }


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_nrc_batch.json")
    report = measure()
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["speedup"], indent=2, sort_keys=True))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
