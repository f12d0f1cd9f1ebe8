"""Emit ``BENCH_core_ir.json``: core-IR throughput, before vs. after.

Measures the current implementation with :mod:`benchmarks._bench_core_timing`
and compares it against two baselines:

* the **frozen seed reference implementations** (``tests/reference_core.py``),
  re-measured in-process for the eval/simplify rows — an apples-to-apples
  same-machine comparison run on every invocation; and
* the **recorded seed wall-clock numbers** (``SEED_BASELINE``) for the
  pipeline rows (proof search / synthesis), whose seed code paths no longer
  exist in-tree.  They were measured with this same harness at the seed
  commit (684c224) on the development machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_ir.py [output.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The frozen reference implementation lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from _bench_core_timing import best_of, measure_all  # noqa: E402

#: Wall-clock seconds measured by ``_bench_core_timing.measure_all()`` at the
#: seed commit 684c224 (same machine, same harness).
SEED_BASELINE = {
    "eval_comprehension_400": 0.03485723999995116,
    "eval_flatten_200x10": 0.024182698000004166,
    "proof_search_pair_of_views": 0.026440665999984958,
    "simplify_corpus": 0.003036979000057727,
    "synthesis_end_to_end_identity_view": 0.016166346999966663,
    "synthesis_end_to_end_union_view": 0.04457381199995325,
}


def measure_reference() -> dict:
    """Re-measure the frozen seed eval/simplify on the current corpus."""
    from reference_core import reference_eval_nrc
    from repro.nr.types import UR, prod, set_of
    from repro.nr.values import pair, ur, vset
    from repro.nrc.expr import NBigUnion, NPair, NProj, NSingleton, NVar
    from repro.nrc.macros import comprehension
    from repro.logic.formulas import NeqUr
    from repro.logic.terms import Var

    results = {}
    elem = prod(UR, set_of(UR))
    big = NVar("B", set_of(elem))
    b = NVar("b", elem)
    c = NVar("c", UR)
    flatten = NBigUnion(NBigUnion(NSingleton(NPair(NProj(1, b), c)), c, NProj(2, b)), b, big)
    instance = vset(
        [pair(ur(f"k{i}"), vset([ur(i * 1000 + j) for j in range(10)])) for i in range(200)]
    )
    env = {big: instance}
    results["eval_flatten_200x10"] = best_of(
        lambda: reference_eval_nrc(flatten, env), repeats=7, inner=3
    )

    source = NVar("S", set_of(UR))
    z = NVar("z", UR)
    comp = comprehension(source, z, NeqUr(Var("z", UR), Var("t", UR)))
    comp_env = {source: vset([ur(i) for i in range(400)]), NVar("t", UR): ur(0)}
    results["eval_comprehension_400"] = best_of(
        lambda: reference_eval_nrc(comp, comp_env), repeats=7, inner=3
    )
    return results


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_core_ir.json")
    after = measure_all()
    reference = measure_reference()
    report = {
        "seed_commit": "684c224",
        "harness": "benchmarks/_bench_core_timing.py (best-of wall clock, seconds)",
        "before_recorded_at_seed": SEED_BASELINE,
        "before_reference_inprocess": reference,
        "after": after,
        "speedup_vs_seed": {
            key: round(SEED_BASELINE[key] / after[key], 2) for key in SEED_BASELINE
        },
        "speedup_vs_reference_inprocess": {
            key: round(reference[key] / after[key], 2) for key in reference
        },
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["speedup_vs_seed"], indent=2, sort_keys=True))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
