"""The synthesizer's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload {synth_cold,query_eval,http_serve}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: ``repro`` is imported from its ``src``
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate traced run books the workload's wall time to
per-layer self time and prints the per-layer metrics.  What each metric
means on each workload is in ``perfbench/README.md``.

The work runs in parts, each a fresh interpreter started with
``--part``: hash seeds and heap layouts differ between processes, and
pooling the samples of several processes is what keeps one unlucky
process from moving a run's medians.  A part prints ``ready`` when its
set-up is done, then one JSON line of raw samples.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import List, Tuple

import perf_common
from perf_common import ROOT, RUN_PY, median, source_env

WORKLOADS = {"synth_cold": "perf_synth", "query_eval": "perf_eval", "http_serve": "perf_http"}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_module(name: str):
    return __import__(WORKLOADS[name])


def run_part(args, index: int, seconds: float) -> Tuple[float, float, dict]:
    """Run one part; returns (set-up seconds, wall seconds, raw samples)."""
    command = [sys.executable, str(RUN_PY), "--part", str(index), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=source_env())
    with process.stdout:
        ready = process.stdout.readline()
        setup = time.perf_counter() - start
        rest = process.stdout.read()
    code = process.wait()
    lines = rest.decode("utf-8").splitlines()
    if code != 0 or ready.strip() != b"ready" or not lines:
        raise RuntimeError(f"part {index} of {args.workload} failed with exit code {code}")
    return setup, time.perf_counter() - start, json.loads(lines[-1])


def run_parts(args, module) -> Tuple[List[float], List[dict]]:
    """Fixed parts share the time equally; otherwise parts (one pass each)
    repeat while the next one is expected to end near the deadline."""
    setups: List[float] = []
    raws: List[dict] = []
    if module.PARTS:
        for index in range(module.PARTS):
            setup, _, raw = run_part(args, index, args.seconds / module.PARTS)
            setups.append(setup)
            raws.append(raw)
        return setups, raws
    start = time.perf_counter()
    walls: List[float] = []
    while not walls or time.perf_counter() - start + median(walls) / 2 < args.seconds:
        setup, wall, raw = run_part(args, len(walls), 0.0)
        setups.append(setup)
        walls.append(wall)
        raws.append(raw)
    return setups, raws


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    module = workload_module(args.workload)

    if args.part is not None:
        perf_common.use_source_tree()
        state = module.setup(args.seed, args.part)
        print("ready", flush=True)
        print(json.dumps(module.run(state, args.seconds, bool(args.trace))), flush=True)
        return 0

    contract = load_contract()
    setups, raws = run_parts(args, module)
    outcome = module.summarize(raws, bool(args.trace))
    metrics = dict(outcome.metrics)
    if args.trace:
        declared = contract["per_layer"]
    else:
        declared = contract["end_to_end"]
        metrics["ok_frac"] = 1.0 - outcome.failed / outcome.attempted
        metrics.setdefault("setup_s", median(setups))
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for note in outcome.notes:
        print(note)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
