"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:
- the answers are correct and every metric named in BENCHMARK.json is
  reported, with its unit, and nothing else;
- per-layer counts and ratios repeat exactly across two traced runs at
  one seed;
- a deliberately wrong expected answer raises the failure count, which
  shows that the oracles bite.

Exits 0 when everything holds and 1 otherwise, listing the problems.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 1
TINY = 1 / 64


def _flip_suite(inputs):
    first = next(iter(inputs["expected"]))
    inputs["expected"][first] = "fail"


def _flip_map(ops):
    import workloads

    op = next(op for op in ops if isinstance(op, workloads.MapOp))
    op.expected = (workloads.Verdict.FAILS if op.expected is workloads.Verdict.HOLDS
                   else workloads.Verdict.HOLDS)


def _shift_spectrum(ops):
    import workloads

    op = next(op for op in ops if isinstance(op, workloads.PointOp))
    op.eigenvalues = (op.eigenvalues[0] + 0.5,) + op.eigenvalues[1:]


def _flip_sides(clouds):
    for cloud in clouds:
        cloud.expected = -cloud.expected


PLANTS = {
    "suite": (_flip_suite,),
    "exact-tier": (_flip_map, _shift_spectrum),
    "float-tier": (_flip_sides,),
}


def _check_metrics(label, result, wanted, problems):
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed operations")
    if result["attempted"] < 1:
        problems.append(f"{label}: nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")


def main() -> int:
    if not run.prepare():
        print("error: library sources not found", file=sys.stderr)
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the runner's")

    for workload in run.WORKLOAD_NAMES:
        def measure(trace, mutate=None):
            result, _ = run.measure(workload, SEED, 0, trace, scale=TINY,
                                    setup_samples=1, mutate=mutate)
            return result

        _check_metrics(f"{workload} untraced", measure(False), end_to_end, problems)
        traced = [measure(True) for _ in range(2)]
        for result in traced:
            _check_metrics(f"{workload} traced", result, per_layer, problems)
        counts = [
            {n: m["value"] for n, m in r["metrics"].items() if m["unit"] in ("count", "ratio")}
            for r in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            problems.append(f"{workload}: per-layer counts differ between runs: {diff}")
        for plant in PLANTS[workload]:
            if measure(False, plant)["failed"] < 1:
                problems.append(f"{workload}: {plant.__name__} went unnoticed")
        print(f"{workload}: checked", flush=True)

    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
