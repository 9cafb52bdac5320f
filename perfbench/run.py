"""Benchmark of the hypercones verifier, end to end and layer by layer.

    python3 perfbench/run.py --workload {suite,exact-tier,float-tier} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; the library is imported from `src/`.
The workload builds its inputs from the seed, runs whole passes over them
until `--seconds` have elapsed (always at least one), checks every answer
against the one known from how the input was built, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
runs pass 0 once untraced and once with every public library function in
BENCHMARK.json's per-layer list wrapped (see tracer.py), reports per-layer
counters and self times, and the tracing overhead as traced minus
untraced wall time of that pass.  The spans are written to
`.perfbench_out/` under the repository root.

The line before the result holds the diagnostics: environment, a
pure-Python calibration loop timed before and after the run (slow-machine
episodes show up there), and failures tallied by kind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One caller and one BLAS thread keep the timing of the small batched
# eigenproblems steady; the setting is recorded in the diagnostics.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
CALIBRATION_REPS = 3
WORKLOAD_NAMES = ("suite", "exact-tier", "float-tier")


def prepare() -> bool:
    """Pin the BLAS threads and put `src/` first on the import path.

    Must run before numpy is imported.  False when the library sources
    are missing, so that no result is ever reported without them.
    """
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "hypercones" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def calibration_s() -> float:
    """Median time of a fixed pure-Python integer loop."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def setup(workload: str, seed: int, scale: float):
    """Import the library and build the workload: (workload object, seconds)."""
    start = time.perf_counter()
    import workloads

    built = workloads.WORKLOADS[workload](seed, scale)
    return built, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def percentile_ms(values, q: int) -> float:
    """q-th percentile (1..99) in milliseconds, as statistics.quantiles cuts it."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, setup_samples: int = SETUP_SAMPLES,
            mutate=None) -> tuple[dict, dict]:
    """Run one benchmark measurement: (result object, diagnostics).

    `mutate`, when given, is applied to every pass's inputs before they
    run; the self-test uses it to plant a wrong expected answer.
    """
    calib_before = calibration_s()
    built, first_setup = setup(workload, seed, scale)
    setup_times = [first_setup] + [
        setup_probe(workload, seed) for _ in range(setup_samples - 1)
    ]
    import tracer as tracing
    import workloads

    def inputs(index):
        data = built.inputs(index)
        if mutate is not None:
            mutate(data)
        return data

    passes = []
    outcomes = []
    if trace:
        data = inputs(0)
        start = time.perf_counter()
        untraced = built.run(data)
        untraced_s = time.perf_counter() - start
        data = inputs(0)
        spans = tracing.Tracer()
        spans.install(checks=workload == "suite")
        with spans:
            start = time.perf_counter()
            traced = built.run(data, tracer=spans)
            traced_s = time.perf_counter() - start
        outcomes = untraced.outcomes + traced.outcomes
        metrics = spans.layer_metrics(workloads.suite.check_names())
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        checked = traced.imprecise_checked
        metrics["spectrum.eigenvalues.imprecise_ratio"] = (
            sum(o.imprecise for o in traced.outcomes) / checked if checked else 0.0,
            "ratio",
        )
        spans.write(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl.gz")
    else:
        deadline = time.perf_counter() + seconds
        index = 0
        while not passes or time.perf_counter() < deadline:
            data = inputs(index)
            start = time.perf_counter()
            done = built.run(data)
            passes.append(time.perf_counter() - start)
            outcomes.extend(done.outcomes)
            index += 1
        latencies = [o.seconds for o in outcomes]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(passes), "s"),
            # passes are fixed-size; the median pass resists slow episodes
            "ops_per_s": (len(outcomes) / len(passes) / statistics.median(passes), "1/s"),
            "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
            "op_p90_ms": (percentile_ms(latencies, 90), "ms"),
            "decisive_frac": (sum(o.decisive for o in outcomes) / len(outcomes), "ratio"),
        }
    failures = {}
    for o in outcomes:
        if o.failure is not None:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    failed = sum(failures.values())
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes) if not trace else 1,
        "pass_s": passes,
        "setup_samples_s": setup_times,
        "calibration_s": {"before": calib_before, "after": calibration_s()},
        "failures_by_kind": failures,
        "environment": environment(),
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not prepare():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, 1.0)
        print(repr(seconds))
        return 0
    result, diagnostics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
