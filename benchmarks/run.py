"""Benchmark entry point: one workload at one seed, end to end or traced.

    python3 benchmarks/run.py --workload deep-windows --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It measures set-up in fresh processes,
runs the workload in a fresh worker process (benchmarks/worker.py), prints
every metric with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  It exits nonzero when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, str(HERE))
from worker import MIN_PASSES, child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one thread per BLAS/OpenMP pool, so numbers measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def spawn_until_ready(cmd):
    """Start ``cmd``; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        sys.exit(f"benchmark: worker did not start ({line.strip()!r})")
    return proc, ready


def worker_cmd(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def setup_samples(args, count):
    """Fresh-process time to the first op: import plus input generation.

    For cli-commands it is a complete no-work invocation (--version).
    """
    samples = []
    for _ in range(count):
        if args.workload == "cli-commands":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "spirallimits.cli", "--version"],
                           cwd=ROOT, env=child_env(), capture_output=True, check=True)
            samples.append(time.perf_counter() - t0)
        else:
            proc, ready = spawn_until_ready(worker_cmd(args, "--setup-only"))
            proc.wait()
            proc.stdout.close()
            samples.append(ready)
    return samples


def run_worker(args, result_path):
    proc, ready = spawn_until_ready(worker_cmd(args, "--result", str(result_path)))
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("benchmark: worker timed out")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        sys.exit(f"benchmark: worker exited with {proc.returncode}")
    return json.loads(result_path.read_text()), ready


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_pass):
    """Highest ladder percentile with at least ten ops beyond it.

    Counted on the ops of the guaranteed minimum number of passes, so the
    percentile is fixed per workload and does not move with machine speed.
    """
    n = ops_per_pass * MIN_PASSES
    for p in TAIL_LADDER:
        if n * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def end_to_end(report, setup):
    """metric -> (value, how it was sampled)."""
    lat_ms = [1e3 * s for s in report["latencies_s"]]
    tail_p = tail_percentile(report["ops_per_pass"])
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes"),
        "run_s": (statistics.median(report["pass_s"]), f"median of {len(report['pass_s'])} passes"),
        "op_p50_ms": (statistics.median(lat_ms), f"{len(lat_ms)} ops"),
        "op_tail_ms": (percentile(lat_ms, tail_p), f"p{tail_p:g} of {len(lat_ms)} ops"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "1 process"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "spirallimits" / "__init__.py").is_file():
        sys.exit("benchmark: src/spirallimits not found; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = []
    if not args.trace:
        extra = SETUP_SAMPLES if args.workload == "cli-commands" else SETUP_SAMPLES - 1
        setup = setup_samples(args, extra)
    report, ready = run_worker(args, OUT / f"{stem}.worker.json")
    if not args.trace and args.workload != "cli-commands":
        setup.append(ready)

    if args.trace:
        listed = spec["per_layer"]
        measured = {k: (v, "traced pass") for k, v in report["layers"].items()}
    else:
        listed = spec["end_to_end"]
        measured = end_to_end(report, setup)
    metrics = {}
    for m in listed:
        if m["name"] not in measured:
            sys.exit(f"benchmark: metric {m['name']} was not measured")
        value, note = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<56} {value:>14.6g} {m['unit']:<6} ({note})")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{'fail_frac':<56} {failed / attempted:>14.6g} {'':<6} ({failed} of {attempted} ops)")
    for err in report["errors"]:
        print(f"failed op: {err}")
    for where, problems in sorted(report["problems"].items()):
        for problem in problems:
            print(f"GATE FAILED (op {where}): {problem}")
    correct = not report["problems"]
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))

    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(report.pop("spans")))
    report["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
