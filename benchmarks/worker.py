"""Runs one workload in a fresh process: set-up, timed passes, gates, trace.

Started by run.py.  Prints READY on standard output once set-up is done (the
package is imported and the inputs are generated), then runs passes over the
op list until the time budget is used, checks the first pass's outputs and
writes everything the runner needs as JSON to the --result path.

With --trace 1 the first pass runs untraced and the second traced, so the
tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from workloads import EXERCISED_LAYERS, OP_LISTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 2


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def import_package():
    if not (SRC / "spirallimits" / "__init__.py").is_file():
        sys.exit("benchmark: no package source at src/spirallimits")
    sys.path.insert(0, str(SRC))
    import spirallimits
    from spirallimits import (  # noqa: F401  (load every layer module)
        chabauty_metric, cli, forest, lattice2d, limits, number_theory, spiral, svgplot,
    )
    if Path(spirallimits.__file__).resolve().parent != SRC / "spirallimits":
        sys.exit("benchmark: imported a spirallimits outside this checkout")
    return spirallimits


def timed_passes(run_pass, seconds):
    """At least MIN_PASSES passes; more while the next one fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= seconds
    ):
        passes.append(run_pass())
    return passes


def fingerprint(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def prepare(package, ops):
    """Parsed angles and ranges; the program sees only these arguments."""
    prepared = []
    for op in ops:
        spec, *rest = op["args"]
        args = [package.parse_angle(spec)]
        args += [range(a[0], a[1] + 1) if isinstance(a, list) else a for a in rest]
        prepared.append(args)
    return prepared


def library_pass(package, ops, prepared):
    errors_cls = package.SpiralLimitsError
    latencies, outcomes = [], []
    start = time.perf_counter()
    for op, args in zip(ops, prepared):
        module, name = op["fn"].split(".")
        fn = getattr(getattr(package, module), name)  # resolved now, so tracing applies
        t0 = time.perf_counter()
        try:
            result, error = fn(*args, **op["kwargs"]), None
        except errors_cls as exc:  # a documented failure: counted, run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outcomes.append((result, error))
    return {"wall_s": time.perf_counter() - start, "latencies": latencies, "outcomes": outcomes}


def library_gates(workload, ops, prepared, outcomes):
    """op index -> problems, for the first pass's outputs."""
    import gates

    if workload == "limit-pipeline":
        return gates.limit_pipeline(ops, [r for r, _ in outcomes])
    problems = {}
    for i, (op, args, (result, error)) in enumerate(zip(ops, prepared, outcomes)):
        if error is not None:
            continue
        if op["fn"] == "spiral.recentered_window":
            found = gates.window(op["args"][0], *args, result)
        elif op["fn"] == "spiral.nearest_neighbor":
            found = gates.nearest(*args, result)
        elif op["fn"] == "forest.spiral_empty_rectangle_search":
            found = gates.forest_witness(*args, result)
        else:
            found = [f"no gate for {op['fn']}"]
        if found:
            problems[i] = found
    return problems


def run_library(workload, seed, seconds, trace):
    package = import_package()
    ops = OP_LISTS[workload](seed)
    prepared = prepare(package, ops)
    print("READY", flush=True)
    first = []  # outcomes of the first pass, for the gates

    def one_pass():
        p = library_pass(package, ops, prepared)
        outcomes = p.pop("outcomes")
        if not first:
            first.extend(outcomes)
        # later passes keep only fingerprints, so memory does not grow with passes
        p["prints"] = [fingerprint(r) for r, _ in outcomes]
        p["errors"] = [err for _, err in outcomes]
        return p

    tracer = None
    if trace:
        import tracing

        passes = [one_pass()]
        tracer = tracing.Tracer(package)
        tracer.install()
        try:
            passes.append(one_pass())
        finally:
            tracer.uninstall()
    else:
        passes = timed_passes(one_pass, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = library_gates(workload, ops, prepared, first)
    for p in passes[1:]:
        for i in range(len(ops)):
            if p["prints"][i] != passes[0]["prints"][i] or p["errors"][i] != passes[0]["errors"][i]:
                problems.setdefault(i, []).append("output differs between passes")
    report = {
        "ops_per_pass": len(ops),
        "pass_s": [p["wall_s"] for p in passes],
        "latencies_s": [
            lat for p in passes for lat, err in zip(p["latencies"], p["errors"]) if err is None
        ],
        "attempted": len(ops) * len(passes),
        "failed": sum(
            (err is not None) or (i in problems) for p in passes for i, err in enumerate(p["errors"])
        ),
        "errors": sorted({err for err in passes[0]["errors"] if err}),
        "problems": {str(i): v for i, v in problems.items()},
        "peak_rss_kb": peak_kb,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, passes[0]["wall_s"], passes[1]["wall_s"])
        report["spans"] = tracer.dump()
        check_layers(workload, tracer, report)
    return report


# ---------------------------------------------------------------------------
# cli-commands
# ---------------------------------------------------------------------------

def tree_digest(root: Path):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def cli_gates(op, workdir, returncode):
    """Exit code 0 and every output the run's manifest lists exists."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    manifest = workdir / op["out"] / "manifest.json"
    if not manifest.is_file():
        return ["no manifest.json"]
    return [
        f"manifest output {name} missing"
        for name in json.loads(manifest.read_text())["outputs"]
        if not (workdir / op["out"] / name).is_file()
    ]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_cli(seed, seconds, trace):
    ops = OP_LISTS["cli-commands"](seed)
    if trace:
        return run_cli_traced(ops, seed)
    print("READY", flush=True)
    workdir = fresh_dir(OUT / f"cli-{seed}")
    env = child_env()

    def one_pass():
        latencies, problems = [], []
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "spirallimits.cli", *op["argv"]],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
            )
            latencies.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            problems.append(cli_gates(op, workdir, proc.returncode))
        wall_s = time.perf_counter() - start
        digests = [tree_digest(workdir / op["out"]) for op in ops]
        return {"wall_s": wall_s, "latencies": latencies, "problems": problems,
                "digests": digests}

    passes = timed_passes(one_pass, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for p in passes[1:]:
        for i, digest in enumerate(p["digests"]):
            if digest != passes[0]["digests"][i]:
                p["problems"][i].append("repeated invocation gave different bytes")
    problems = {}
    for p in passes:
        for i, found in enumerate(p["problems"]):
            problems.setdefault(str(i), []).extend(found)
    problems = {i: found for i, found in problems.items() if found}
    return {
        "ops_per_pass": len(ops),
        "pass_s": [p["wall_s"] for p in passes],
        "latencies_s": [
            lat for p in passes for lat, found in zip(p["latencies"], p["problems"]) if not found
        ],
        "attempted": len(ops) * len(passes),
        "failed": sum(bool(found) for p in passes for found in p["problems"]),
        "errors": [],
        "problems": problems,
        "peak_rss_kb": peak_kb,
    }


def run_cli_traced(ops, seed):
    """In-process replay of the same commands: untraced, then traced."""
    package = import_package()
    import tracing

    print("READY", flush=True)
    workdir = fresh_dir(OUT / f"cli-replay-{seed}")

    def one_pass():
        codes = []
        start = time.perf_counter()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for op in ops:
                with redirect_stdout(io.StringIO()):
                    codes.append(package.cli.main(op["argv"]))
        finally:
            os.chdir(cwd)
        return {"wall_s": time.perf_counter() - start, "codes": codes,
                "digest": tree_digest(workdir)}

    untraced = one_pass()
    tracer = tracing.Tracer(package)
    tracer.install()
    try:
        traced = one_pass()
    finally:
        tracer.uninstall()
    problems = {}
    for i, op in enumerate(ops):
        found = cli_gates(op, workdir, untraced["codes"][i] or traced["codes"][i])
        if found:
            problems[str(i)] = found
    if untraced["digest"] != traced["digest"]:
        problems.setdefault("replay", []).append("traced replay gave different bytes")
    layers = layer_metrics(tracer, untraced["wall_s"], traced["wall_s"])
    layers["cli.bytes_written"] = sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file())
    report = {
        "pass_s": [untraced["wall_s"], traced["wall_s"]],
        "attempted": 2 * len(ops),
        "failed": sum((rc != 0) or (str(i) in problems)
                      for p in (untraced, traced) for i, rc in enumerate(p["codes"])),
        "errors": [],
        "problems": problems,
        "layers": layers,
        "spans": tracer.dump(),
    }
    check_layers("cli-commands", tracer, report)
    return report


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def import_times():
    """(package import, scipy.spatial import) in seconds, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spirallimits.cli"],
        env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    total = spatial = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_us, name = int(parts[1]), parts[2]
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and name.strip().split(".")[0] == "spirallimits":
            total += cumulative_us
        if name.strip() == "scipy.spatial":
            spatial = cumulative_us
    return total / 1e6, spatial / 1e6


def layer_metrics(tracer, untraced_s, traced_s):
    stats = tracer.function_stats()
    counters = tracer.counters
    m = {}
    for name in tracer.originals:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.self_s"] = s["self_s"]
        m[f"{name}.errors"] = s["errors"]
    for name in ("spiral.recentered_window", "lattice2d.fit_lattice"):
        m[f"{name}.fails"] = m[f"{name}.errors"]
    for name in ("spiral.recentered_window", "chabauty_metric.Patch", "lattice2d.lattice_ball"):
        m[f"{name}.points"] = int(counters[f"{name}.points"])
    m["chabauty_metric.delta.uncertified"] = int(counters["chabauty_metric.delta.uncertified"])
    ctl = m["number_theory.class_triplet_limit.calls"]
    m["number_theory.class_triplet_limit.distinct_frac"] = (
        tracer.distinct_classes() / ctl if ctl else 0.0
    )
    search = "forest.spiral_empty_rectangle_search"
    found = int(counters[f"{search}.found"])
    m[f"{search}.found"] = found
    m[f"{search}.windows_per_witness"] = (
        tracer.descendants_named(search, "spiral.recentered_window") / max(found, 1)
    )
    ers = m["forest.empty_rectangle_search.calls"]
    m["forest.empty_rectangle_search.found_frac"] = (
        counters["forest.empty_rectangle_search.found"] / ers if ers else 0.0
    )
    m["cli.import_s"], m["cli.import.scipy_spatial_s"] = import_times()
    m["cli.bytes_written"] = 0
    m["trace.overhead"] = traced_s / untraced_s
    m["trace.uncovered_s"] = traced_s - tracer.root_seconds()
    return m


def check_layers(workload, tracer, report):
    called = tracer.layers_called()
    for layer in EXERCISED_LAYERS[workload]:
        if layer not in called:
            report["problems"].setdefault("trace", []).append(
                f"layer {layer} recorded no calls"
            )


# ---------------------------------------------------------------------------

def provenance(workload, seed):
    import mpmath
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spirallimits").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "thread_caps": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OP_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        import_package()
        prepare(sys.modules["spirallimits"], OP_LISTS[args.workload](args.seed))
        print("READY", flush=True)
        return
    if args.workload == "cli-commands":
        report = run_cli(args.seed, args.seconds, args.trace)
    else:
        report = run_library(args.workload, args.seed, args.seconds, args.trace)
    report["provenance"] = provenance(args.workload, args.seed)
    args.result.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
