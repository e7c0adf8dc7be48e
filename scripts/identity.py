"""Byte identity of the CLI's artifacts between a base revision and this checkout.

    python3 scripts/identity.py --base <rev> [--allow <run name> ...]

The base revision is extracted with ``git archive`` into a temporary
directory, so the repository's worktrees are left alone; the head is this
checkout's working tree.  Both trees run the one canonical list of CLI
commands below, each command in a fresh interpreter with ``PYTHONPATH`` set
to that tree's ``src``.  Every file the runs write is compared byte for byte,
together with each command's exit code, stdout and stderr.  A CSV or JSON
file that differs is reported with its largest numeric gap.

The exit code is 1 when some difference lies in a run that no ``--allow``
names (a glob over run names), 2 when the base cannot be extracted, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = "quad:1,1,2,5"
SQRT2 = "quad:0,1,1,2"
DEC40 = "dec:0.6180339887498948482045868343656381177203"

PATCHES = {
    "patch-golden": [GOLDEN, "1000000"],
    "patch-golden-377": [GOLDEN, "1000377"],
    "patch-half": ["rat:1/2", "1000000"],
    "patch-half-1": ["rat:1/2", "1000001"],
    "patch-13-21": ["rat:13/21", "1000000"],
    "patch-dec40": [DEC40, "1000000000000"],
}


def run_list() -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) in the order they run; later runs read the
    output of earlier ones, so every path is relative to the ``runs`` root."""
    runs = [
        ("cf", ["cf", "--alpha", GOLDEN, "--count", "40"]),
        ("triplets", ["triplets", "--alpha", SQRT2, "--j", "1:40"]),
        ("predict", ["predict", "--alpha", GOLDEN, "--t", "1.1", "--theta", "0.3"]),
        ("compare-forms", ["compare-forms", "--alpha", SQRT2, "--t", "0.9", "--theta", "1.2"]),
        ("spiral", ["spiral", "--alpha", GOLDEN, "--n-range", "1:200"]),
        ("density", ["density", "--alpha", GOLDEN, "--r", "1.5,10,250"]),
        ("empirical-golden", ["empirical", "--alpha", GOLDEN, "--t", "1", "--j", "10:24",
                              "--window", "8"]),
        ("empirical-sqrt2", ["empirical", "--alpha", SQRT2, "--t", "1", "--j", "6:14",
                             "--window", "8"]),
        ("orbit", ["orbit", "--alpha", GOLDEN, "--t", "1", "--j", "25", "--b", "0:20",
                   "--window", "8"]),
    ]
    runs += [(name, ["patch", "--alpha", alpha, "--center-index", n, "--window", "8"])
             for name, (alpha, n) in PATCHES.items()]
    names = list(PATCHES)
    runs += [(f"delta-{a}-{b}".replace("patch-", ""),
              ["delta", "--a", f"{a}/patch.csv", "--b", f"{b}/patch.csv"])
             for i, a in enumerate(names) for b in names[i + 1:]]
    runs += [
        ("delone-golden", ["delone", "--alpha", GOLDEN, "--center-index", "1000000",
                           "--window", "8"]),
        ("delone-golden-12", ["delone", "--alpha", GOLDEN, "--center-index", "1000000",
                              "--window", "12"]),
        ("delone-half", ["delone", "--alpha", "rat:1/2", "--center-index", "1000000",
                         "--window", "8"]),
        ("forest-golden", ["forest", "--alpha", GOLDEN, "--window-radius", "5000",
                           "--eps", "0.2", "--lengths", "10,20,40"]),
        ("forest-13-21", ["forest", "--alpha", "rat:13/21", "--window-radius", "3000",
                          "--eps", "0.2", "--lengths", "10,20,40"]),
        ("forest-golden-2000", ["forest", "--alpha", GOLDEN, "--window-radius", "2000",
                                "--eps", "0.2", "--lengths", "10"]),
        ("forest-ray", ["forest", "--alpha", "rat:1/2", "--window-radius", "2000",
                        "--eps", "0.2", "--lengths", "10,40"]),
        # no witness: the rim window of a radius-60 disk holds no empty 1 x V strip
        ("forest-none", ["forest", "--alpha", GOLDEN, "--window-radius", "60",
                         "--eps", "1", "--lengths", "20,40"]),
        # its V=40 window holds 132,214 points, over the SVG budget
        ("forest-dense", ["forest", "--alpha", "rat:1/2", "--window-radius", "3000",
                          "--eps", "0.2", "--lengths", "10,40"]),
        ("report", ["report", "--run", "empirical-golden"]),
    ]
    return runs


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if proc.returncode:
        sys.stderr.write(f"error: {proc.stderr.decode().strip()}\n")
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_tree(tree: Path, out: Path) -> None:
    """Run the list with ``tree``'s package; artifacts go to out/runs/<name>,
    exit code, stdout and stderr to out/streams/<name>.txt."""
    (out / "runs").mkdir(parents=True)
    (out / "streams").mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, argv in run_list():
        proc = subprocess.run(
            [sys.executable, "-m", "spirallimits.cli", *argv, "--out", name],
            cwd=out / "runs", env=env, capture_output=True, text=True, timeout=600,
        )
        (out / "streams" / f"{name}.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
        print(f"  {name}: exit {proc.returncode}", flush=True)


def _number(value):
    """``value`` as a float when it is a number or a numeric string, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _gap(a, b) -> float:
    """Largest |a - b| over paired numeric leaves; inf when the shapes differ,
    or when a non-numeric leaf differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_gap(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_gap(x, y) for x, y in zip(a, b)), default=0.0)
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return 0.0 if a == b else math.inf
    return abs(x - y) if x != y else 0.0


def numeric_gap(path: str, a: bytes, b: bytes) -> float | None:
    """Largest numeric gap of a CSV or JSON file, None for other files."""
    if path.endswith(".json"):
        return _gap(json.loads(a), json.loads(b))
    if path.endswith(".csv"):
        rows = (list(csv.reader(io.StringIO(t.decode()))) for t in (a, b))
        return _gap(*rows)
    return None


def compare(base: Path, head: Path, allow: list[str]) -> int:
    """Print each file that differs between the two output roots; 1 when one
    of them lies in a run that no pattern of ``allow`` names, else 0."""
    files = sorted({p.relative_to(d).as_posix() for d in (base, head)
                    for p in d.rglob("*") if p.is_file()})
    blocking = 0
    for rel in files:
        a, b = base / rel, head / rel
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            continue
        if not a.is_file() or not b.is_file():
            what = "only in " + ("head" if b.is_file() else "base")
        else:
            gap = numeric_gap(rel, a.read_bytes(), b.read_bytes())
            what = ("differs" if gap is None else "differs beyond numbers" if gap == math.inf
                    else f"differs, largest numeric gap {gap:.3g}")
        run = Path(rel).parts[1].removesuffix(".txt")
        allowed = any(fnmatch.fnmatchcase(run, pattern) for pattern in allow)
        blocking += not allowed
        print(f"{rel}: {what}{' (allowed)' if allowed else ''}")
    print(f"{len(files)} files, {blocking} differences not allowed")
    return 1 if blocking else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--allow", action="append", default=[],
                    help="glob over run names whose differences are expected")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        extract(args.base, tmp / "tree")
        for label, tree in (("base", tmp / "tree"), ("head", ROOT)):
            print(f"{label} tree:", flush=True)
            run_tree(tree, tmp / label)
        return compare(tmp / "base", tmp / "head", args.allow)


if __name__ == "__main__":
    sys.exit(main())
