"""Seeded op lists for the four workloads.

An op is one call of a public package function (or one CLI invocation).
The seed picks every input; the program sees only the generated arguments.
Where an input sets an op's cost (the index n, the disk radius), the ops sit
on a fixed grid over the stated range and the seed moves each one within a
tenth of its grid cell.  Every seed then asks for different windows while
the work of a pass, and the rank of each op by cost, stay the same, so the
run-to-run spread measures the program rather than the draw.

This module imports nothing from the package, so building an op list is
plain data and the runner can describe a workload without importing it.
"""

from __future__ import annotations

import math
import random

GOLDEN = "quad:1,1,2,5"
SQRT2 = "quad:0,1,1,2"
# 40 significant digits of the golden-angle fraction (sqrt(5) - 1) / 2
DEC40 = "dec:0.6180339887498948482045868343656381177203"
# center index n_25 of the golden angle at t = 1, as in acceptance criterion 9
N25_GOLDEN = 1407187656

JITTER = 0.1  # seeded offset from a grid point, as a share of its cell

WORKLOADS = ("limit-pipeline", "deep-windows", "forest-witness", "cli-commands")

# Layers each workload is documented to exercise; a traced run that records
# no call in one of them fails.
EXERCISED_LAYERS = {
    "limit-pipeline": ("number_theory", "spiral", "chabauty_metric", "lattice2d", "limits"),
    "deep-windows": ("number_theory", "spiral"),
    "forest-witness": ("spiral", "chabauty_metric", "lattice2d", "forest"),
    "cli-commands": (
        "cli", "svgplot", "number_theory", "spiral", "chabauty_metric",
        "lattice2d", "limits", "forest",
    ),
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _on_grid(rng, i: int, cells: int) -> float:
    """Point near the middle of cell i of [0, 1) split into ``cells`` cells."""
    return (i + 0.5 + rng.uniform(-JITTER, JITTER)) / cells


def _op(fn, *args, **kwargs):
    return {"fn": fn, "args": list(args), "kwargs": kwargs}


# ---------------------------------------------------------------------------
# limit-pipeline: the paper's headline experiment
# ---------------------------------------------------------------------------

def limit_pipeline(seed: int):
    rng = _rng("limit-pipeline", seed)
    ops = []
    for alpha, js in ((GOLDEN, range(10, 25)), (SQRT2, range(6, 15))):
        for lo in js[::3]:
            t = _log_uniform(rng, 0.8, 1.25)
            ops.append(_op("limits.empirical_vs_predicted", alpha, t, [lo, lo + 2], 8.0))
    # rotation orbit around n_25, one b per call; these 16 equal-cost calls
    # outnumber the 8 comparison calls, so the median op is an orbit call
    for b in rng.sample(range(-40, 41), 16):
        ops.append(_op("limits.rotation_orbit", GOLDEN, N25_GOLDEN, [b, b], 8.0))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# deep-windows: window cost as the index grows
# ---------------------------------------------------------------------------

# (decade exponent, window radius per grid cell).  The cheap decades draw
# every (angle, W) pair; the expensive ones give each angle one of three cells
# of the decade, with a window that shrinks as n grows.  Every 1e12-decade window exceeds the
# enumerator's 2e7-candidate budget at this commit (WindowTooLarge).
_DEEP_DECADES = (
    (6, None),
    (8, None),
    (10, (16, 8, 4)),
    (11, (8, 4, 4)),
    (12, (16, 8, 4)),
)
_DEEP_ANGLES = (GOLDEN, SQRT2, DEC40)


def _in_decade(exponent: int, position: float) -> int:
    return int(10 ** (exponent + position))


def deep_windows(seed: int):
    rng = _rng("deep-windows", seed)
    ops = []
    for exponent, strata in _DEEP_DECADES:
        if strata is None:
            for w in (4, 8, 16):
                angles = list(_DEEP_ANGLES)
                rng.shuffle(angles)
                for i, alpha in enumerate(angles):
                    n = _in_decade(exponent, _on_grid(rng, i, 3))
                    ops.append(_op("spiral.recentered_window", alpha, n, float(w)))
        else:
            angles = list(_DEEP_ANGLES)
            rng.shuffle(angles)
            for i, (alpha, w) in enumerate(zip(angles, strata)):
                n = _in_decade(exponent, _on_grid(rng, i, 3))
                ops.append(_op("spiral.recentered_window", alpha, n, float(w)))
    for i in range(12):
        alpha = _DEEP_ANGLES[i % 3]
        n = _in_decade(6, 4 * _on_grid(rng, i, 12))
        ops.append(_op("spiral.nearest_neighbor", alpha, n))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# forest-witness: dense windows and the rectangle sweep
# ---------------------------------------------------------------------------

_FOREST_ANGLES = (GOLDEN, SQRT2, "rat:1/2", "rat:13/21")


def forest_witness(seed: int):
    rng = _rng("forest-witness", seed)
    ops = []
    for cell in range(4):
        for alpha in _FOREST_ANGLES:
            for length in (10.0, 20.0, 40.0):
                radius = 3000.0 + 5000.0 * _on_grid(rng, cell, 4)
                ops.append(_op("forest.spiral_empty_rectangle_search",
                               alpha, radius, 0.2, length))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-commands: one client running short subcommands in sequence
# ---------------------------------------------------------------------------

def cli_commands(seed: int):
    """Argument lists, run in order from one working directory.

    Every pass after the first must reproduce the first pass's files byte
    for byte.
    """
    rng = _rng("cli-commands", seed)
    quad = rng.choice((GOLDEN, SQRT2))
    t = _log_uniform(rng, 0.8, 1.25)
    theta = rng.uniform(0.0, 2 * math.pi)
    n_a = 10**6 + rng.randrange(0, 50_000)
    n_b = n_a + rng.randrange(1, 1000)
    radii = ",".join(f"{rng.uniform(1, 1000):.3f}" for _ in range(5))
    argvs = [
        ["cf", "--alpha", rng.choice((GOLDEN, SQRT2)), "--count", "200"],
        ["triplets", "--alpha", quad, "--j", "1:300"],
        ["predict", "--alpha", quad, "--t", f"{t:.6f}", "--theta", f"{theta:.6f}"],
        ["compare-forms", "--alpha", quad, "--t", f"{t:.6f}", "--theta", f"{theta:.6f}"],
        ["spiral", "--alpha", quad, "--n-range", "1:500"],
        ["patch", "--alpha", quad, "--center-index", str(n_a), "--window", "8"],
        ["patch", "--alpha", quad, "--center-index", str(n_b), "--window", "8"],
        ["delta", "--a", "patch_a/patch.csv", "--b", "patch_b/patch.csv"],
        ["delone", "--alpha", quad, "--center-index", str(n_a), "--window", "8"],
        ["density", "--alpha", quad, "--r", radii],
        ["report", "--run", "patch_a"],
    ]
    outs = ["cf", "triplets", "predict", "compare", "spiral", "patch_a", "patch_b",
            "delta", "delone", "density", "report"]
    return [{"argv": argv + ["--out", out], "out": out} for argv, out in zip(argvs, outs)]


OP_LISTS = {
    "limit-pipeline": limit_pipeline,
    "deep-windows": deep_windows,
    "forest-witness": forest_witness,
    "cli-commands": cli_commands,
}
