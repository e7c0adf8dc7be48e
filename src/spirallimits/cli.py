"""Command-line experiment runner.

Every run writes a manifest (alpha spec, parameters, precision policy, output
list) plus CSV/JSON/SVG artifacts into a run directory.  All outputs are
deterministic: identical manifests give byte-identical files.  Measured
numbers serialize as decimal strings with 17 significant digits.

Exit codes: 0 success, 2 precondition violation, 3 precision exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chabauty_metric import Patch, delta
from .errors import PrecisionExhausted, SpiralLimitsError
from .forest import (
    delone_constants,
    density_ratio,
    spiral_empty_rectangle_search,
)
from .lattice2d import FIT_TOL, same_lattice
from .limits import (
    PredictionInput,
    center_indices,
    empirical_limit_patch,
    empirical_vs_predicted,
    predicted_basis,
    rotation_orbit,
    theorem_form_basis,
)
from .number_theory import (
    badly_approx_profile,
    class_triplet_limit,
    convergents,
    expand_cf,
    parse_angle,
    triplet,
)
from .spiral import PREC_PAD, recentered_window, spiral_point
from .svgplot import render_svg

PRECISION_POLICY = f"bits(n) + {PREC_PAD}"


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    """Floats become 17-digit decimal strings; dataclasses become dicts of
    their fields, leaving out in-memory objects (fields with repr=False)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return _fmt17(v) if math.isfinite(v) else repr(v)
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt17(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _parse_range(text: str):
    lo, hi = text.split(":", 1)
    return range(int(lo), int(hi) + 1)


def _parse_floats(text: str):
    return [float(x) for x in text.split(",") if x]


def _patch_csv(path: Path, win, offsets, errs) -> None:
    rows = [
        (int(n), offsets[i, 0], offsets[i, 1], errs[i])
        for i, n in enumerate(win.indices)
    ]
    _write_csv(path, ["n", "x", "y", "err"], rows)


def _read_patch(path: Path, window: float | None) -> Patch:
    meta_path = path.with_suffix(".json")
    w = window
    if w is None and meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict) or "window_radius" not in meta:
            raise SpiralLimitsError(f"{meta_path} has no window_radius; pass --a/b-window")
        radius = meta["window_radius"]
        # a JSON number, or the 17-digit decimal string a patch sidecar holds
        if isinstance(radius, (int, float, str)) and not isinstance(radius, bool):
            try:
                w = float(radius)
            except (ValueError, OverflowError):
                pass
        if w is None or not math.isfinite(w):
            raise SpiralLimitsError(f"{meta_path}: window_radius {radius!r} is not a finite number")
    if w is None:
        raise SpiralLimitsError(f"no window radius for {path}; pass --a/b-window")
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",") if rows else []
    for column in ("x", "y"):
        if column not in header:
            raise SpiralLimitsError(f"{path} has no {column} column")
    xi, yi = header.index("x"), header.index("y")
    ei = header.index("err") if "err" in header else None
    pts, errs = [], []
    for line_no, line in enumerate(rows[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SpiralLimitsError(
                f"{path} line {line_no} has {len(cells)} columns, the header {len(header)}"
            )
        pts.append((float(cells[xi]), float(cells[yi])))
        if ei is not None:
            errs.append(float(cells[ei]))
    return Patch(
        np.asarray(pts, dtype=np.float64).reshape(-1, 2),
        w,
        provenance=str(path),
        point_errors=None if ei is None else np.asarray(errs, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a dict recorded in the manifest)
# ---------------------------------------------------------------------------

def _cmd_cf(args, out: Path):
    alpha = parse_angle(args.alpha)
    quots = expand_cf(alpha, args.count)
    convs = convergents(alpha, args.count)
    _write_csv(
        out / "convergents.csv",
        ["j", "a", "p", "q"],
        [(c.j, quots[c.j - 1], c.p, c.q) for c in convs],
    )
    return {"outputs": ["convergents.csv"], "terminated": len(convs) < args.count}


def _cmd_triplets(args, out: Path):
    alpha = parse_angle(args.alpha)
    rows = []
    for j in _parse_range(args.j):
        t = triplet(alpha, j)
        rows.append((j, float(t.beta), float(t.c), float(t.ctilde), t.err))
    _write_csv(out / "triplets.csv", ["j", "beta", "c", "ctilde", "err"], rows)
    profile = badly_approx_profile(alpha, max(_parse_range(args.j)))
    _write_json(out / "profile.json", profile)
    return {"outputs": ["triplets.csv", "profile.json"]}


def _cmd_spiral(args, out: Path):
    alpha = parse_angle(args.alpha)
    rng = _parse_range(args.n_range)
    rows = []
    for n in rng:
        p = spiral_point(alpha, n)
        rows.append((n, p.x, p.y, p.error_bound))
    _write_csv(out / "points.csv", ["n", "x", "y", "err"], rows)
    return {"outputs": ["points.csv"], "count": len(rows)}


def _cmd_patch(args, out: Path):
    alpha = parse_angle(args.alpha)
    win, offsets, errs = recentered_window(
        alpha, args.center_index, args.window, n_min=args.n_min
    )
    # rendered first: an SVG over budget raises before any artifact is written
    svg = render_svg(args.window, point_layers=[("patch", offsets)])
    _patch_csv(out / "patch.csv", win, offsets, errs)
    _write_json(
        out / "patch.json",
        {
            "window_radius": args.window,
            "center_index": args.center_index,
            "center": {"x": win.center[0], "y": win.center[1]},
            "count": len(win),
        },
    )
    (out / "patch.svg").write_text(svg)
    return {"outputs": ["patch.csv", "patch.json", "patch.svg"], "count": len(win)}


def _cmd_delta(args, out: Path):
    a = _read_patch(Path(args.a), args.a_window)
    b = _read_patch(Path(args.b), args.b_window)
    res = delta(a, b)
    _write_json(
        out / "delta.json",
        {
            "value": res.value,
            "bracket": [res.lower, res.upper],
            "certified_radius": res.certified_radius,
            "certified": res.certified,
            "distance": min(1.0, res.value),
        },
    )
    return {"outputs": ["delta.json"], "value": _fmt17(res.value)}


def _basis_dict(pl):
    return {
        "form": pl.form,
        "v1": {"x": pl.basis.v1[0], "y": pl.basis.v1[1]},
        "v2": {"x": pl.basis.v2[0], "y": pl.basis.v2[1]},
        "covolume": pl.covolume,
    }


def _prediction_input(args, alpha):
    lim = class_triplet_limit(alpha, args.j)
    return PredictionInput(
        beta=float(lim.beta), c=float(lim.c), ctilde=float(lim.ctilde),
        t=args.t, theta=args.theta,
    )


def _cmd_predict(args, out: Path):
    alpha = parse_angle(args.alpha)
    pin = _prediction_input(args, alpha)
    payload = {"triplet": {"beta": pin.beta, "c": pin.c, "ctilde": pin.ctilde},
               "t": pin.t, "theta": pin.theta}
    if args.form in ("proof", "both"):
        payload["proof_form"] = _basis_dict(predicted_basis(pin))
    if args.form in ("theorem", "both"):
        payload["theorem_form"] = _basis_dict(theorem_form_basis(pin))
    _write_json(out / "prediction.json", payload)
    return {"outputs": ["prediction.json"]}


def _cmd_compare_forms(args, out: Path):
    alpha = parse_angle(args.alpha)
    pin = _prediction_input(args, alpha)
    proof = predicted_basis(pin)
    theorem = theorem_form_basis(pin)
    res = same_lattice(proof.basis, theorem.basis, args.tol)
    _write_json(
        out / "forms.json",
        {
            "proof_form": _basis_dict(proof),
            "theorem_form": _basis_dict(theorem),
            "same_lattice": res.equal,
            "max_generator_distance": res.max_generator_distance,
            "covolume_gap": res.covolume_gap,
            "witness": res.witness,
        },
    )
    return {"outputs": ["forms.json"], "same_lattice": res.equal}


def _cmd_empirical(args, out: Path):
    alpha = parse_angle(args.alpha)
    report = empirical_vs_predicted(
        alpha, args.t, _parse_range(args.j), args.window, args.tol,
        use_finite_beta=args.finite_beta,
    )
    # every SVG is rendered before the first artifact is written
    svgs = [render_svg(args.window, point_layers=[("patch", rec.patch.points)],
                       cross_layers=[("proof_form", rec.balls[0].points),
                                     ("theorem_form", rec.balls[1].points)])
            for rec in report.records]
    outputs = ["report.json"]
    for rec, svg in zip(report.records, svgs):
        csv, overlay = f"patch_j{rec.j}.csv", f"overlay_j{rec.j}.svg"
        _patch_csv(out / csv, rec.window, rec.patch.points, rec.patch.point_errors)
        (out / overlay).write_text(svg)
        outputs += [csv, overlay]
    _write_json(out / "report.json", report)
    return {"outputs": outputs, "verdict": report.verdict}


def _cmd_orbit(args, out: Path):
    alpha = parse_angle(args.alpha)
    centers = center_indices(alpha, args.t, [args.j])
    n_base = centers.entries[0].n
    report = rotation_orbit(alpha, n_base, _parse_range(args.b), args.window, args.tol)
    _write_json(out / "orbit.json", report)
    return {"outputs": ["orbit.json"], "matches": report.matches,
            "checked": len(report.entries)}


def _cmd_forest(args, out: Path):
    alpha = parse_angle(args.alpha)
    witnesses = []
    outputs = ["witnesses.json"]
    svgs = []  # written after every SVG rendered within budget
    for length in _parse_floats(args.lengths):
        w = spiral_empty_rectangle_search(
            alpha, args.window_radius, args.eps, length, n_min=args.n_min
        )
        if w is None:
            witnesses.append({"length": length, "found": False})
            continue
        witnesses.append(
            {
                "length": length,
                "found": True,
                "center_index": w.center_index,
                "probe": {
                    "center": list(w.probe.center),
                    "direction": w.probe.direction,
                    "width": w.probe.width,
                    "length": w.probe.length,
                },
                "corners": w.probe.corners(),
                "points_checked": len(w.patch),
            }
        )
        svg = render_svg(
            w.patch.window_radius,
            point_layers=[("window", w.patch.points)],
            rectangles=[(f"V={length:g}", w.local_probe.corners())],
        )
        name = f"witness_V{length:g}.svg"
        svgs.append((name, svg))
        outputs.append(name)
    for name, svg in svgs:
        (out / name).write_text(svg)
    _write_json(out / "witnesses.json", {"eps": args.eps, "witnesses": witnesses})
    return {"outputs": outputs, "found": sum(1 for w in witnesses if w.get("found"))}


def _cmd_density(args, out: Path):
    alpha = parse_angle(args.alpha)
    rows = [
        {"r": r, "ratio": density_ratio(alpha, r, args.n_min)}
        for r in _parse_floats(args.r)
    ]
    _write_json(out / "density.json", {"n_min": args.n_min, "ratios": rows})
    return {"outputs": ["density.json"]}


def _cmd_delone(args, out: Path):
    alpha = parse_angle(args.alpha)
    patch = empirical_limit_patch(alpha, args.center_index, args.window)
    dc = delone_constants(patch, args.grid_step)
    _write_json(out / "delone.json", dc)
    return {"outputs": ["delone.json"]}


def _cmd_report(args, out: Path):
    run = Path(args.run)
    manifest_path = run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for key in ("command", "tool_version"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise SpiralLimitsError(f"{manifest_path} has no {key} key")
    params = manifest.get("params", {})
    outputs = manifest.get("outputs", [])
    result = manifest.get("result", {})
    for key, value in (("params", params), ("result", result)):
        if not isinstance(value, dict):
            raise SpiralLimitsError(f"{manifest_path}: {key} is not an object")
    if not isinstance(outputs, list) or not all(isinstance(v, str) for v in outputs):
        raise SpiralLimitsError(f"{manifest_path}: outputs is not a list of strings")
    root = run.resolve()
    for name in outputs:
        if not (run / name).resolve().is_relative_to(root):
            raise SpiralLimitsError(f"{manifest_path}: output {name!r} lies outside {run}")
    lines = [
        f"run: {manifest['command']}",
        f"tool version: {manifest['tool_version']}",
        f"alpha: {manifest.get('alpha', 'n/a')}",
        "parameters:",
    ]
    for k, v in sorted(params.items()):
        lines.append(f"  {k} = {v}")
    lines.append("outputs:")
    for name in outputs:
        p = run / name
        status = f"{p.stat().st_size} bytes" if p.exists() else "MISSING"
        lines.append(f"  {name}: {status}")
    for k, v in sorted(result.items()):
        lines.append(f"result {k}: {v}")
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text)
    sys.stdout.write(text)
    return {"outputs": ["report.txt"]}


_HANDLERS = {
    "cf": _cmd_cf,
    "triplets": _cmd_triplets,
    "spiral": _cmd_spiral,
    "patch": _cmd_patch,
    "delta": _cmd_delta,
    "predict": _cmd_predict,
    "compare-forms": _cmd_compare_forms,
    "empirical": _cmd_empirical,
    "orbit": _cmd_orbit,
    "forest": _cmd_forest,
    "density": _cmd_density,
    "delone": _cmd_delone,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spirallimits",
        description="Fermat spiral Chabauty-limit experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", default=None, help="run directory (default runs/<command>)")
        return p

    p = add("cf", help="continued-fraction convergents")
    p.add_argument("--alpha", required=True)
    p.add_argument("--count", type=int, required=True)

    p = add("triplets", help="triplet samples over a j range")
    p.add_argument("--alpha", required=True)
    p.add_argument("--j", required=True, help="range lo:hi")

    p = add("spiral", help="spiral points over an index range")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n-range", required=True, help="range lo:hi")

    p = add("patch", help="recentered complete window")
    p.add_argument("--alpha", required=True)
    p.add_argument("--center-index", type=int, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--n-min", type=int, default=1)

    p = add("delta", help="Chabauty distance between two patch CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--a-window", type=float, default=None)
    p.add_argument("--b-window", type=float, default=None)

    for name in ("predict", "compare-forms"):
        p = add(name, help="closed-form limit lattice prediction")
        p.add_argument("--alpha", required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--j", type=int, default=1, help="subsequence class index")
        if name == "predict":
            p.add_argument("--form", choices=["proof", "theorem", "both"], default="both")
        else:
            p.add_argument("--tol", type=float, default=FIT_TOL)

    p = add("empirical", help="empirical windows vs predictions per j")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--j", required=True, help="range lo:hi")
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--tol", type=float, default=FIT_TOL)
    p.add_argument("--finite-beta", action="store_true")

    p = add("orbit", help="rotation-orbit lattice matches at n_j + b")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--b", required=True, help="range lo:hi")
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--tol", type=float, default=FIT_TOL)

    p = add("forest", help="empty-rectangle witnesses in a spiral disk")
    p.add_argument("--alpha", required=True)
    p.add_argument("--window-radius", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lengths", required=True, help="comma list, e.g. 10,20,40")
    p.add_argument("--n-min", type=int, default=1)

    p = add("density", help="density ratios at sample radii")
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", required=True, help="comma list of radii")
    p.add_argument("--n-min", type=int, default=1)

    p = add("delone", help="packing/covering constants of a window")
    p.add_argument("--alpha", required=True)
    p.add_argument("--center-index", type=int, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=0.05)

    p = add("report", help="summarize a run directory")
    p.add_argument("--run", required=True)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    out = Path(args.out) if args.out else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in {"command", "out"} and v is not None
    }
    try:
        result = _HANDLERS[args.command](args, out)
    except PrecisionExhausted as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return 3
    except SpiralLimitsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "alpha": params.get("alpha"),
        "params": params,
        "n_min": params.get("n_min", 1),
        "precision_policy": PRECISION_POLICY,
        "tolerances": {k: v for k, v in params.items() if "tol" in k},
        "outputs": result.get("outputs", []),
        "result": {k: v for k, v in result.items() if k != "outputs"},
    }
    _write_json(out / "manifest.json", manifest)
    sys.stdout.write(f"{out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
