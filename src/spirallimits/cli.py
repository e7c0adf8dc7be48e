"""Command-line experiment runner.

Every run writes a manifest (alpha spec, parameters, precision policy, output
list) plus CSV/JSON/SVG artifacts into a run directory.  Each subcommand
returns the text of its artifacts; ``main`` creates the directory and writes
them only after the subcommand has succeeded, so a failed run creates
nothing.  All outputs are deterministic: identical manifests give
byte-identical files.  Measured numbers serialize as decimal strings with 17
significant digits.

Exit codes: 0 success, 2 precondition violation, 3 precision exhausted.

Importing this module loads no numpy: the package loads number_theory, and
each subcommand imports the other layers it runs when it runs, so
``--version``, ``cf``, ``triplets`` and ``report`` load none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from decimal import Decimal
from pathlib import Path

from . import __version__
from .errors import InvalidSpec, PrecisionExhausted, SpiralLimitsError
from .number_theory import (
    FIT_TOL,
    PREC_PAD,
    badly_approx_profile,
    class_triplet_limit,
    convergents,
    expand_cf,
    parse_angle,
    triplet,
)

PRECISION_POLICY = f"bits(n) + {PREC_PAD}"
_MAX_RANGE = 10_000  # budget of integers in one lo:hi range argument or cf --count


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _python(obj):
    """A numpy array or scalar as Python lists and scalars (its ``tolist``);
    any other object unchanged."""
    tolist = getattr(obj, "tolist", None)
    return obj if tolist is None else tolist()


def _jsonable(obj):
    """Floats become 17-digit decimal strings; dataclasses become dicts of
    their fields, leaving out in-memory objects (fields with repr=False)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    obj = _python(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return _fmt17(obj) if math.isfinite(obj) else repr(obj)
    return str(obj)


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """Ints written exactly at any size (str of an int refuses past 4,300
    digits, str of its Decimal does not); other cells as _fmt17."""
    lines = [",".join(header)]
    for row in rows:
        cells = [str(Decimal(v)) if isinstance(v, int) else _fmt17(v) for v in map(_python, row)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> range:
    """The integers lo..hi of the text "lo:hi", which must have lo <= hi and
    hold at most _MAX_RANGE integers."""
    lo, _, hi = text.partition(":")
    try:
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        values = range(0)
    if not values:
        raise InvalidSpec(f"range {text!r} is not lo:hi with integers lo <= hi")
    # stop - start, not len(): len() overflows past sys.maxsize integers
    if values.stop - values.start > _MAX_RANGE:
        raise InvalidSpec(f"range {text!r} holds {values.stop - values.start} integers, "
                          f"more than {_MAX_RANGE}")
    return values


def finite(text: str) -> float:
    """A finite float: the type of every float option and list entry.

    argparse names the type in its message: "invalid finite value: 'inf'".
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_floats(text: str):
    """The finite floats of a comma list, which must hold at least one."""
    values = [finite(x) for x in text.split(",") if x]
    if not values:
        raise InvalidSpec(f"list {text!r} holds no number")
    return values


def _patch_csv(win, offsets, errs) -> str:
    rows = [
        (int(n), offsets[i, 0], offsets[i, 1], errs[i])
        for i, n in enumerate(win.indices)
    ]
    return _csv_text(["n", "x", "y", "err"], rows)


def _read_patch(path: Path, window: float | None):
    import numpy as np

    from .chabauty_metric import Patch

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
# subcommand implementations: each returns (files, result), the text of every
# artifact by name in manifest order and the manifest's result object
# ---------------------------------------------------------------------------

def _cmd_cf(args):
    if args.count > _MAX_RANGE:
        raise InvalidSpec(f"count {args.count} is more than {_MAX_RANGE}")
    alpha = parse_angle(args.alpha)
    quots = expand_cf(alpha, args.count)
    convs = convergents(alpha, args.count)
    csv = _csv_text(["j", "a", "p", "q"], [(c.j, quots[c.j - 1], c.p, c.q) for c in convs])
    return {"convergents.csv": csv}, {"terminated": len(convs) < args.count}


def _cmd_triplets(args):
    alpha = parse_angle(args.alpha)
    js = _parse_range(args.j)
    rows = []
    for j in js:
        t = triplet(alpha, j)
        rows.append((j, float(t.beta), float(t.c), float(t.ctilde), t.err))
    return {
        "triplets.csv": _csv_text(["j", "beta", "c", "ctilde", "err"], rows),
        "profile.json": _json_text(badly_approx_profile(alpha, max(js))),
    }, {}


def _cmd_spiral(args):
    from .spiral import spiral_point

    alpha = parse_angle(args.alpha)
    rows = []
    for n in _parse_range(args.n_range):
        p = spiral_point(alpha, n)
        rows.append((n, p.x, p.y, p.error_bound))
    return {"points.csv": _csv_text(["n", "x", "y", "err"], rows)}, {"count": len(rows)}


def _cmd_patch(args):
    from .spiral import recentered_window
    from .svgplot import render_svg

    alpha = parse_angle(args.alpha)
    win, offsets, errs = recentered_window(
        alpha, args.center_index, args.window, n_min=args.n_min
    )
    meta = {
        "window_radius": args.window,
        "center_index": args.center_index,
        "center": {"x": win.center[0], "y": win.center[1]},
        "count": len(win),
    }
    return {
        "patch.csv": _patch_csv(win, offsets, errs),
        "patch.json": _json_text(meta),
        "patch.svg": render_svg(args.window, point_layers=[("patch", offsets)]),
    }, {"count": len(win)}


def _cmd_delta(args):
    from .chabauty_metric import delta

    a = _read_patch(Path(args.a), args.a_window)
    b = _read_patch(Path(args.b), args.b_window)
    res = delta(a, b)
    payload = {
        "value": res.value,
        "bracket": [res.lower, res.upper],
        "certified_radius": res.certified_radius,
        "certified": res.certified,
        "distance": min(1.0, res.value),
    }
    return {"delta.json": _json_text(payload)}, {"value": _fmt17(res.value)}


def _basis_dict(pl):
    return {
        "form": pl.form,
        "v1": {"x": pl.basis.v1[0], "y": pl.basis.v1[1]},
        "v2": {"x": pl.basis.v2[0], "y": pl.basis.v2[1]},
        "covolume": pl.covolume,
    }


def _prediction_input(args, alpha):
    from .limits import PredictionInput

    lim = class_triplet_limit(alpha, args.j)
    return PredictionInput(
        beta=float(lim.beta), c=float(lim.c), ctilde=float(lim.ctilde),
        t=args.t, theta=args.theta,
    )


def _cmd_predict(args):
    from .limits import predicted_basis, theorem_form_basis

    alpha = parse_angle(args.alpha)
    pin = _prediction_input(args, alpha)
    payload = {"triplet": {"beta": pin.beta, "c": pin.c, "ctilde": pin.ctilde},
               "t": pin.t, "theta": pin.theta}
    if args.form in ("proof", "both"):
        payload["proof_form"] = _basis_dict(predicted_basis(pin))
    if args.form in ("theorem", "both"):
        payload["theorem_form"] = _basis_dict(theorem_form_basis(pin))
    return {"prediction.json": _json_text(payload)}, {}


def _cmd_compare_forms(args):
    from .lattice2d import same_lattice
    from .limits import predicted_basis, theorem_form_basis

    alpha = parse_angle(args.alpha)
    pin = _prediction_input(args, alpha)
    proof = predicted_basis(pin)
    theorem = theorem_form_basis(pin)
    res = same_lattice(proof.basis, theorem.basis, args.tol)
    payload = {
        "proof_form": _basis_dict(proof),
        "theorem_form": _basis_dict(theorem),
        "same_lattice": res.equal,
        "max_generator_distance": res.max_generator_distance,
        "covolume_gap": res.covolume_gap,
        "witness": res.witness,
    }
    return {"forms.json": _json_text(payload)}, {"same_lattice": res.equal}


def _cmd_empirical(args):
    from .limits import empirical_vs_predicted
    from .svgplot import render_svg

    alpha = parse_angle(args.alpha)
    report = empirical_vs_predicted(
        alpha, args.t, _parse_range(args.j), args.window, args.tol,
        use_finite_beta=args.finite_beta,
    )
    files = {"report.json": _json_text(report)}
    for rec in report.records:
        files[f"patch_j{rec.j}.csv"] = _patch_csv(
            rec.window, rec.patch.points, rec.patch.point_errors)
        files[f"overlay_j{rec.j}.svg"] = render_svg(
            args.window, point_layers=[("patch", rec.patch.points)],
            cross_layers=[("proof_form", rec.balls[0].points),
                          ("theorem_form", rec.balls[1].points)])
    return files, {"verdict": report.verdict}


def _cmd_orbit(args):
    from .limits import center_indices, rotation_orbit

    alpha = parse_angle(args.alpha)
    centers = center_indices(alpha, args.t, [args.j])
    n_base = centers.entries[0].n
    report = rotation_orbit(alpha, n_base, _parse_range(args.b), args.window, args.tol)
    return {"orbit.json": _json_text(report)}, {"matches": report.matches,
                                                "checked": len(report.entries)}


def _cmd_forest(args):
    from .forest import spiral_empty_rectangle_search
    from .svgplot import MAX_POINTS, render_svg

    alpha = parse_angle(args.alpha)
    lengths = _parse_floats(args.lengths)
    names = [f"witness_V{length:g}.svg" for length in lengths]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidSpec(f"lengths {lengths[names.index(name)]!r} and {lengths[i]!r} "
                              f"share the SVG name {name}")
    witnesses = []
    svgs = {}
    for length, name in zip(lengths, names):
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
        if len(w.patch) > MAX_POINTS:
            continue  # the witness stands; its window is too dense to draw
        svgs[name] = render_svg(
            w.patch.window_radius,
            point_layers=[("window", w.patch.points)],
            rectangles=[(f"V={length:g}", w.local_probe.corners())],
        )
    files = {"witnesses.json": _json_text({"eps": args.eps, "witnesses": witnesses}), **svgs}
    return files, {"found": sum(1 for w in witnesses if w.get("found"))}


def _cmd_density(args):
    from .forest import density_ratio

    alpha = parse_angle(args.alpha)
    rows = [
        {"r": r, "ratio": density_ratio(alpha, r, args.n_min)}
        for r in _parse_floats(args.r)
    ]
    return {"density.json": _json_text({"n_min": args.n_min, "ratios": rows})}, {}


def _cmd_delone(args):
    from .forest import delone_constants
    from .limits import empirical_limit_patch

    alpha = parse_angle(args.alpha)
    patch = empirical_limit_patch(alpha, args.center_index, args.window)
    return {"delone.json": _json_text(delone_constants(patch))}, {}


def _cmd_report(args):
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
    return {"report.txt": "\n".join(lines) + "\n"}, {}


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
    p.add_argument("--window", type=finite, required=True)
    p.add_argument("--n-min", type=int, default=1)

    p = add("delta", help="Chabauty distance between two patch CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--a-window", type=finite, default=None)
    p.add_argument("--b-window", type=finite, default=None)

    for name in ("predict", "compare-forms"):
        p = add(name, help="closed-form limit lattice prediction")
        p.add_argument("--alpha", required=True)
        p.add_argument("--t", type=finite, required=True)
        p.add_argument("--theta", type=finite, required=True,
                       help="write a negative value as --theta=-1e-3")
        p.add_argument("--j", type=int, default=1, help="subsequence class index")
        if name == "predict":
            p.add_argument("--form", choices=["proof", "theorem", "both"], default="both")
        else:
            p.add_argument("--tol", type=finite, default=FIT_TOL)

    p = add("empirical", help="empirical windows vs predictions per j")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--j", required=True, help="range lo:hi")
    p.add_argument("--window", type=finite, required=True)
    p.add_argument("--tol", type=finite, default=FIT_TOL)
    p.add_argument("--finite-beta", action="store_true")

    p = add("orbit", help="rotation-orbit lattice matches at n_j + b")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", type=finite, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--b", required=True,
                   help="range lo:hi; write a negative lo as --b=-2:2")
    p.add_argument("--window", type=finite, required=True)
    p.add_argument("--tol", type=finite, default=FIT_TOL)

    p = add("forest", help="empty-rectangle witnesses in a spiral disk")
    p.add_argument("--alpha", required=True)
    p.add_argument("--window-radius", type=finite, required=True)
    p.add_argument("--eps", type=finite, required=True)
    p.add_argument("--lengths", required=True, help="comma list, e.g. 10,20,40")
    p.add_argument("--n-min", type=int, default=1)

    p = add("density", help="density ratios at sample radii")
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", required=True, help="comma list of radii")
    p.add_argument("--n-min", type=int, default=1)

    p = add("delone", help="packing/covering constants of a window")
    p.add_argument("--alpha", required=True)
    p.add_argument("--center-index", type=int, required=True)
    p.add_argument("--window", type=finite, required=True)

    p = add("report", help="summarize a run directory")
    p.add_argument("--run", required=True)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    out = Path(args.out) if args.out else Path("runs") / args.command
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in {"command", "out"} and v is not None
    }
    try:
        files, result = _HANDLERS[args.command](args)
        manifest = {
            "tool_version": __version__,
            "command": args.command,
            "alpha": params.get("alpha"),
            "params": params,
            "n_min": params.get("n_min", 1),
            "precision_policy": PRECISION_POLICY,
            "tolerances": {k: v for k, v in params.items() if "tol" in k},
            "outputs": list(files),
            "result": result,
        }
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
        (out / "manifest.json").write_text(_json_text(manifest))
        if args.command == "report":  # its summary prints only once committed
            sys.stdout.write(files["report.txt"])
    except PrecisionExhausted as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return 3
    except SpiralLimitsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(f"{out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
