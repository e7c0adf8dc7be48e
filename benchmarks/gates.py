"""Correctness gates, run after the timed region on the first pass's results.

Each gate returns a list of problems (empty when the output is correct).
They run with tracing uninstalled, so they call the original functions.
"""

from __future__ import annotations

import math

import oracle
from spirallimits import spiral

ORACLE_MAX_N = 10**9  # brute-force index-set comparison below this index


def window(spec, alpha, n, radius, result):
    """Offsets re-derived point by point; index set against the oracle."""
    win, offsets, errs = result
    idx = [int(m) for m in win.indices]
    problems = []
    if n not in idx:
        return [f"center {n} missing from its own window"]
    c = idx.index(n)
    if offsets[c, 0] != 0.0 or offsets[c, 1] != 0.0:
        problems.append(f"center offset is {offsets[c].tolist()}, not the origin")
    for i, m in enumerate(idx):
        x, y, e = spiral.offset_between(alpha, m, n)
        pad = e + float(errs[i])
        if abs(offsets[i, 0] - x) > pad or abs(offsets[i, 1] - y) > pad:
            problems.append(f"offset of m={m} differs from offset_between by more than {pad:.3g}")
        if math.hypot(offsets[i, 0], offsets[i, 1]) > radius + float(errs[i]):
            problems.append(f"m={m} lies outside W={radius} plus its error")
    if n < ORACLE_MAX_N:
        expected, undecided = oracle.window_indices(spec, n, radius)
        got = set(idx) - set(undecided)
        want = set(expected) - set(undecided)
        if got != want:
            problems.append(
                f"index set differs from brute force: missing {sorted(want - got)[:5]}, "
                f"extra {sorted(got - want)[:5]}"
            )
    return problems


def nearest(alpha, n, result):
    m, dist = result
    if m == n or m < 1:
        return [f"nearest neighbour of {n} is {m}"]
    x, y, e = spiral.offset_between(alpha, m, n)
    if abs(math.hypot(x, y) - dist) > e + 1e-9 * max(1.0, dist):
        return [f"distance to m={m} is {math.hypot(x, y)!r}, reported {dist!r}"]
    return []


def limit_pipeline(ops, results):
    """Acceptance 5/6/9 thresholds where they hold for t in [0.8, 1.25].

    Per angle, over all calls of the pass: the largest j has d_proof < 0.1
    (acceptance 5 asks this of the three largest j at t = 1 only), the
    minimum over the last five j is below that over the first five, and every
    call's verdict is the proof form.  At the largest j the fit succeeds with
    co-volume pi to 0.05 and, where t >= 1, the fitted shortest vector is
    within 0.05 of x_{n+q} - x_n (acceptance 6).  Over all orbit calls at
    least 18 of every 21 rotated lattices match (acceptance 9).
    """
    problems = {}
    per_angle = {}
    orbit_matches = orbit_entries = 0
    for i, (op, rep) in enumerate(zip(ops, results)):
        if rep is None:
            continue
        if op["fn"] == "limits.rotation_orbit":
            orbit_matches += rep.matches
            orbit_entries += len(rep.entries)
            continue
        if not rep.verdict.startswith("proof_form"):
            problems.setdefault(i, []).append(f"verdict {rep.verdict!r}")
        t = op["args"][1]
        for rec in rep.records:
            per_angle.setdefault(op["args"][0], []).append((rec.j, rec, t, i))
    for alpha, rows in per_angle.items():
        rows.sort(key=lambda r: r[0])
        d = [r[1].d_proof for r in rows]
        j_top, last, t_top, i_top = rows[-1]
        if not d[-1] < 0.1:
            problems.setdefault(i_top, []).append(f"{alpha} j={j_top}: d_proof {d[-1]:.4f} >= 0.1")
        if not min(d[-5:]) < min(d[:5]):
            problems.setdefault(i_top, []).append(f"{alpha}: no convergence over j")
        if not last.fit_ok or abs(last.fitted_covolume - math.pi) >= 0.05:
            problems.setdefault(i_top, []).append(f"{alpha} j={j_top}: fit failed or co-volume off")
        elif t_top >= 1.0 and not last.shortest_gap < 0.05:
            problems.setdefault(i_top, []).append(
                f"{alpha} j={j_top}: shortest-vector gap {last.shortest_gap:.3g}"
            )
    if orbit_entries and 21 * orbit_matches < 18 * orbit_entries:
        orbit_ops = [i for i, op in enumerate(ops) if op["fn"] == "limits.rotation_orbit"]
        for i in orbit_ops:
            problems.setdefault(i, []).append(
                f"orbit matched {orbit_matches}/{orbit_entries} (< 18/21)"
            )
    return problems


def forest_witness(alpha, radius, eps, length, witness):
    """Re-verify a witness rectangle against its complete local window."""
    if witness is None:
        return []
    problems = []
    pts = witness.patch.points
    local = witness.local_probe
    errs = witness.patch.point_errors
    pad = float(errs.max()) if errs is not None and len(errs) else 0.0
    if local.contains(pts).any() or local.clearance(pts) <= pad:
        problems.append("a window point lies in the witness rectangle")
    if max(math.hypot(*c) for c in local.corners()) > witness.patch.window_radius:
        problems.append("witness rectangle leaves its complete window")
    if max(math.hypot(*c) for c in witness.probe.corners()) > radius:
        problems.append("witness rectangle leaves the requested disk")
    center = spiral.spiral_point(alpha, witness.center_index)
    shift = (witness.probe.center[0] - local.center[0] - center.x,
             witness.probe.center[1] - local.center[1] - center.y)
    if math.hypot(*shift) > 1e-6:
        problems.append("global rectangle is not the local one moved to x_n")
    if abs(witness.probe.width - eps) > 0 or abs(witness.probe.length - length) > 0:
        problems.append("witness rectangle has the wrong size")
    return problems
