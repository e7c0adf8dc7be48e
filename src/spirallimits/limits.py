"""Limit-lattice prediction and the empirical comparison pipeline.

Two closed forms are implemented side by side and never silently merged:

* proof form      v = R (t, pi c / t),  v~ = R (beta t, pi c~ / (beta t))
* theorem form    columns sqrt(pi) R A_t (1, beta) and sqrt(pi) R A_t (c, c~/beta)

For the sunflower triplet these generate different lattices; the pipeline
measures which one the empirical windows converge to and records the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from .chabauty_metric import Patch, chabauty_distance
from .errors import InvalidSpec, NotALattice
from .lattice2d import FIT_TOL, Basis2, fit_lattice, lattice_ball, same_lattice
from .number_theory import AngleSpec, convergents
from .spiral import IndexWindow, angle_fraction, offset_between, recentered_window

PROOF_FORM = "proof_form"
THEOREM_FORM = "theorem_form"
MIN_PATCH_WINDOW = 4.0


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionInput:
    """Triplet (beta, c, c~) with the scale t and rotation angle theta."""

    beta: float
    c: float
    ctilde: float
    t: float
    theta: float

    def __post_init__(self):
        if self.beta < 1:
            raise InvalidSpec("beta must be >= 1")
        if self.c * self.ctilde >= 0:
            raise InvalidSpec("c and c~ must have opposite signs")
        if self.t <= 0:
            raise InvalidSpec("t must be positive")


@dataclass(frozen=True)
class PredictedLattice:
    basis: Basis2
    form: str
    covolume: float


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _covolume_formula(pin: PredictionInput) -> float:
    return math.pi * abs(pin.ctilde / pin.beta - pin.beta * pin.c)


def predicted_basis(pin: PredictionInput) -> PredictedLattice:
    """Proof-form lattice basis v, v~."""
    r = _rotation(pin.theta)
    v = r @ np.array([pin.t, math.pi * pin.c / pin.t])
    vt = r @ np.array([pin.beta * pin.t, math.pi * pin.ctilde / (pin.beta * pin.t)])
    return PredictedLattice(
        basis=Basis2(v, vt), form=PROOF_FORM, covolume=_covolume_formula(pin)
    )


def theorem_form_basis(pin: PredictionInput) -> PredictedLattice:
    """Theorem-statement lattice basis sqrt(pi) R A_t [1 c; beta c~/beta]."""
    r = _rotation(pin.theta)
    rt = math.sqrt(math.pi)
    col1 = rt * (r @ np.array([pin.t * 1.0, pin.beta / pin.t]))
    col2 = rt * (r @ np.array([pin.t * pin.c, pin.ctilde / (pin.beta * pin.t)]))
    return PredictedLattice(
        basis=Basis2(col1, col2), form=THEOREM_FORM, covolume=_covolume_formula(pin)
    )


# ---------------------------------------------------------------------------
# center construction (n_j = a q_j q~_j, a = 1 / (4 t^2 beta))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterEntry:
    j: int
    n: int
    q: int
    q_next: int
    theta: float  # 2*pi*frac(alpha * n)


@dataclass(frozen=True)
class CenterSequence:
    t: float
    entries: list
    beta_mode: str  # "class_limit" | "finite_ratio"


def center_indices(alpha: AngleSpec, t: float, j_range, *,
                   use_finite_beta: bool = False) -> CenterSequence:
    """Center indices n_j = round(q_j q~_j / (4 t^2 beta)) with angle records.

    beta is the subsequence limit for j's residue class (exact-period data for
    quadratic irrationals); ``use_finite_beta`` switches to the finite ratio
    q~_j/q_j, which shifts n_j by O(1).
    """
    if alpha.rational:
        raise InvalidSpec("center construction needs an irrational angle")
    if t <= 0:
        raise InvalidSpec("t must be positive")
    js = sorted(set(int(j) for j in j_range))
    if not js or js[0] < 1:
        raise InvalidSpec("j range must contain indices >= 1")
    convs = convergents(alpha, max(js) + 1)
    if len(convs) < max(js) + 1:
        raise InvalidSpec("expansion too short for the requested range")
    beta_mode = "finite_ratio" if use_finite_beta else alpha.beta_mode
    entries = []
    with mp.workprec(240):
        t_mp = mp.mpf(t)
        for j in js:
            q, qn = convs[j - 1].q, convs[j].q
            if beta_mode == "finite_ratio":
                beta = mp.mpf(qn) / q
            else:
                beta = mp.mpf(alpha.limit_triplet(j).beta)
            x = mp.mpf(q) * qn / (4 * t_mp**2 * beta)
            n = int(mp.floor(x + mp.mpf(1) / 2))
            theta_frac, _ = angle_fraction(alpha, n)
            entries.append(
                CenterEntry(j=j, n=n, q=q, q_next=qn, theta=float(2 * mp.pi * theta_frac))
            )
    return CenterSequence(t=t, entries=entries, beta_mode=beta_mode)


# ---------------------------------------------------------------------------
# empirical windows and the comparison pipeline
# ---------------------------------------------------------------------------

def _limit_window(alpha: AngleSpec, n_center: int, window: float):
    """The recentered window around x_{n_center} and its Patch."""
    if window < MIN_PATCH_WINDOW:
        raise InvalidSpec(f"window must be >= {MIN_PATCH_WINDOW}")
    win, offsets, errs = recentered_window(alpha, n_center, window)
    return win, Patch(
        offsets,
        window,
        provenance=f"spiral {alpha.canonical()} n={n_center} W={window:g}",
        point_errors=errs,
    )


def empirical_limit_patch(alpha: AngleSpec, n_center: int, window: float) -> Patch:
    """Recentered complete window T X cap B_W with T x = x - x_{n_center}."""
    return _limit_window(alpha, n_center, window)[1]


@dataclass
class ComparisonRecord:
    j: int
    n: int
    theta: float
    point_count: int
    d_proof: float
    d_theorem: float
    fit_ok: bool
    fit_residual: float | None
    fitted_covolume: float | None
    fitted_v1: tuple | None
    shortest_expected: tuple
    shortest_gap: float | None
    fit_error: str | None = None
    # what the record was measured on, for rendering; repr=False keeps it out of reports
    window: IndexWindow | None = field(default=None, repr=False)
    patch: Patch | None = field(default=None, repr=False)
    balls: tuple = field(default=(), repr=False)


@dataclass
class ComparisonReport:
    alpha: str
    t: float
    window: float
    tol: float
    beta_mode: str
    records: list
    verdict: str
    min_first: float
    min_last: float


def empirical_vs_predicted(alpha: AngleSpec, t: float, j_range, window: float,
                           tol: float = FIT_TOL, *,
                           use_finite_beta: bool = False) -> ComparisonReport:
    """Per-j Chabauty distances of empirical windows to both predicted forms.

    The prediction is rotated by the measured angle theta_j = 2 pi frac(alpha n_j);
    the report also fits a lattice to each window and compares its shortest
    vector with x_{n_j + q_j} - x_{n_j}.  Each record keeps the window, patch
    and lattice balls it was measured on.
    """
    centers = center_indices(alpha, t, j_range, use_finite_beta=use_finite_beta)
    records = []
    for entry in centers.entries:
        lim = alpha.limit_triplet(entry.j)
        win, patch = _limit_window(alpha, entry.n, window)
        pin = PredictionInput(beta=float(lim.beta), c=float(lim.c), ctilde=float(lim.ctilde),
                              t=t, theta=entry.theta)
        balls = (lattice_ball(predicted_basis(pin).basis, window),
                 lattice_ball(theorem_form_basis(pin).basis, window))
        d_proof = chabauty_distance(patch, balls[0])
        d_theorem = chabauty_distance(patch, balls[1])
        ex, ey, _ = offset_between(alpha, entry.n + entry.q, entry.n)
        rec = ComparisonRecord(
            j=entry.j,
            n=entry.n,
            theta=entry.theta,
            point_count=len(patch),
            d_proof=d_proof,
            d_theorem=d_theorem,
            fit_ok=False,
            fit_residual=None,
            fitted_covolume=None,
            fitted_v1=None,
            shortest_expected=(ex, ey),
            shortest_gap=None,
            window=win,
            patch=patch,
            balls=balls,
        )
        try:
            fit = fit_lattice(patch, tol)
        except NotALattice as exc:
            rec.fit_error = str(exc)
        else:
            v1 = fit.basis.v1
            gap = min(
                math.hypot(v1[0] - ex, v1[1] - ey),
                math.hypot(v1[0] + ex, v1[1] + ey),
            )
            rec.fit_ok = True
            rec.fit_residual = fit.residual
            rec.fitted_covolume = abs(fit.basis.det())
            rec.fitted_v1 = (float(v1[0]), float(v1[1]))
            rec.shortest_gap = gap
        records.append(rec)
    proof_tail = [r.d_proof for r in records[len(records) // 2:]]
    theorem_tail = [r.d_theorem for r in records[len(records) // 2:]]
    if np.median(proof_tail) < np.median(theorem_tail):
        verdict = f"{PROOF_FORM} matches the empirical windows"
    else:
        verdict = f"{THEOREM_FORM} matches the empirical windows"
    head = [r.d_proof for r in records[:5]]
    tail = [r.d_proof for r in records[-5:]]
    return ComparisonReport(
        alpha=alpha.canonical(),
        t=t,
        window=window,
        tol=tol,
        beta_mode=centers.beta_mode,
        records=records,
        verdict=verdict,
        min_first=min(head),
        min_last=min(tail),
    )


# ---------------------------------------------------------------------------
# rotation orbit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitEntry:
    b: int
    angle: float
    fit_ok: bool
    match: bool
    max_generator_distance: float | None
    note: str | None = None


@dataclass(frozen=True)
class OrbitReport:
    base_n: int
    tol: float
    entries: list
    matches: int


def rotation_orbit(alpha: AngleSpec, n_base: int, b_range, window: float,
                   tol: float = FIT_TOL) -> OrbitReport:
    """Fitted lattices at centers n_base + b versus the rotated base lattice.

    The base lattice fitted at n_base, rotated by 2 pi alpha b, should match
    the lattice fitted at n_base + b (set equality within tol).
    """
    base_fit = fit_lattice(empirical_limit_patch(alpha, n_base, window), tol)
    entries = []
    matches = 0
    for b in b_range:
        frac_b, _ = angle_fraction(alpha, abs(int(b)))
        ang = float(2 * mp.pi * frac_b)
        if b < 0:
            ang = -ang
        rot = _rotation(ang)
        rotated = Basis2(rot @ base_fit.basis.v1, rot @ base_fit.basis.v2)
        try:
            fit_b = fit_lattice(empirical_limit_patch(alpha, n_base + int(b), window), tol)
        except NotALattice as exc:
            entries.append(OrbitEntry(int(b), ang, False, False, None, note=str(exc)))
            continue
        res = same_lattice(rotated, fit_b.basis, tol)
        matches += int(res.equal)
        entries.append(
            OrbitEntry(int(b), ang, True, res.equal, res.max_generator_distance)
        )
    return OrbitReport(base_n=n_base, tol=tol, entries=entries, matches=matches)


# ---------------------------------------------------------------------------
# group-structure checks (additive and inversion closure of a window)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureReport:
    additive_checked: int
    additive_violations: int
    additive_worst: float
    inversion_checked: int
    inversion_violations: int
    inversion_worst: float
    tol: float


def group_closure_check(patch: Patch, tol: float = FIT_TOL) -> ClosureReport:
    """Testable form of the closed-subgroup property of limit windows.

    Additive: all u, v with |u|, |v| <= W/2 and |u+v| <= W-1 have a patch
    point within tol of u+v.  Inversion: |u| <= W-1 has one within tol of -u.
    """
    pts = patch.points
    w = patch.window_radius
    norms = np.hypot(pts[:, 0], pts[:, 1])
    small = pts[norms <= w / 2]
    sums = small[:, None, :] + small[None, :, :]
    sums = sums.reshape(-1, 2)
    sums = sums[np.hypot(sums[:, 0], sums[:, 1]) <= w - 1]
    inv = -pts[norms <= w - 1]
    d_add, d_inv = patch.nearest(sums), patch.nearest(inv)
    return ClosureReport(
        additive_checked=len(sums),
        additive_violations=int((d_add >= tol).sum()),
        additive_worst=float(d_add.max(initial=0.0)),
        inversion_checked=len(inv),
        inversion_violations=int((d_inv >= tol).sum()),
        inversion_worst=float(d_inv.max(initial=0.0)),
        tol=tol,
    )
