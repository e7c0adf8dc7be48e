"""Fermat spiral points sqrt(n) * e^(2*pi*i*alpha*n) at arbitrary index.

Positions are produced with certified error bounds.  Window candidates come
from the convergent data of alpha: writing m = n + k and delta = k*alpha - p,
a point x_m in B_W(x_n) forces |k| <= 2W sqrt(n) + W^2 and
|delta| <= W / (4 (sqrt(n) - W)).  These are the points of the unimodular
lattice {(k, k*alpha - p)} in a box of area about 2W^2, listed from a
Gauss-reduced convergent basis in time independent of n.  A float filter
trims them and interval arithmetic certifies every survivor, so windows are
complete; nearest neighbours are a radius query on the same enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import iv, mp

from .errors import InvalidSpec, PrecisionExhausted, WindowTooLarge
from .lattice2d import Basis2, gauss_reduce
from .number_theory import (
    AngleSpec,
    DecimalAngle,
    QuadraticAngle,
    RationalAngle,
    _iv_of,
    _quad_floor,
    convergents,
    largest_denominator_at_most,
)

PREC_PAD = 96  # default evaluation bits beyond bits(n)
_FILTER_SLACK = 1e-6  # float-filter inclusion margin, certified away later
_MAX_WINDOW_POINTS = 4_000_000  # output budget: enumerated lattice points or ball indices


# ---------------------------------------------------------------------------
# exact fractional parts of alpha * n
# ---------------------------------------------------------------------------

def _frac_exact(alpha: AngleSpec, n: int):
    """Tagged exact representation of frac(alpha * n) in [0, 1)."""
    if isinstance(alpha, RationalAngle):
        return ("frac", Fraction((alpha.num * n) % alpha.den, alpha.den))
    if isinstance(alpha, QuadraticAngle):
        e, f, g = alpha.a * n, alpha.b * n, alpha.c
        fl = _quad_floor(e, f, g, alpha.d)
        return ("quad", e - fl * g, f, g, alpha.d)
    lo, hi = alpha.bounds_fraction()
    lo, hi = lo * n, hi * n
    flo, fhi = math.floor(lo), math.floor(hi)
    if flo != fhi:
        raise PrecisionExhausted(
            f"frac({alpha.canonical()} * {n}) straddles an integer; literal too coarse"
        )
    return ("ivl", lo - flo, hi - flo)


def default_prec(n: int) -> int:
    return max(int(n).bit_length(), 1) + PREC_PAD


def angle_fraction(alpha: AngleSpec, n: int, prec: int | None = None):
    """frac(alpha * n) as an arbitrary-precision real with certified error.

    Returns (value, error_bound); the bound is <= 2^-64 or PrecisionExhausted
    is raised.
    """
    if n < 0:
        raise InvalidSpec("index must be nonnegative")
    working = prec if prec is not None else default_prec(n)
    x = _iv_of(_frac_exact(alpha, n), working)
    err = float(mp.mpf(x.delta) / 2)
    if err > 2.0**-64:
        raise PrecisionExhausted(f"frac(alpha*{n}) certified only to {err:.3e}")
    with mp.workprec(working + 16):
        val = (mp.mpf(x.a) + mp.mpf(x.b)) / 2
        if val >= 1:
            val -= 1
        if val < 0:
            val += 1
    return val, err


# ---------------------------------------------------------------------------
# single points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralPoint:
    """Planar spiral point with a certified bound on the exported floats."""

    n: int
    x: float
    y: float
    error_bound: float

    @property
    def position(self):
        return (self.x, self.y)


def _position_iv(alpha: AngleSpec, n: int, prec: int):
    """Interval position of x_n at the given working precision."""
    old = iv.prec
    iv.prec = prec
    try:
        theta = _iv_of(_frac_exact(alpha, n), prec)
        ang = 2 * iv.pi * theta
        r = iv.sqrt(iv.mpf(n))
        return r * iv.cos(ang), r * iv.sin(ang)
    finally:
        iv.prec = old


def spiral_point(alpha: AngleSpec, n: int, prec: int | None = None) -> SpiralPoint:
    """x_n = sqrt(n) e^(2 pi i alpha n), exported as float64 with error bound."""
    if n < 0:
        raise InvalidSpec("index must be nonnegative")
    working = prec if prec is not None else default_prec(n)
    xi, yi = _position_iv(alpha, n, working)
    x = float(mp.mpf(xi.a) + mp.mpf(xi.b)) / 2
    y = float(mp.mpf(yi.a) + mp.mpf(yi.b)) / 2
    # interval width plus float64 quantization of the exported coordinates
    err = float(mp.mpf(xi.delta) + mp.mpf(yi.delta)) / 2
    quant = max(abs(x), abs(y)) * 2.0**-52
    return SpiralPoint(n=n, x=x, y=y, error_bound=err + quant)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass
class IndexWindow:
    """All spiral indices whose points lie in a closed ball."""

    center: tuple
    radius: float
    indices: np.ndarray
    n_min: int

    def __len__(self):
        return len(self.indices)


def _convergent_pair(alpha: AngleSpec, k_max: int):
    """Consecutive convergents (p, q), (p', q') with q <= k_max < q'.

    Any consecutive pair is a basis of the lattice {(k, k*alpha - p)}.  The
    convergent 1/0 heads the list so integer angles have a pair too, and a
    rational whose expansion ends at or below k_max gets its final pair.
    """
    count = 16
    while True:
        seq = [(1, 0)] + [(c.p, c.q) for c in convergents(alpha, count)]
        for a, b in zip(seq, seq[1:]):
            if b[1] > k_max:
                return a, b
        if len(seq) <= count:
            return seq[-2], seq[-1]
        count *= 2


def _lattice_box(alpha: AngleSpec, k_max: int, half_turns: float, delta0: float):
    """Lattice points (k, delta = k*alpha - p), |k| <= k_max, |delta - delta0| <= half_turns.

    Returns k (exact int64) and delta - delta0 (float64).  The convergent
    basis is scaled so the box is a square and Gauss-reduced there; a Cramer
    bound limits the rows along the shorter vector and each row is cut to the
    box, so the work is the output plus O(W) rows whatever k_max is.  k and p
    come from the integer transform; delta from the two basis residues, each
    evaluated once at high precision, with coefficients no larger than the
    box needs.  A decimal literal walks the lattice of its midpoint, with the
    box widened by its half-ulp times k_max.
    """
    if isinstance(alpha, DecimalAngle):
        v = alpha.as_fraction()
        half_turns += k_max * float(alpha.ulp()) / 2
        alpha = RationalAngle(v.numerator, v.denominator)
    (pa, qa), (pb, qb) = _convergent_pair(alpha, k_max)
    # q*alpha - p cancels about bits(q) bits; evaluate alpha well past that
    prec = 2 * max(qa, qb, abs(pa), abs(pb), 2).bit_length() + 96
    x = alpha.interval(prec)
    with mp.workprec(prec):
        mid = (mp.mpf(x.a) + mp.mpf(x.b)) / 2
        scale = k_max / half_turns
        t = gauss_reduce(Basis2((qa, float(qa * mid - pa) * scale),
                                (qb, float(qb * mid - pb) * scale))).transform
        (k1, p1), (k2, p2) = (
            (int(t[0, c]) * qa + int(t[1, c]) * qb, int(t[0, c]) * pa + int(t[1, c]) * pb)
            for c in (0, 1)
        )
        r1, r2 = float(k1 * mid - p1), float(k2 * mid - p2)
        e = k2 * p1 - k1 * p2  # = k1*r2 - k2*r1 exactly, so +-1
        # (x, y) = i*(k1, r1) + j*(k2, r2) has i = e*(x*r2 - y*k2), j = e*(k1*y - x*r1);
        # count (i, j) from the lattice point nearest the box center (0, delta0)
        i0, j0 = round(-e * delta0 * k2), round(e * delta0 * k1)
        k0, p0 = i0 * k1 + j0 * k2, i0 * p1 + j0 * p2
        g0 = float(k0 * mid - p0) - delta0
    bj = math.ceil(k_max * abs(r1) + half_turns * abs(k1)) + 1
    j = np.arange(-bj, bj + 1, dtype=np.int64)
    lo, hi = np.full(len(j), -np.inf), np.full(len(j), np.inf)
    for start, step, half in ((k0 + j * k2, k1, k_max), (g0 + j * r2, r1, half_turns)):
        if step == 0:
            hi[np.abs(start) > half] = -np.inf
            continue
        a, b = (-half - start) / step, (half - start) / step
        lo, hi = np.maximum(lo, np.minimum(a, b)), np.minimum(hi, np.maximum(a, b))
    ok = hi >= lo
    i_lo = np.floor(np.where(ok, lo, 0.0)).astype(np.int64)
    counts = np.ceil(np.where(ok, hi, -1.0)).astype(np.int64) - i_lo + 1
    total = int(counts.sum())
    if total > _MAX_WINDOW_POINTS:
        raise WindowTooLarge(f"window box holds ~{total} lattice points (> {_MAX_WINDOW_POINTS})")
    first = np.cumsum(counts) - counts
    i = np.arange(total, dtype=np.int64) - np.repeat(first - i_lo, counts)
    j = np.repeat(j, counts)
    k = k0 + i * k1 + j * k2
    gap = g0 + i * r1 + j * r2
    keep = (np.abs(k) <= k_max) & (np.abs(gap) <= half_turns)
    return k[keep], gap[keep]


def _candidates(alpha: AngleSpec, n0: int, rc: float, delta0: float,
                radius: float, n_min: int):
    """Indices m >= n_min passing the float distance filter around a center.

    The center has modulus rc, with rc^2 within 1/2 of n0, and angle
    frac(n0*alpha) + delta0 turns.  Since |x_m| = sqrt(m) and
    sin(pi t) >= 2t on [0, 1/2], membership forces |m - n0| <= w(2 rc + w) + 1
    and an angle gap of at most w / (4 (rc - w)) turns.  Returns m sorted,
    the angle of x_m minus the center's in turns, and the float squared
    distance.
    """
    w = radius + _FILTER_SLACK
    k_max = math.ceil(w * (2 * rc + w)) + 1
    half_turns = min(0.5, w / (4 * (rc - w))) if rc > w else 0.5
    k, turns = _lattice_box(alpha, k_max, half_turns, delta0)
    m = k + n0
    ok = m >= max(n_min, 0)
    m, turns = m[ok], turns[ok]
    rn = np.sqrt(m.astype(np.float64))
    s = np.sin(np.pi * turns)
    d2 = (rn - rc) ** 2 + 4.0 * rn * rc * s * s
    keep = d2 <= w * w
    # a half-turn box can hold two lattice points of one index
    m, first = np.unique(m[keep], return_index=True)
    return m, turns[keep][first], d2[keep][first]


def _window_prec(rc: float, radius: float) -> int:
    """Working precision for the largest index a window at modulus rc reaches."""
    return default_prec(math.ceil((rc + radius) ** 2) + 1)


def _fast_offsets(alpha: AngleSpec, cand: np.ndarray, turns: np.ndarray,
                  n_center: int, radius: float, prec: int):
    """Vectorized recentered offsets with a conservative analytic error bound.

    Angle gaps come from the window enumerator, accurate relative to the
    window's O(W / sqrt(n)) turns; offsets are assembled in the frame rotated
    to the center's angle, where every term is O(window) so float64 keeps the
    absolute error near sqrt(n) * 2^-52.  Membership within a shell of the
    boundary, at least twice that bound wide, is settled by interval
    arithmetic; everything else is decided by the float distances outright.
    """
    if len(cand) == 0:
        return cand, np.empty((0, 2)), np.empty(0)
    tc, _ = angle_fraction(alpha, n_center, prec)
    with mp.workprec(prec):
        ex = float(mp.cos(2 * mp.pi * tc))
        ey = float(mp.sin(2 * mp.pi * tc))
    rc = math.sqrt(float(n_center))
    rn = np.sqrt(cand.astype(np.float64))
    ang = 2.0 * np.pi * turns
    dxr = rn * np.cos(ang) - rc
    dyr = rn * np.sin(ang)
    dist = np.hypot(dxr, dyr)
    # trig and product rounding, all O(rn)
    err = max(rn.max(), 64.0) * 2.0**-48
    shell = max(1e-7, 2.0 * err)
    inside = dist <= radius - shell
    boundary = np.abs(dist - radius) < shell
    if boundary.any():
        cx_iv, cy_iv = _position_iv(alpha, n_center, prec)
        extra, _, _ = _certify_members(
            alpha, cand[boundary], cx_iv, cy_iv, radius, prec
        )
        inside |= np.isin(cand, extra)
    kept = cand[inside]
    dx = dxr[inside] * ex - dyr[inside] * ey
    dy = dxr[inside] * ey + dyr[inside] * ex
    # the recentered center itself is exactly the origin
    at_center = kept == n_center
    dx[at_center] = 0.0
    dy[at_center] = 0.0
    return kept, np.column_stack([dx, dy]), np.full(len(kept), err)


def _iv_abs_square(v):
    """Interval of v^2; plain interval multiplication can dip below zero."""
    s = v * v
    lo, hi = mp.mpf(s.a), mp.mpf(s.b)
    zero = mp.mpf(0)
    return iv.mpf([max(lo, zero), max(hi, zero)])


def _certify_members(alpha: AngleSpec, candidates, cx_iv, cy_iv, radius: float, prec: int):
    """Interval re-check of candidates; returns kept indices and offsets."""
    old = iv.prec
    iv.prec = prec
    try:
        r_iv = iv.mpf(mp.mpf(radius))
        kept, xs, ys, errs = [], [], [], []
        for m in candidates.tolist():
            xi, yi = _position_iv(alpha, m, prec)
            dx = xi - cx_iv
            dy = yi - cy_iv
            dist = iv.sqrt(_iv_abs_square(dx) + _iv_abs_square(dy))
            if dist.a > r_iv.b:
                continue
            if not dist.b <= r_iv.a:
                raise PrecisionExhausted(
                    f"membership of n={m} undecidable at radius {radius}"
                )
            x = float(mp.mpf(dx.a) + mp.mpf(dx.b)) / 2
            y = float(mp.mpf(dy.a) + mp.mpf(dy.b)) / 2
            err = float(mp.mpf(dx.delta) + mp.mpf(dy.delta)) / 2 + (abs(x) + abs(y)) * 2.0**-52
            kept.append(m)
            xs.append(x)
            ys.append(y)
            errs.append(err)
        return (
            np.asarray(kept, dtype=np.int64),
            np.column_stack([xs, ys]) if kept else np.empty((0, 2)),
            np.asarray(errs),
        )
    finally:
        iv.prec = old


def indices_in_ball(alpha: AngleSpec, center, radius: float, *,
                    n_min: int = 1) -> IndexWindow:
    """Exactly the indices n >= n_min with |x_n - center| <= radius."""
    if radius <= 0:
        raise InvalidSpec("radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    rc = math.hypot(cx, cy)
    if cx == 0.0 and cy == 0.0:
        # |x_n| = sqrt(n) exactly, so membership is the integer test n <= r^2
        n_hi_exact = math.floor(Fraction(radius) ** 2)
        if n_hi_exact - n_min > _MAX_WINDOW_POINTS:
            raise WindowTooLarge(
                f"ball holds ~{n_hi_exact - n_min} indices (> {_MAX_WINDOW_POINTS})"
            )
        idx = np.arange(n_min, n_hi_exact + 1, dtype=np.int64)
        return IndexWindow(center=(0.0, 0.0), radius=radius, indices=idx, n_min=n_min)
    # reference index n0 near |c|^2; the center sits delta0 turns past x_{n0}
    n0 = round(cx * cx + cy * cy)
    ref = spiral_point(alpha, n0)
    delta0 = ((math.atan2(cy, cx) - math.atan2(ref.y, ref.x)) / (2 * math.pi) + 0.5) % 1 - 0.5
    cand, _, _ = _candidates(alpha, n0, rc, delta0, radius, n_min)
    prec = _window_prec(rc, radius)
    old = iv.prec
    iv.prec = prec
    try:
        cx_iv, cy_iv = iv.mpf(cx), iv.mpf(cy)
    finally:
        iv.prec = old
    kept, _, _ = _certify_members(alpha, cand, cx_iv, cy_iv, radius, prec)
    return IndexWindow(center=(cx, cy), radius=radius, indices=kept, n_min=n_min)


def recentered_window(alpha: AngleSpec, n_center: int, radius: float, *,
                      n_min: int = 1, method: str = "interval"):
    """Complete window around x_{n_center}, recentered there.

    Returns (IndexWindow, offsets, per-point error bounds); offsets are
    x_m - x_{n_center} as float64 rows, certified to the returned bounds.
    ``method`` picks per-point interval certification ("interval") or the
    vectorized float path with an analytic bound ("fast", for dense windows).
    """
    if radius <= 0:
        raise InvalidSpec("radius must be positive")
    if n_center < n_min:
        raise InvalidSpec("center index below n_min")
    rc = math.sqrt(float(n_center))
    cand, turns, _ = _candidates(alpha, n_center, rc, 0.0, radius, n_min)
    prec = _window_prec(rc, radius)
    if method == "fast":
        kept, offsets, errs = _fast_offsets(alpha, cand, turns, n_center, radius, prec)
    else:
        cx_iv, cy_iv = _position_iv(alpha, n_center, prec)
        kept, offsets, errs = _certify_members(alpha, cand, cx_iv, cy_iv, radius, prec)
    center = spiral_point(alpha, n_center, prec)
    win = IndexWindow(center=(center.x, center.y), radius=radius, indices=kept, n_min=n_min)
    return win, offsets, errs


def offset_between(alpha: AngleSpec, m: int, n: int, prec: int | None = None):
    """x_m - x_n as float64 with a certified error bound."""
    working = prec if prec is not None else default_prec(max(m, n))
    xm, ym = _position_iv(alpha, m, working)
    xn, yn = _position_iv(alpha, n, working)
    dx, dy = xm - xn, ym - yn
    x = float(mp.mpf(dx.a) + mp.mpf(dx.b)) / 2
    y = float(mp.mpf(dy.a) + mp.mpf(dy.b)) / 2
    err = float(mp.mpf(dx.delta) + mp.mpf(dy.delta)) / 2 + (abs(x) + abs(y)) * 2.0**-52
    return x, y, err


# ---------------------------------------------------------------------------
# nearest neighbours
# ---------------------------------------------------------------------------

def nearest_neighbor(alpha: AngleSpec, n: int, *, n_min: int = 1):
    """Nearest neighbour of x_n: a radius query on the window enumerator.

    Returns (m, distance) minimizing |x_m - x_n| over m != n, m >= n_min;
    ties break toward smaller m.  The query radius is the distance to
    x_{n-q} for the largest convergent denominator q <= sqrt(n), an upper
    bound that keeps every possible competitor.
    """
    if n < max(2, n_min + 1):
        raise InvalidSpec("need an index with at least one smaller-index competitor")
    q = largest_denominator_at_most(alpha, max(1, math.isqrt(n))).q
    if n - q < n_min:
        q = 1
    p0 = spiral_point(alpha, n)
    p1 = spiral_point(alpha, n - q)
    r0 = math.hypot(p0.x - p1.x, p0.y - p1.y) * (1 + 1e-12) + 1e-9
    rc = math.sqrt(float(n))
    ms, _, d2 = _candidates(alpha, n, rc, 0.0, r0, n_min)
    d2[ms == n] = np.inf
    best = int(np.argmin(d2))
    best_d = math.sqrt(float(d2[best]))
    # competitors within float noise of the minimum; settle exactly
    near = ms[d2 <= (best_d + 2e-9) ** 2]
    if len(near) > 1:
        prec = _window_prec(rc, r0)
        x0, y0 = _position_iv(alpha, n, prec)
        old = iv.prec
        iv.prec = prec
        dists = []
        try:
            for m in near.tolist():
                xi, yi = _position_iv(alpha, m, prec)
                dx, dy = xi - x0, yi - y0
                dist = iv.sqrt(_iv_abs_square(dx) + _iv_abs_square(dy))
                dists.append((mp.mpf(dist.a), m))
        finally:
            iv.prec = old
        dists.sort(key=lambda t: (t[0], t[1]))
        return int(dists[0][1]), float(dists[0][0])
    return int(ms[best]), best_d
