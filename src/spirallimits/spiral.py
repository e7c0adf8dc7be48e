"""Fermat spiral points sqrt(n) * e^(2*pi*i*alpha*n) at arbitrary index.

Positions are produced with certified error bounds.  Window candidates come
from the convergent data of alpha: writing m = n + k and delta = k*alpha - p,
a point x_m in B_W(x_n) forces |k| <= 2W sqrt(n) + W^2 and
|delta| <= W / (4 (sqrt(n) - W)).  These are the points of the unimodular
lattice {(k, k*alpha - p)} in a box of area about 2W^2, listed from a
Gauss-reduced convergent basis in time independent of n.

In the frame rotated to the center's angle the offset x_m - x_n is
(k / (sqrt(m) + sqrt(n)) - 2 sqrt(m) sin^2(pi delta), sqrt(m) sin(2 pi delta)),
where every term is O(W), so float64 evaluates it to O(W 2^-52) at any n.
A window carries one derived error bound for all its offsets; points decided
by more than that bound are certified in float64 and only the points within
it of the boundary go to interval arithmetic, which raises
PrecisionExhausted rather than guessing.  Windows are therefore complete,
and nearest neighbours are a radius query on the same enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import iv, mp

from .errors import InvalidSpec, PrecisionExhausted, WindowTooLarge
from .lattice2d import Basis2, gauss_reduce
from .number_theory import AngleSpec, _expansion, _iv_prec, _midpoints, largest_denominator_at_most

PREC_PAD = 96  # default evaluation bits beyond bits(n)
_FILTER_SLACK = 1e-6  # box margin past the radius, so the box bounds' rounding drops no member
_MAX_WINDOW_POINTS = 4_000_000  # output budget: lattice points a window box may enumerate
_U = 2.0**-53  # unit roundoff of float64
_LIBM_ULPS = 8  # allowed error of numpy sin and cos, checked by the differential test
_INDEX_LIMIT = 2**63  # window indices are int64


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
    (val,), err = _midpoints([alpha.frac(n).interval(working)], working)
    if err > 2.0**-64:
        raise PrecisionExhausted(f"frac(alpha*{n}) certified only to {err:.3e}")
    with mp.workprec(working + 16):
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


def _position_iv(alpha: AngleSpec, n: int, prec: int):
    """Interval x_n = (x, y) at working precision ``prec``, and the enclosures
    (theta, cos, sin) of frac(alpha * n) and of its angle's cosine and sine."""
    with _iv_prec(prec):
        theta = alpha.frac(n).interval(prec)
        ang = 2 * iv.pi * theta
        r = iv.sqrt(iv.mpf(n))
        cos, sin = iv.cos(ang), iv.sin(ang)
        return r * cos, r * sin, (theta, cos, sin)


def _mid(v) -> float:
    """Float64 midpoint of an interval."""
    return float(mp.mpf(v.a) + mp.mpf(v.b)) / 2


def spiral_point(alpha: AngleSpec, n: int, prec: int | None = None) -> SpiralPoint:
    """x_n = sqrt(n) e^(2 pi i alpha n), exported as float64 with error bound."""
    if n < 0:
        raise InvalidSpec("index must be nonnegative")
    working = prec if prec is not None else default_prec(n)
    xi, yi, _ = _position_iv(alpha, n, working)
    x, y = _mid(xi), _mid(yi)
    # interval width plus float64 quantization of the exported coordinates
    err = float(mp.mpf(xi.delta) + mp.mpf(yi.delta)) / 2
    quant = max(abs(x), abs(y)) * 2.0**-52
    return SpiralPoint(n=n, x=x, y=y, error_bound=err + quant)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass
class IndexWindow:
    """All spiral indices whose points lie in a closed ball about a spiral point."""

    center: tuple
    indices: np.ndarray

    def __len__(self):
        return len(self.indices)


def _convergent_pair(alpha: AngleSpec, k_max: int):
    """Consecutive convergents (p, q), (p', q') with q <= k_max < q'.

    Any consecutive pair is a basis of the lattice {(k, k*alpha - p)}.  The
    convergent 1/0 heads the list so integer angles have a pair too, and a
    rational whose expansion ends at or below k_max gets its final pair.
    """
    seq = [(1, 0)] + [(c.p, c.q) for c in _expansion(alpha).past(k_max)]
    return seq[-2], seq[-1]


def _lattice_box(alpha: AngleSpec, k_max: int, half_turns: float):
    """Lattice points (k, delta = k*alpha - p), |k| <= k_max, |delta| <= half_turns.

    Returns k (exact int64), delta (float64) and a bound on the
    error of those floats.  The convergent basis is scaled so the box is a
    square and Gauss-reduced there; a Cramer bound limits the rows along the
    shorter vector and each row is cut to the box, so the work is the output
    plus O(W) rows whatever k_max is.  k and p come from the integer
    transform; delta from the two basis residues, each evaluated once at high
    precision, with coefficients no larger than the box needs.  A decimal
    literal walks the lattice of its midpoint, with the box widened by its
    half-ulp times k_max; the error bound carries the same width.
    """
    alpha, half_width = alpha.midpoint()
    # rounded up past the float conversion of the exact half-ulp product
    literal = float(k_max * half_width) * (1 + 4 * _U)
    half_turns += literal
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
    # (x, y) = i*(k1, r1) + j*(k2, r2) has i = +-(x*r2 - y*k2), j = +-(k1*y - x*r1),
    # as k1*r2 - k2*r1 = k2*p1 - k1*p2 = +-1; count (i, j) from the box center (0, 0)
    bj = math.ceil(k_max * abs(r1) + half_turns * abs(k1)) + 1
    j = np.arange(-bj, bj + 1, dtype=np.int64)
    lo, hi = np.full(len(j), -np.inf), np.full(len(j), np.inf)
    for start, step, half in ((j * k2, k1, k_max), (j * r2, r1, half_turns)):
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
    # r1 and r2 are rounded once from values exact far past float64
    # (<= 2u relative each, u = 2^-53); the products i*r1, j*r2 and the
    # sum below add 3u relative to the magnitudes summed; 8u covers both.
    i_max = np.maximum(np.abs(i_lo), np.abs(i_lo + counts - 1))[ok].max(initial=0)
    j_max = np.abs(j[ok]).max(initial=0)
    gap_err = 8 * _U * (float(i_max) * abs(r1) + float(j_max) * abs(r2)) + literal
    first = np.cumsum(counts) - counts
    i = np.arange(total, dtype=np.int64) - np.repeat(first - i_lo, counts)
    j = np.repeat(j, counts)
    k = i * k1 + j * k2
    # + 0.0 turns a -0.0 gap into 0.0, so no offset on the center's ray is -0.0
    gap = i * r1 + j * r2 + 0.0
    keep = (np.abs(k) <= k_max) & (np.abs(gap) <= half_turns)
    return k[keep], gap[keep], gap_err


def _candidates(alpha: AngleSpec, n0: int, radius: float, n_min: int):
    """Box points m >= n_min around x_{n0}, with offsets and their error.

    Since |x_m| = sqrt(m) and sin(pi t) >= 2t on [0, 1/2], membership forces
    |m - n0| <= w(2 rc + w) + 1 and an angle gap of at most w / (4 (rc - w))
    turns, rc = sqrt(n0).  Returns m (unsorted; a half-turn box can list an
    index twice), the offsets x_m - x_{n0} in the frame rotated to the
    center's angle, their length, and a bound on the Euclidean error of the
    offsets and of that length where it is within one of the radius.  Raises
    InvalidSpec when the box reaches index 2^63.
    """
    rc = math.sqrt(n0)
    w = radius + _FILTER_SLACK
    k_max = math.ceil(w * (2 * rc + w)) + 1
    if n0 + k_max >= _INDEX_LIMIT:
        raise InvalidSpec(
            f"window of radius {radius:g} about n={n0} reaches index {n0 + k_max}, "
            f"past the int64 limit 2^63"
        )
    half_turns = min(0.5, w / (4 * (rc - w))) if rc > w else 0.5
    k, turns, gap_err = _lattice_box(alpha, k_max, half_turns)
    m = k + n0
    ok = m >= max(n_min, 0)
    if not ok.all():
        k, m, turns = k[ok], m[ok], turns[ok]
    rn = np.sqrt(m.astype(np.float64))
    s = np.sin(np.pi * turns)
    # sqrt(m) - rc = k / (sqrt(m) + rc) without cancellation
    denom = rn + rc
    if rc == 0.0:
        denom[m == 0] = 1.0  # x_0 is the center: 0 / 1
    dx = k / denom - 2.0 * rn * s * s
    dy = rn * np.sin(2.0 * np.pi * turns)
    dist = np.sqrt(dx * dx + dy * dy)
    # Magnitudes over the box: sqrt(m) <= r_hi, |turns| <= t_hi, |sqrt(m) - rc| <= a_hi.
    r_hi = math.sqrt(n0 + k_max + 1)
    t_hi = half_turns + gap_err
    a_hi = max(r_hi - rc, rc - math.sqrt(max(n0 - k_max - 1, 0))) + 1.0
    sin2_hi = 2 * r_hi * math.sin(math.pi * min(0.5, t_hi)) ** 2  # bounds 2 sqrt(m) s^2
    sin_hi = r_hi * min(1.0, 2 * math.pi * t_hi)  # bounds |dy|
    # Rounding, with u = 2^-53 and L ulps for sin: the cast and sqrt of m
    # (2u), k exact below 2^53; dx's first term <= 5u relative and the
    # subtraction u; s is sin of pi*turns rounded twice, <= (pi + 2L)u
    # relative since |sin(pi t)| >= 2|t|, so 2 sqrt(m) s^2 is within
    # (2 pi + 4L + 4)u relative; dy's argument is off by <= 4 pi u |turns|,
    # sin adds L ulps and sqrt and product 3u; the length 2u at the radius.  An
    # error e in turns moves x_m by at most 2 pi sqrt(m) e.
    rounding = _U * (
        6 * a_hi
        + (2 * math.pi + 4 * _LIBM_ULPS + 5) * sin2_hi
        + 4 * math.pi * r_hi * t_hi
        + (2 * _LIBM_ULPS + 3) * sin_hi
        + 2 * (radius + 1.0)
    )
    err = 2 * math.pi * r_hi * gap_err + rounding
    return m, dx, dy, dist, err


def _window_prec(rc: float, radius: float) -> int:
    """Working precision for the largest index a window at modulus rc reaches."""
    return default_prec(math.ceil((rc + radius) ** 2) + 1)


def _iv_abs_square(v):
    """Interval of v^2; plain interval multiplication can dip below zero.

    The endpoints stay intervals: converting them to mp.mpf would round them
    to nearest at mp's precision and could drop the true value.
    """
    s = v * v
    return s if s.a >= 0 else iv.mpf([0, s.b])


def _iv_distances(alpha: AngleSpec, ms, cx_iv, cy_iv, prec: int):
    """Interval distances |x_m - (cx_iv, cy_iv)| for each index m in ms."""
    with _iv_prec(prec):
        dists = []
        for m in ms:
            xi, yi, _ = _position_iv(alpha, m, prec)
            dists.append(iv.sqrt(_iv_abs_square(xi - cx_iv) + _iv_abs_square(yi - cy_iv)))
        return dists


def recentered_window(alpha: AngleSpec, n_center: int, radius: float, *,
                      n_min: int = 1):
    """Complete window around x_{n_center}, recentered there.

    Returns (IndexWindow, offsets, errs): offsets are x_m - x_{n_center} as
    float64 rows, sorted by m, and errs bounds the Euclidean error of each
    row; it is one value for the whole window.  Offsets are evaluated in
    float64 in the frame rotated to the center (see ``_candidates``) and
    turned by the midpoints of the cosine and sine enclosures of the center's
    angle; an enclosure of frac(n_center * alpha) of half-width h makes that
    turn off by at most 2 pi h |offset|.  The same one interval evaluation of
    the center gives ``IndexWindow.center`` and the boundary check's center.
    Points farther than the bound from the radius are decided by their float
    distance; the rest are settled by interval arithmetic, which raises
    PrecisionExhausted when it cannot decide.  The mpmath work is a fixed
    number of evaluations per window plus one per such boundary point.
    """
    if radius <= 0:
        raise InvalidSpec("radius must be positive")
    if n_center < n_min:
        raise InvalidSpec("center index below n_min")
    prec = _window_prec(math.sqrt(float(n_center)), radius)
    m, dx, dy, dist, err = _candidates(alpha, n_center, radius, n_min)
    cx_iv, cy_iv, (theta, cos, sin) = _position_iv(alpha, n_center, prec)
    with mp.workprec(prec):
        ex, ey = (float((mp.mpf(v.a) + mp.mpf(v.b)) / 2) for v in (cos, sin))
        half_width = float(mp.mpf(theta.b) - mp.mpf(theta.a)) / 2
    # The center's angle lies within w = 2 pi h of its enclosure's middle, and
    # (ex, ey), the midpoints of the cos and sin enclosures over that arc, lies
    # within sin(w) <= 2 pi h (plus outward rounding near 2^-prec) of its
    # (cos, sin); kept offsets are no longer than the radius plus the error
    # before turning, and rounding of (ex, ey) and of the rotation stays in 8u.
    err += (radius + err) * (2 * math.pi * half_width + 8 * _U)
    keep = np.flatnonzero(dist <= radius + err)
    m, first = np.unique(m[keep], return_index=True)
    keep = keep[first]
    dx, dy = dx[keep], dy[keep]
    shell = np.flatnonzero(dist[keep] > radius - err)
    if len(shell):
        ms, r_iv = m[shell].tolist(), iv.mpf(radius)
        outside = []
        for mi, d in zip(ms, _iv_distances(alpha, ms, cx_iv, cy_iv, prec)):
            if not (d.a > r_iv.b or d.b <= r_iv.a):
                raise PrecisionExhausted(f"membership of n={mi} undecidable at radius {radius}")
            outside.append(d.a > r_iv.b)
        out = shell[np.asarray(outside, dtype=bool)]
        m, dx, dy = np.delete(m, out), np.delete(dx, out), np.delete(dy, out)
    offsets = np.column_stack([dx * ex - dy * ey, dx * ey + dy * ex])
    # the recentered center itself is exactly the origin, not -0.0
    offsets[m == n_center] = 0.0
    center = (_mid(cx_iv), _mid(cy_iv))  # as spiral_point(alpha, n_center, prec) exports it
    win = IndexWindow(center=center, indices=m)
    return win, offsets, np.full(len(m), err)


def offset_between(alpha: AngleSpec, m: int, n: int, prec: int | None = None):
    """x_m - x_n as float64 with a certified error bound."""
    working = prec if prec is not None else default_prec(max(m, n))
    xm, ym, _ = _position_iv(alpha, m, working)
    xn, yn, _ = _position_iv(alpha, n, working)
    dx, dy = xm - xn, ym - yn
    x, y = _mid(dx), _mid(dy)
    err = float(mp.mpf(dx.delta) + mp.mpf(dy.delta)) / 2 + (abs(x) + abs(y)) * 2.0**-52
    return x, y, err


# ---------------------------------------------------------------------------
# nearest neighbours
# ---------------------------------------------------------------------------

def nearest_neighbor(alpha: AngleSpec, n: int):
    """Nearest neighbour of x_n: a radius query on the window enumerator.

    Returns (m, distance) minimizing |x_m - x_n| over m != n, m >= 1;
    ties break toward smaller m.  The query radius is the distance to
    x_{n-q} for the largest convergent denominator q <= sqrt(n), an upper
    bound that keeps every possible competitor.  Raises PrecisionExhausted
    when the window's error bound exceeds 1e-9 (a decimal literal too coarse
    for n).
    """
    if n < 2:
        raise InvalidSpec("need an index with at least one smaller-index competitor")
    q = largest_denominator_at_most(alpha, math.isqrt(n)).q
    p0 = spiral_point(alpha, n)
    p1 = spiral_point(alpha, n - q)
    r0 = math.hypot(p0.x - p1.x, p0.y - p1.y) * (1 + 1e-12) + 1e-9
    ms, _, _, dist, err = _candidates(alpha, n, r0, 1)
    # float distances within err of the truth keep every competitor of the
    # winner inside the 2e-9 tie band below; a coarse literal's err does not
    if err > 1e-9:
        raise PrecisionExhausted(
            f"nearest neighbour of n={n}: distances certified only to {err:.3g} (> 1e-9)"
        )
    dist[ms == n] = np.inf
    best = int(np.argmin(dist))
    best_d = float(dist[best])
    # competitors within float noise of the minimum; settle exactly
    near = ms[dist <= best_d + 2e-9]
    if len(near) > 1:
        prec = _window_prec(math.sqrt(float(n)), r0)
        x0, y0, _ = _position_iv(alpha, n, prec)
        near = near.tolist()
        d, m = min(zip((mp.mpf(d.a) for d in _iv_distances(alpha, near, x0, y0, prec)), near))
        return int(m), float(d)
    return int(ms[best]), best_d
