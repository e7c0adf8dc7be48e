"""Brute-force window oracle, independent of the package's window code.

The index set of a window B_W(x_n) is found by scanning every index of the
annulus sqrt(m) in [sqrt(n) - W, sqrt(n) + W].  Angle differences come from
exact integer arithmetic on a 30-bit head of alpha plus a float tail (so no
double-double kernel is shared with the package); candidates within 1e-7 of
the boundary are settled with 256-bit mpmath arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

HEAD_BITS = 30
BOUNDARY_SLACK = 1e-7


def alpha_fraction(spec: str, bits: int = 256) -> Fraction:
    """alpha (or the midpoint of a decimal literal) to ``bits`` bits."""
    kind, body = spec.split(":", 1)
    if kind == "rat":
        p, q = body.split("/")
        return Fraction(int(p), int(q))
    if kind == "dec":
        return Fraction(body.split("@")[0])
    a, b, c, d = (int(x) for x in body.split(","))
    scale = 1 << bits
    root = math.isqrt(d * scale * scale)  # floor(sqrt(d) * 2^bits)
    return Fraction(a * scale + b * root, c * scale)


def _distance_mp(alpha: Fraction, m: int, n: int):
    with mp.workprec(256):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        turns = (a * (m - n)) % 1
        rm, rn = mp.sqrt(m), mp.sqrt(n)
        return mp.sqrt((rm - rn) ** 2 + 4 * rm * rn * mp.sin(mp.pi * turns) ** 2)


def window_indices(spec: str, n: int, radius: float):
    """(indices, undecided): every m >= 1 with |x_m - x_n| <= radius.

    ``undecided`` lists indices whose distance is within 1e-40 of the radius
    even at 256 bits; callers must not compare those.
    """
    alpha = alpha_fraction(spec)
    head = math.floor(alpha * (1 << HEAD_BITS)) % (1 << HEAD_BITS)
    tail = float(alpha * (1 << HEAD_BITS) - math.floor(alpha * (1 << HEAD_BITS)))
    tail /= 1 << HEAD_BITS
    rc = math.sqrt(n)
    m_lo = max(1, math.floor((max(rc - radius, 0.0)) ** 2) - 2)
    m_hi = math.ceil((rc + radius) ** 2) + 2
    k = np.arange(m_lo - n, m_hi - n + 1, dtype=np.int64)
    frac = ((k * head) % (1 << HEAD_BITS)).astype(np.float64) / (1 << HEAD_BITS)
    turns = (frac + k * tail) % 1.0
    turns = np.where(turns >= 0.5, turns - 1.0, turns)
    m = (k + n).astype(np.float64)
    rm = np.sqrt(m)
    radial = k / (rm + rc)
    d = np.sqrt(radial**2 + 4.0 * rm * rc * np.sin(np.pi * turns) ** 2)
    inside = d <= radius - BOUNDARY_SLACK
    near = np.abs(d - radius) < BOUNDARY_SLACK
    kept = set((k[inside] + n).tolist())
    undecided = []
    for mm in (k[near] + n).tolist():
        dist = _distance_mp(alpha, mm, n)
        if abs(dist - radius) < mp.mpf(10) ** -40:
            undecided.append(mm)
        elif dist < radius:
            kept.add(mm)
    return sorted(kept), undecided
