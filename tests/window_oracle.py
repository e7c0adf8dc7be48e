"""Brute-force window oracle for the differential tests of spiral windows.

It scans every index m of the annulus sqrt(m) in [sqrt(n) - W, sqrt(n) + W]
around x_n and keeps those with |x_m - x_n| <= W.  Nothing is shared with the
package's window code: the angle gap k*alpha mod 1 (k = m - n) comes from an
exact integer head of alpha plus a float tail, and indices within
BOUNDARY_SLACK of the boundary are settled from exact rational angles at
SETTLE_BITS bits with mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

HEAD_BITS = 32
BOUNDARY_SLACK = 1e-7
SETTLE_BITS = 256


def alpha_fraction(spec: str) -> Fraction:
    """alpha of an angle spec: exact for rat:, the literal's midpoint for
    dec:, and floor(alpha * 2^SETTLE_BITS) / 2^SETTLE_BITS for quad:."""
    kind, body = spec.split(":", 1)
    if kind == "rat":
        p, q = body.split("/")
        return Fraction(int(p), int(q))
    if kind == "dec":
        return Fraction(body.split("@")[0])
    a, b, c, d = (int(x) for x in body.split(","))
    one = 1 << SETTLE_BITS
    return Fraction(a * one + b * math.isqrt(d * one * one), c * one)


def _settled_excess(alpha: Fraction, m: int, n: int, radius: float) -> float:
    """|x_m - x_n| - radius at SETTLE_BITS bits; 0.0 when within 1e-40."""
    turns = (alpha * (m - n)) % 1
    with mp.workprec(SETTLE_BITS):
        t = mp.mpf(turns.numerator) / turns.denominator
        rm, rn = mp.sqrt(m), mp.sqrt(n)
        excess = mp.sqrt((rm - rn) ** 2 + 4 * rm * rn * mp.sin(mp.pi * t) ** 2) - radius
        return 0.0 if abs(excess) < mp.mpf(10) ** -40 else float(excess)


def window_indices(alpha: Fraction, n: int, radius: float, n_min: int = 1):
    """(indices, undecided) of every m >= n_min with |x_m - x_n| <= radius.

    ``undecided`` lists indices within 1e-40 of the boundary even at
    SETTLE_BITS bits, where no certified answer can be expected.
    """
    rc = math.sqrt(n)
    m_lo = max(n_min, math.floor(max(rc - radius, 0.0) ** 2) - 2)
    m_hi = math.ceil((rc + radius) ** 2) + 2
    k = np.arange(m_lo - n, m_hi - n + 1, dtype=np.int64)
    scaled = alpha * (1 << HEAD_BITS)
    head = math.floor(scaled)
    tail = float(scaled - head) / (1 << HEAD_BITS)
    head %= 1 << HEAD_BITS
    turns = ((k * head) % (1 << HEAD_BITS)) / float(1 << HEAD_BITS) + k * tail
    rm = np.sqrt((k + n).astype(np.float64))
    # sqrt(m) - sqrt(n), which is 0 at m = n = 0
    gap = np.divide(k, rm + rc, out=np.zeros(len(k)), where=k != 0)
    d = np.sqrt(gap**2 + 4.0 * rm * rc * np.sin(np.pi * turns) ** 2)
    kept = set((k[d <= radius - BOUNDARY_SLACK] + n).tolist())
    undecided = []
    for m in (k[np.abs(d - radius) < BOUNDARY_SLACK] + n).tolist():
        excess = _settled_excess(alpha, m, n, radius)
        if excess == 0.0:
            undecided.append(m)
        elif excess < 0.0:
            kept.add(m)
    return sorted(kept), undecided
