"""From-scratch continued-fraction oracle for the differential tests of the
package's per-angle expansion tables.

Every call recomputes the expansion from the angle alone, with the
recurrences the package used before it kept one table per angle: a
rational's Euclidean algorithm, a quadratic's integer (P, Q) recurrence run
past its first repeated state, and a literal's interval expansion that
raises PrecisionExhausted at the first quotient the literal cannot certify.
Class limits are the triplet evaluated in interval arithmetic at a deep
index of the class, with the depth-to-depth drift added to the error.
Nothing is cached, so interleaved requests cannot see each other, and the
oracle takes no arithmetic from the package it checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import iv, mp

from spirallimits.errors import InvalidSpec, PrecisionExhausted
from spirallimits.number_theory import Convergent, QuadraticAngle, RationalAngle


def _quad_cf_state(alpha: QuadraticAngle):
    """Initial (P, D, Q) with Q | D - P^2 so the integer recurrence is exact."""
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    if b > 0:
        P, Q, D = a, c, b * b * d
    else:
        P, Q, D = -a, -c, b * b * d
    if (D - P * P) % Q != 0:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    return P, D, Q


def _quad_floor(e: int, f: int, g: int, d: int) -> int:
    """Exact floor of (e + f*sqrt(d)) / g for g > 0 (sqrt(d) irrational)."""
    if f == 0:
        return e // g
    s = math.isqrt(f * f * d)
    return (e + s if f > 0 else e - s - 1) // g


def _expand_rational(num: int, den: int) -> list:
    out = []
    while den:
        a, rem = divmod(num, den)
        out.append(a)
        num, den = den, rem
    return out


def quad_expansion(alpha: QuadraticAngle, min_count: int):
    """(quotients, preperiod, period), with at least ``min_count`` quotients."""
    P, D, Q = _quad_cf_state(alpha)
    quotients = []
    seen = {}
    preperiod = period = None
    while True:
        key = (P, Q)
        if key in seen and preperiod is None:
            preperiod = seen[key]
            period = len(quotients) - preperiod
            if len(quotients) >= min_count:
                break
        seen.setdefault(key, len(quotients))
        if Q > 0:
            a = _quad_floor(P, 1, Q, D)
        else:
            a = _quad_floor(-P, -1, -Q, D)
        quotients.append(a)
        P1 = a * Q - P
        Q1 = (D - P1 * P1) // Q
        P, Q = P1, Q1
        if preperiod is not None and len(quotients) >= min_count:
            break
    return quotients, preperiod, period


def _expand_decimal(alpha, count: int) -> list:
    lo, hi = alpha.bounds_fraction()
    out = []
    for j in range(count):
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo != fhi:
            raise PrecisionExhausted(
                f"literal too coarse to certify partial quotient a_{j + 1}"
            )
        out.append(flo)
        if j == count - 1:
            break
        lo, hi = lo - flo, hi - flo
        if lo <= 0:
            raise PrecisionExhausted(
                f"literal too coarse to certify partial quotient a_{j + 2}"
            )
        lo, hi = 1 / hi, 1 / lo
    return out


def expand_cf(alpha, count: int) -> list:
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    if isinstance(alpha, RationalAngle):
        return _expand_rational(alpha.num, alpha.den)[:count]
    if isinstance(alpha, QuadraticAngle):
        quotients, preperiod, period = quad_expansion(alpha, count)
        return [
            quotients[j] if j < len(quotients)
            else quotients[preperiod + (j - preperiod) % period]
            for j in range(count)
        ]
    return _expand_decimal(alpha, count)


def convergents(alpha, count: int) -> list:
    out = []
    p_prev, q_prev = 1, 0
    p, q = None, None
    for j, a in enumerate(expand_cf(alpha, count), start=1):
        if j == 1:
            p, q = a, 1
        else:
            p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
        out.append(Convergent(j=j, p=p, q=q))
    return out


def convergents_past(alpha, n: int) -> list:
    """Convergents through the first with q > n, one more quotient per try."""
    count = 1
    while True:
        convs = convergents(alpha, count)
        if convs[-1].q > n or len(convs) < count:
            return convs
        count += 1


def largest_denominator_at_most(alpha, n: int) -> Convergent:
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    return max((c for c in convergents_past(alpha, n) if c.q <= n), key=lambda c: c.j)


class OracleLimit(NamedTuple):
    class_index: int
    modulus: int
    beta: object
    c: object
    ctilde: object
    err: float


def triplet(alpha: QuadraticAngle, j: int):
    """(q_{j+1}/q_j, q_j(q_j a - p_j), q_{j+1}(q_{j+1} a - p_{j+1})) as mpf
    midpoints of interval enclosures, and the largest half-width."""
    cj, cj1 = convergents(alpha, j + 1)[j - 1:]
    old = iv.prec
    iv.prec = 2 * cj1.q.bit_length() + 96
    try:
        a = (iv.mpf(alpha.a) + iv.mpf(alpha.b) * iv.sqrt(alpha.d)) / iv.mpf(alpha.c)
        ivs = (iv.mpf(cj1.q) / cj.q, cj.q * (cj.q * a - cj.p), cj1.q * (cj1.q * a - cj1.p))
        with mp.workprec(iv.prec + 16):
            mids = [(mp.mpf(x.a) + mp.mpf(x.b)) / 2 for x in ivs]
        return mids, max(float(mp.mpf(x.delta) / 2) for x in ivs)
    finally:
        iv.prec = old


def class_triplet_limit(alpha: QuadraticAngle, j: int, depth: int = 160) -> OracleLimit:
    """The class limit evaluated afresh at a deep index of j's class."""
    _, preperiod, period = quad_expansion(alpha, 1)
    modulus = math.lcm(period, 2)
    big = max(depth, preperiod + 4 * modulus + 8)
    big += (j - big) % modulus
    t1, _ = triplet(alpha, big)
    t2, err = triplet(alpha, big + 2 * modulus)
    drift = max(abs(float(x - y)) for x, y in zip(t1, t2))
    return OracleLimit(j % modulus, modulus, *t2, err + 2.0 * drift)
