"""Exact and high-precision continued-fraction machinery.

Angle specifications come in three flavours: exact rationals, exact quadratic
irrationals (a + b*sqrt(d))/c, and decimal literals that carry an explicit
uncertainty of half a unit in the last digit.  Quadratic expansions run on an
exact integer recurrence so convergents never drift; every inexact evaluation
goes through outward-rounded interval arithmetic (mpmath.iv) and reports a
certified error bound.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

from .errors import InvalidSpec, PrecisionExhausted

MIN_LITERAL_BITS = 64


@contextmanager
def _iv_prec(prec: int):
    """Run the block at interval precision ``prec``; mpmath's iv has no workprec."""
    old = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = old


# ---------------------------------------------------------------------------
# angle specifications
# ---------------------------------------------------------------------------

class AngleSpec:
    """Base class for rotation-number descriptions."""

    def enclosure(self, prec: int) -> "AngleEnclosure":
        lo, hi = self._bounds(prec)
        width = hi - lo
        if width > mp.mpf(2) ** (-prec):
            raise PrecisionExhausted(
                f"cannot enclose {self.canonical()} to 2^-{prec}: width {width}"
            )
        return AngleEnclosure(lower=lo, upper=hi, width=width)

    def _bounds(self, prec: int):
        x = self.interval(prec)
        return mp.mpf(x.a), mp.mpf(x.b)

    def interval(self, prec: int):
        """Certified enclosure of the angle as an iv.mpf at the given precision."""
        with _iv_prec(prec):
            return self._interval(prec)

    def canonical(self) -> str:
        raise NotImplementedError

    @property
    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class RationalAngle(AngleSpec):
    """Exact rational angle num/den in lowest terms."""

    num: int
    den: int

    def __post_init__(self):
        if self.den == 0:
            raise InvalidSpec("rational angle needs a nonzero denominator")
        g = math.gcd(self.num, self.den)
        num, den = self.num // g, self.den // g
        if den < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def _interval(self, prec: int):
        return iv.mpf(self.num) / iv.mpf(self.den)

    def canonical(self) -> str:
        return f"rat:{self.num}/{self.den}"


@dataclass(frozen=True)
class QuadraticAngle(AngleSpec):
    """Exact quadratic irrational (a + b*sqrt(d))/c with d squarefree >= 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if b == 0:
            raise InvalidSpec("quadratic angle needs b != 0 (use rat: otherwise)")
        if c == 0:
            raise InvalidSpec("quadratic angle needs c != 0")
        if d < 2:
            raise InvalidSpec("quadratic angle needs d >= 2")
        if not _is_squarefree(d):
            raise InvalidSpec(f"d={d} is not squarefree")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "c", c // g)

    def _interval(self, prec: int):
        return (iv.mpf(self.a) + iv.mpf(self.b) * iv.sqrt(self.d)) / iv.mpf(self.c)

    def canonical(self) -> str:
        return f"quad:{self.a},{self.b},{self.c},{self.d}"


@dataclass(frozen=True)
class DecimalAngle(AngleSpec):
    """Decimal literal with half-ulp uncertainty in the last given digit.

    The literal stands for an otherwise unknown real in
    [value - u/2, value + u/2] where u is one unit in the last place, so all
    derived quantities carry that intrinsic width.  ``precision`` sets the
    working precision (bits) for evaluations that consume the literal.
    """

    digits: str
    precision: int = MIN_LITERAL_BITS

    def __post_init__(self):
        if self.precision < MIN_LITERAL_BITS:
            raise InvalidSpec(f"literal working precision must be >= {MIN_LITERAL_BITS} bits")
        try:
            self.as_fraction()
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"bad decimal literal {self.digits!r}") from exc

    def as_fraction(self) -> Fraction:
        text = self.digits.strip()
        sign = 1
        if text.startswith(("+", "-")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        if not text or text.count(".") > 1 or not text.replace(".", "").isdigit():
            raise ValueError(text)
        if "." in text:
            whole, frac = text.split(".")
        else:
            whole, frac = text, ""
        scale = 10 ** len(frac)
        return Fraction(sign * (int(whole or "0") * scale + int(frac or "0")), scale)

    def ulp(self) -> Fraction:
        frac_digits = len(self.digits.split(".")[1]) if "." in self.digits else 0
        return Fraction(1, 10**frac_digits)

    def bounds_fraction(self) -> tuple[Fraction, Fraction]:
        v, half = self.as_fraction(), self.ulp() / 2
        return v - half, v + half

    def _interval(self, prec: int):
        lo, hi = self.bounds_fraction()
        a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
        return iv.mpf([a.a, b.b])

    def canonical(self) -> str:
        return f"dec:{self.digits}@{self.precision}"

    @property
    def is_exact(self) -> bool:
        return False


@dataclass(frozen=True)
class AngleEnclosure:
    """Certified two-sided enclosure lower <= alpha <= upper."""

    lower: object
    upper: object
    width: object


def parse_angle(text: str) -> AngleSpec:
    """Parse the CLI grammar rat:p/q | quad:a,b,c,d | dec:<digits>[@bits]."""
    text = text.strip()
    if text.startswith("rat:"):
        body = text[4:]
        if "/" in body:
            p, q = body.split("/", 1)
        else:
            p, q = body, "1"
        return RationalAngle(int(p), int(q))
    if text.startswith("quad:"):
        parts = text[5:].split(",")
        if len(parts) != 4:
            raise InvalidSpec("quad spec needs four integers a,b,c,d")
        a, b, c, d = (int(x) for x in parts)
        return QuadraticAngle(a, b, c, d)
    if text.startswith("dec:"):
        body = text[4:]
        if "@" in body:
            digits, bits = body.rsplit("@", 1)
            return DecimalAngle(digits, int(bits))
        return DecimalAngle(body)
    raise InvalidSpec(f"unrecognized angle spec {text!r}")


def _is_squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# exact quadratic helpers: values (e + f*sqrt(d)) / g
# ---------------------------------------------------------------------------

def _quad_sign(e: int, f: int, d: int) -> int:
    """Exact sign of e + f*sqrt(d)."""
    if f == 0:
        return (e > 0) - (e < 0)
    if e == 0:
        return 1 if f > 0 else -1
    if e > 0 and f > 0:
        return 1
    if e < 0 and f < 0:
        return -1
    t = e * e - f * f * d
    if e > 0:  # f < 0: positive iff e^2 > f^2 d
        return (t > 0) - (t < 0)
    return (t < 0) - (t > 0)


def _quad_floor(e: int, f: int, g: int, d: int) -> int:
    """Exact floor of (e + f*sqrt(d)) / g for g > 0 (sqrt(d) irrational)."""
    if g <= 0:
        raise ValueError("g must be positive")
    if f == 0:
        return e // g
    s = math.isqrt(f * f * d)
    a = e + s if f > 0 else e - s - 1
    return a // g


def _quad_to_iv(e: int, f: int, g: int, d: int):
    return (iv.mpf(e) + iv.mpf(f) * iv.sqrt(d)) / iv.mpf(g)


# exact residue representations; tag distinguishes the arithmetic domain
def _residue_exact(alpha: AngleSpec, p: int, q: int):
    """Exact representation of q*alpha - p."""
    if isinstance(alpha, RationalAngle):
        return ("frac", Fraction(q * alpha.num - p * alpha.den, alpha.den))
    if isinstance(alpha, QuadraticAngle):
        return ("quad", q * alpha.a - p * alpha.c, q * alpha.b, alpha.c, alpha.d)
    lo, hi = alpha.bounds_fraction()
    return ("ivl", q * lo - p, q * hi - p)


def _scale(obj, k: int):
    tag = obj[0]
    if tag == "frac":
        return ("frac", obj[1] * k)
    if tag == "quad":
        _, e, f, g, d = obj
        return ("quad", e * k, f * k, g, d)
    _, lo, hi = obj
    return ("ivl", lo * k, hi * k) if k >= 0 else ("ivl", hi * k, lo * k)


def _sign_of(obj) -> int:
    tag = obj[0]
    if tag == "frac":
        v = obj[1]
        return (v > 0) - (v < 0)
    if tag == "quad":
        _, e, f, g, d = obj
        return _quad_sign(e, f, d)
    _, lo, hi = obj
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    raise PrecisionExhausted("sign of interval quantity straddles zero")


def _iv_of(obj, prec: int):
    with _iv_prec(prec):
        tag = obj[0]
        if tag == "frac":
            v = obj[1]
            return iv.mpf(v.numerator) / iv.mpf(v.denominator)
        if tag == "quad":
            _, e, f, g, d = obj
            return _quad_to_iv(e, f, g, d)
        _, lo, hi = obj
        a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
        return iv.mpf([a.a, b.b])


# ---------------------------------------------------------------------------
# continued fraction expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Convergent:
    """Continued-fraction convergent p/q (coprime), 1-based index."""

    j: int
    p: int
    q: int


@dataclass
class QuadExpansion:
    """Eventually periodic expansion of a quadratic irrational."""

    quotients: list
    preperiod: int
    period: int

    def quotient(self, j: int) -> int:
        """Partial quotient a_j (1-based) at any depth via periodicity."""
        if j <= len(self.quotients):
            return self.quotients[j - 1]
        k = (j - 1 - self.preperiod) % self.period
        return self.quotients[self.preperiod + k]


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


def _quad_expansion(alpha: QuadraticAngle) -> QuadExpansion:
    """Quotients up to the first repeated state (P, Q): the preperiod and one period."""
    P, D, Q = _quad_cf_state(alpha)
    quotients = []
    seen = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = _quad_floor(P, 1, Q, D) if Q > 0 else _quad_floor(-P, -1, -Q, D)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    preperiod = seen[(P, Q)]
    return QuadExpansion(quotients, preperiod, len(quotients) - preperiod)


def _interval_quotients(lo: Fraction, hi: Fraction):
    """Quotients shared by every real in [lo, hi]: a rational's (lo == hi) end with
    a zero remainder, a literal's raise at the first quotient it cannot certify."""
    for j in itertools.count(1):
        a = math.floor(lo)
        if a != math.floor(hi):
            raise PrecisionExhausted(f"literal too coarse to certify partial quotient a_{j}")
        yield a
        lo, hi = lo - a, hi - a
        if lo == hi == 0:
            return
        if lo <= 0:
            raise PrecisionExhausted(f"literal too coarse to certify partial quotient a_{j + 1}")
        lo, hi = 1 / hi, 1 / lo


class _Expansion:
    """Partial quotients and convergents of one angle, grown one quotient at a time.

    The table holds exactly the depth asked for so far.  When a literal's
    stream raises, the message is kept and raised again for every later
    request that needs that depth.  Callers get copies of the lists.
    """

    def __init__(self, alpha: AngleSpec):
        self.period = _quad_expansion(alpha) if isinstance(alpha, QuadraticAngle) else None
        if self.period is not None:
            self._stream = map(self.period.quotient, itertools.count(1))
        elif isinstance(alpha, DecimalAngle):
            self._stream = _interval_quotients(*alpha.bounds_fraction())
        else:
            self._stream = _interval_quotients(alpha.as_fraction(), alpha.as_fraction())
        self.quotients, self.convergents = [], []
        self._last = ((0, 1), (1, 0))  # (p, q) at j - 1 and j, starting from j = 0
        self._failure = None

    def _grow(self) -> bool:
        """Append the next quotient and convergent; False once the expansion has ended."""
        if self._failure is not None:
            raise PrecisionExhausted(self._failure)
        try:
            a = next(self._stream, None)
        except PrecisionExhausted as exc:
            self._failure = str(exc)
            raise
        if a is None:
            return False
        (p0, q0), (p1, q1) = self._last
        self._last = (p1, q1), (a * p1 + p0, a * q1 + q0)
        self.quotients.append(a)
        self.convergents.append(Convergent(len(self.quotients), *self._last[1]))
        return True

    def upto(self, count: int) -> "_Expansion":
        """Grow to ``count`` quotients, or to the end of the expansion."""
        while len(self.quotients) < count and self._grow():
            pass
        return self

    def past(self, n: int) -> list:
        """Convergents through the first with q > n; all of them if none has."""
        while (not self.convergents or self.convergents[-1].q <= n) and self._grow():
            pass
        return self.convergents[: bisect.bisect_right(self.convergents, n, key=lambda c: c.q) + 1]


@functools.lru_cache(maxsize=256)  # angles kept per process; the least recently used go
def _expansion(alpha: AngleSpec) -> _Expansion:
    """The process's expansion table of ``alpha``; specs are frozen and normalized."""
    return _Expansion(alpha)


def expand_cf(alpha: AngleSpec, count: int) -> list:
    """First ``count`` partial quotients; fewer if a rational expansion ends."""
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    return _expansion(alpha).upto(count).quotients[:count]


def cf_period(alpha: QuadraticAngle) -> QuadExpansion:
    """Expansion with detected preperiod/period for a quadratic irrational."""
    if not isinstance(alpha, QuadraticAngle):
        raise InvalidSpec("periodicity is only defined for quadratic irrationals")
    exp = _expansion(alpha).period
    return QuadExpansion(list(exp.quotients), exp.preperiod, exp.period)


def convergents(alpha: AngleSpec, count: int) -> list:
    """Convergents p_j/q_j, j = 1..count (shorter if the expansion ends)."""
    if count < 1:
        raise InvalidSpec("count must be >= 1")
    return _expansion(alpha).upto(count).convergents[:count]


def largest_denominator_at_most(alpha: AngleSpec, n: int) -> Convergent:
    """The convergent with the largest denominator q <= n."""
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    convs = _expansion(alpha).past(n)
    return convs[-1] if convs[-1].q <= n else convs[-2]


# ---------------------------------------------------------------------------
# triplets, identities, profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripletSample:
    """(q_{j+1}/q_j, q_j(q_j a - p_j), q_{j+1}(q_{j+1} a - p_{j+1})) at index j.

    Fields are arbitrary-precision reals (mpmath mpf); ``err`` bounds the
    distance of each field from its exact value.
    """

    j: int
    beta: object
    c: object
    ctilde: object
    err: float

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.beta), float(self.c), float(self.ctilde)


def _triplet_prec(alpha: AngleSpec, q_next: int, prec: int | None) -> int:
    # the 2*bits(q)+64 floor leaves no room for outward-rounding ulps; pad
    need = 2 * q_next.bit_length() + 96
    if prec is not None:
        need = max(need, prec)
    if isinstance(alpha, DecimalAngle):
        need = max(need, alpha.precision)
    return need


def triplet(alpha: AngleSpec, j: int, prec: int | None = None) -> TripletSample:
    """Certified triplet sample at index j (needs convergents j and j+1)."""
    convs = convergents(alpha, j + 1)
    if len(convs) < j + 1:
        raise InvalidSpec(f"expansion of {alpha.canonical()} ends before j={j + 1}")
    cj, cj1 = convs[j - 1], convs[j]
    working = _triplet_prec(alpha, cj1.q, prec)
    r_j = _residue_exact(alpha, cj.p, cj.q)
    r_j1 = _residue_exact(alpha, cj1.p, cj1.q)
    c_iv = _iv_of(_scale(r_j, cj.q), working)
    ct_iv = _iv_of(_scale(r_j1, cj1.q), working)
    with _iv_prec(working):
        beta_iv = iv.mpf(cj1.q) / iv.mpf(cj.q)
    err = max(float(mp.mpf(x.delta) / 2) for x in (beta_iv, c_iv, ct_iv))
    if err > 2.0**-64:
        raise PrecisionExhausted(
            f"triplet at j={j} certified only to {err:.3e} (> 2^-64)"
        )
    if _sign_of(_scale(r_j, cj.q)) * _sign_of(_scale(r_j1, cj1.q)) >= 0:
        raise InvalidSpec("sign alternation violated; malformed expansion")
    with mp.workprec(working + 16):
        beta_m = (mp.mpf(beta_iv.a) + mp.mpf(beta_iv.b)) / 2
        c_m = (mp.mpf(c_iv.a) + mp.mpf(c_iv.b)) / 2
        ct_m = (mp.mpf(ct_iv.a) + mp.mpf(ct_iv.b)) / 2
    return TripletSample(j=j, beta=beta_m, c=c_m, ctilde=ct_m, err=err)


@dataclass(frozen=True)
class IdentityRecord:
    j: int
    residual: float
    residual_bound: float
    sign_product_negative: bool
    exact: bool


@dataclass(frozen=True)
class IdentityReport:
    records: list
    all_certified: bool
    max_residual_bound: float


def verify_cf_identities(alpha: AngleSpec, j_range) -> IdentityReport:
    """Check q_j|q_{j+1}a - p_{j+1}| + q_{j+1}|q_j a - p_j| = 1 and sign alternation.

    Exact specs verify the identity in exact arithmetic (residual exactly 0);
    decimal literals get an interval bound which must stay below 2^-80.
    """
    js = list(j_range)
    if not js:
        raise InvalidSpec("empty j range")
    convs = convergents(alpha, max(js) + 1)
    if len(convs) < max(js) + 1:
        raise InvalidSpec("expansion ends inside the requested range")
    records = []
    for j in js:
        cj, cj1 = convs[j - 1], convs[j]
        r_j = _residue_exact(alpha, cj.p, cj.q)
        r_j1 = _residue_exact(alpha, cj1.p, cj1.q)
        s_j, s_j1 = _sign_of(r_j), _sign_of(r_j1)
        neg = s_j * s_j1 < 0
        if isinstance(alpha, RationalAngle):
            total = cj.q * abs(r_j1[1]) + cj1.q * abs(r_j[1])
            res = abs(total - 1)
            records.append(IdentityRecord(j, float(res), float(res), neg, True))
        elif isinstance(alpha, QuadraticAngle):
            # q_j*s1*r_{j+1} + q_{j+1}*s0*r_j - 1 over the common denominator c
            _, e1, f1, g, d = r_j
            _, e2, f2, _, _ = r_j1
            num_e = cj.q * s_j1 * e2 + cj1.q * s_j * e1 - g
            num_f = cj.q * s_j1 * f2 + cj1.q * s_j * f1
            if num_e == 0 and num_f == 0:
                records.append(IdentityRecord(j, 0.0, 0.0, neg, True))
            else:
                v = _quad_to_iv(num_e, num_f, g, d)
                bound = float(max(abs(mp.mpf(v.a)), abs(mp.mpf(v.b))))
                records.append(IdentityRecord(j, bound, bound, neg, True))
        else:
            working = max(alpha.precision, 2 * cj1.q.bit_length() + 96)
            t1 = _iv_of(_scale(r_j1, cj.q * s_j1), working)
            t2 = _iv_of(_scale(r_j, cj1.q * s_j), working)
            with _iv_prec(working):
                total = t1 + t2 - iv.mpf(1)
            bound = float(max(abs(mp.mpf(total.a)), abs(mp.mpf(total.b))))
            mid = float((mp.mpf(total.a) + mp.mpf(total.b)) / 2)
            if bound >= 2.0**-80:
                raise PrecisionExhausted(
                    f"identity residual at j={j} certified only to {bound:.3e}"
                )
            records.append(IdentityRecord(j, abs(mid), bound, neg, False))
    certified = all(r.residual_bound < 2.0**-80 and r.sign_product_negative for r in records)
    return IdentityReport(
        records=records,
        all_certified=certified,
        max_residual_bound=max(r.residual_bound for r in records),
    )


@dataclass(frozen=True)
class BadApproxProfile:
    """Finite-horizon approximation quality summary."""

    c_alpha_lower: float
    max_partial_quotient: int
    verdict: str  # "badly_approximable" | "not" | "unknown"
    horizon: int


def badly_approx_profile(alpha: AngleSpec, horizon: int) -> BadApproxProfile:
    """Liminf estimator for q_j|q_j a - p_j| plus the type-level verdict.

    The estimator is the minimum over the tail j in [horizon/2, horizon]; the
    early terms systematically undershoot the liminf and would never converge
    to c_alpha.
    """
    if horizon < 2:
        raise InvalidSpec("horizon must be >= 2")
    quots = expand_cf(alpha, horizon)
    convs = convergents(alpha, horizon)
    tail_start = max(2, horizon // 2)
    lower = None
    for cv in convs:
        if cv.j < tail_start and cv.j < len(convs):
            continue
        r = _scale(_residue_exact(alpha, cv.p, cv.q), cv.q)
        s = _sign_of(r) if not (r[0] == "frac" and r[1] == 0) else 0
        if s == 0:
            continue  # exact final convergent of a rational
        v = _iv_of(_scale(r, s), 128)
        val = float(mp.mpf(v.a))
        lower = val if lower is None else min(lower, val)
    if isinstance(alpha, RationalAngle):
        verdict = "not"
    elif isinstance(alpha, QuadraticAngle):
        verdict = "badly_approximable"
    else:
        verdict = "unknown"
    return BadApproxProfile(
        c_alpha_lower=0.0 if lower is None else lower,
        max_partial_quotient=max(quots[1:], default=quots[0]) if len(quots) > 1 else quots[0],
        verdict=verdict,
        horizon=horizon,
    )


def convergent_determinant(alpha: AngleSpec, j: int) -> int:
    """Exact integer q_{j+1} p_j - q_j p_{j+1} (always +-1).

    This is the alpha-free value of q_j(q_{j+1} a - p_{j+1}) - q_{j+1}(q_j a - p_j):
    the alpha terms cancel, so the finite-index co-volume law
    pi |q_j(q~ a - p~) - q~ (q a - p)| = pi is an exact integer identity.
    """
    convs = convergents(alpha, j + 1)
    if len(convs) < j + 1:
        raise InvalidSpec(f"expansion ends before j={j + 1}")
    cj, cj1 = convs[j - 1], convs[j]
    return cj1.q * cj.p - cj.q * cj1.p


# ---------------------------------------------------------------------------
# subsequence (residue-class) triplet limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripletLimit:
    """Limit of the triplet along j in a fixed residue class.

    ``modulus`` is lcm(period, 2): the quotient pattern repeats with the CF
    period while the sign of c alternates with parity, so subsequential limits
    are indexed by j mod lcm(period, 2).
    """

    class_index: int
    modulus: int
    beta: object
    c: object
    ctilde: object
    err: float


def class_modulus(alpha: QuadraticAngle) -> int:
    return math.lcm(cf_period(alpha).period, 2)


def class_triplet_limit(alpha: QuadraticAngle, j: int, depth: int = 160) -> TripletLimit:
    """Triplet limit along the residue class of j, to far-below-tolerance error.

    Evaluated at a deep index in the same class; the drift from the true limit
    decays like 1/q_J^2, which at the default depth is vastly below any
    tolerance used downstream.  The reported ``err`` adds a measured
    depth-to-depth drift on top of the evaluation bound.  The evaluation index
    depends only on the class and the depth; each is evaluated once per process.
    """
    if not isinstance(alpha, QuadraticAngle):
        raise InvalidSpec("triplet limits need a quadratic irrational angle")
    exp = _expansion(alpha).period
    modulus = math.lcm(exp.period, 2)
    big = max(depth, exp.preperiod + 4 * modulus + 8)
    big += (j - big) % modulus  # big = j (mod modulus), big >= depth
    return _class_limit_at(alpha, big, modulus)


@functools.lru_cache(maxsize=1024)  # class limits kept per process
def _class_limit_at(alpha: QuadraticAngle, big: int, modulus: int) -> TripletLimit:
    t1 = triplet(alpha, big)
    t2 = triplet(alpha, big + 2 * modulus)
    drift = max(
        abs(float(t1.beta - t2.beta)),
        abs(float(t1.c - t2.c)),
        abs(float(t1.ctilde - t2.ctilde)),
    )
    return TripletLimit(
        class_index=big % modulus,
        modulus=modulus,
        beta=t2.beta,
        c=t2.c,
        ctilde=t2.ctilde,
        err=t2.err + 2.0 * drift,
    )
