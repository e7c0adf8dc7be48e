"""Exact and high-precision continued-fraction machinery.

Angle specifications come in three flavours: exact rationals, exact quadratic
irrationals (a + b*sqrt(d))/c, and decimal literals that carry an explicit
uncertainty of half a unit in the last digit.  Exact quantities such as
q*alpha - p are Surds, (e + f*sqrt(d))/g with exact sign, floor and
arithmetic (f = 0 for rationals); a literal's are SurdIntervals, pairs of
Surds whose sign and floor raise PrecisionExhausted where the two ends
disagree.  Every decision that depends on the kind of angle is a method or
class attribute of its AngleSpec subclass.

Quadratic expansions run on an exact integer recurrence so convergents never
drift, and the triplet's limits along residue classes are closed forms in
Q(sqrt d) read from the periodic complete quotients, so their error is
rounding only.  Every inexact evaluation goes through outward-rounded
interval arithmetic (mpmath.iv) and reports a certified error bound.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv, mp

from .errors import InvalidSpec, PrecisionExhausted

MIN_LITERAL_BITS = 64
# defined here, in a module that loads no numpy, so the CLI's parser and
# manifest read them without importing spiral or lattice2d
PREC_PAD = 96  # default evaluation bits beyond bits(n)
FIT_TOL = 0.05  # how far a window point may sit from a fitted lattice, shared by every fit


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
# exact arithmetic in Q(sqrt d)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Surd:
    """The exact real (e + f*sqrt(d)) / g with g > 0.

    A rational has f = 0 and d = 0 and is kept in lowest terms.  An
    irrational (d >= 2 and not a square) keeps the integers it was built
    from, so its interval always comes from the same operations.  Sums,
    products and quotients take ints and Surds of one d (a rational's d = 0
    takes the other operand's).
    """

    e: int
    f: int = 0
    g: int = 1
    d: int = 0

    def __post_init__(self):
        if self.g > 0 and (self.f or (self.d == 0 and math.gcd(self.e, self.g) == 1)):
            return  # already in normal form
        e, f, g, d = self.e, self.f, self.g, self.d
        if g == 0:
            raise ZeroDivisionError("Surd with g = 0")
        if g < 0:
            e, f, g = -e, -f, -g
        if f == 0:
            h = math.gcd(e, g)
            e, g, d = e // h, g // h, 0
        for name, v in (("e", e), ("f", f), ("g", g), ("d", d)):
            object.__setattr__(self, name, v)

    def sign(self) -> int:
        se, sf = (self.e > 0) - (self.e < 0), (self.f > 0) - (self.f < 0)
        if se * sf >= 0:
            return se or sf
        # opposite signs: e^2 != f^2 d because sqrt(d) is irrational
        return se if self.e * self.e > self.f * self.f * self.d else sf

    def floor(self) -> int:
        s = math.isqrt(self.f * self.f * self.d)  # floor(|f| sqrt(d)), never exact if f != 0
        return (self.e + s if self.f >= 0 else self.e - s - 1) // self.g

    def conj(self) -> "Surd":
        return Surd(self.e, -self.f, self.g, self.d)

    def interval(self, prec: int):
        """Outward-rounded iv.mpf enclosure at ``prec`` bits."""
        with _iv_prec(prec):
            if self.f == 0:
                return iv.mpf(self.e) / iv.mpf(self.g)
            return (iv.mpf(self.e) + iv.mpf(self.f) * iv.sqrt(self.d)) / iv.mpf(self.g)

    def __add__(self, other):
        if not isinstance(other, Surd):  # an int
            return Surd(self.e + other * self.g, self.f, self.g, self.d)
        return Surd(self.e * other.g + other.e * self.g, self.f * other.g + other.f * self.g,
                    self.g * other.g, self.d or other.d)

    def __mul__(self, other):
        if not isinstance(other, Surd):  # an int
            return Surd(self.e * other, self.f * other, self.g, self.d)
        d = self.d or other.d
        return Surd(self.e * other.e + self.f * other.f * d, self.e * other.f + self.f * other.e,
                    self.g * other.g, d)

    def __truediv__(self, other):
        o = other if isinstance(other, Surd) else Surd(other)
        # 1/o = g (e - f sqrt d) / (e^2 - f^2 d)
        return self * Surd(o.g * o.e, -o.g * o.f, o.e * o.e - o.f * o.f * o.d, o.d)

    def __neg__(self):
        return Surd(-self.e, -self.f, self.g, self.d)

    def __sub__(self, other):
        return self + -other


@dataclass(frozen=True)
class SurdInterval:
    """A real known only to lie in [lo, hi]: a decimal literal's quantities.

    Sums, integer multiples and integer shifts act on both ends; ``sign``
    and ``floor`` raise PrecisionExhausted when the two ends disagree.
    """

    lo: Surd
    hi: Surd

    def sign(self) -> int:
        s = self.lo.sign()
        if s != self.hi.sign():
            raise PrecisionExhausted("sign of interval quantity straddles zero")
        return s

    def floor(self) -> int:
        a = self.lo.floor()
        if a != self.hi.floor():
            raise PrecisionExhausted("floor of interval quantity straddles an integer")
        return a

    def interval(self, prec: int):
        with _iv_prec(prec):
            return iv.mpf([self.lo.interval(prec).a, self.hi.interval(prec).b])

    def __add__(self, other: "SurdInterval"):
        return SurdInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: int):
        return SurdInterval(self.lo - other, self.hi - other)

    def __mul__(self, k: int):
        ends = (self.lo * k, self.hi * k)
        return SurdInterval(*(ends if k >= 0 else ends[::-1]))


# ---------------------------------------------------------------------------
# angle specifications
# ---------------------------------------------------------------------------

class AngleSpec:
    """Base class for rotation-number descriptions.

    Everything that depends on the kind of angle is a method or a class
    attribute of the subclasses; the rest of the package asks them.  Each
    subclass has ``value`` (a Surd, or a SurdInterval for a literal) and
    ``_cf_source()``, its partial-quotient stream with the detected period
    (None unless the expansion is periodic).
    """

    precision = 0  # working-precision floor in bits; only a literal sets one
    is_exact = True
    rational = False
    verdict = "unknown"  # badly_approx_profile's type-level verdict
    beta_mode = "finite_ratio"  # how center_indices takes beta

    def interval(self, prec: int):
        """Certified enclosure of the angle as an iv.mpf at the given precision."""
        return self.value.interval(prec)

    def residue(self, p: int, q: int):
        """q*alpha - p, exactly."""
        return self.value * q - p

    def frac(self, n: int):
        """frac(alpha * n) = n*alpha - floor(n*alpha), exactly."""
        x = self.residue(0, n)
        try:
            whole = x.floor()
        except PrecisionExhausted:
            raise PrecisionExhausted(
                f"frac({self.canonical()} * {n}) straddles an integer; literal too coarse"
            ) from None
        return x - whole

    def midpoint(self) -> tuple:
        """An exact angle whose lattice stands in for this one, and the
        half-width of the enclosure around it: (self, 0) for exact angles."""
        return self, 0

    def limit_triplet(self, j: int):
        """The triplet a limit lattice at j is predicted from: here, the finite one."""
        return triplet(self, j)

    def canonical(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalAngle(AngleSpec):
    """Exact rational angle num/den in lowest terms."""

    num: int
    den: int

    rational = True
    verdict = "not"

    def __post_init__(self):
        if self.den == 0:
            raise InvalidSpec("rational angle needs a nonzero denominator")
        g = math.gcd(self.num, self.den)
        num, den = self.num // g, self.den // g
        if den < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @functools.cached_property
    def value(self) -> Surd:
        return Surd(self.num, 0, self.den)

    def _cf_source(self):
        v = Fraction(self.num, self.den)
        return _interval_quotients(v, v), None

    def canonical(self) -> str:
        return f"rat:{self.num}/{self.den}"


@dataclass(frozen=True)
class QuadraticAngle(AngleSpec):
    """Exact quadratic irrational (a + b*sqrt(d))/c with d squarefree >= 2."""

    a: int
    b: int
    c: int
    d: int

    verdict = "badly_approximable"
    beta_mode = "class_limit"

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

    @functools.cached_property
    def value(self) -> Surd:
        return Surd(self.a, self.b, self.c, self.d)

    def _cf_source(self):
        exp = _quad_expansion(self)
        return map(exp.quotient, itertools.count(1)), exp

    def limit_triplet(self, j: int):
        """The limit of the triplet along j's residue class."""
        return class_triplet_limit(self, j)

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

    is_exact = False

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

    @functools.cached_property
    def value(self) -> SurdInterval:
        return SurdInterval(*(Surd(x.numerator, 0, x.denominator) for x in self.bounds_fraction()))

    def midpoint(self) -> tuple:
        v = self.as_fraction()
        return RationalAngle(v.numerator, v.denominator), self.ulp() / 2

    def _cf_source(self):
        return _interval_quotients(*self.bounds_fraction()), None

    def canonical(self) -> str:
        return f"dec:{self.digits}@{self.precision}"


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
    """Eventually periodic expansion of a quadratic irrational.

    ``complete`` holds the complete quotients alpha_1 = alpha, alpha_2, ...
    as Surds, one per listed quotient (a_j = floor(alpha_j)).
    """

    quotients: list
    preperiod: int
    period: int
    complete: list = field(default_factory=list, repr=False, compare=False)

    def index(self, j: int) -> int:
        """List position of the 1-based index j at any depth, via periodicity."""
        return j - 1 if j <= len(self.quotients) else (
            self.preperiod + (j - 1 - self.preperiod) % self.period)

    def quotient(self, j: int) -> int:
        """Partial quotient a_j (1-based) at any depth."""
        return self.quotients[self.index(j)]


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
    """Complete quotients (P + sqrt(D))/Q up to the first repeated state (P, Q):
    the preperiod and one period."""
    P, D, Q = _quad_cf_state(alpha)
    r = math.isqrt(D // alpha.d)  # sqrt(D) = r sqrt(d)
    quotients, complete, seen = [], [], {}
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        complete.append(Surd(P, r, Q, alpha.d))
        quotients.append(complete[-1].floor())
        P = quotients[-1] * Q - P
        Q = (D - P * P) // Q
    preperiod = seen[(P, Q)]
    return QuadExpansion(quotients, preperiod, len(quotients) - preperiod, complete)


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
        self._stream, self.period = alpha._cf_source()
        self.quotients, self.convergents = [], []
        self.limits = {}  # residue class -> TripletLimit, for periodic expansions
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
    exp = _expansion(alpha).period
    if exp is None:
        raise InvalidSpec("periodicity is only defined for quadratic irrationals")
    return QuadExpansion(list(exp.quotients), exp.preperiod, exp.period, list(exp.complete))


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


def _triplet_prec(alpha: AngleSpec, q_next: int) -> int:
    # the 2*bits(q)+64 floor leaves no room for outward-rounding ulps; pad
    return max(2 * q_next.bit_length() + 96, alpha.precision)


def _midpoints(ivs, prec: int):
    """Midpoints (mpf at prec + 16 bits) of interval enclosures and the largest half-width."""
    err = max(float(mp.mpf(x.delta) / 2) for x in ivs)
    with mp.workprec(prec + 16):
        return [(mp.mpf(x.a) + mp.mpf(x.b)) / 2 for x in ivs], err


def _check_j(j: int) -> None:
    """Convergents are numbered from 1; j = 0 would read the last one."""
    if j < 1:
        raise InvalidSpec(f"convergent index j={j} is below 1")


def triplet(alpha: AngleSpec, j: int) -> TripletSample:
    """Certified triplet sample at index j (needs convergents j and j+1)."""
    _check_j(j)
    convs = convergents(alpha, j + 1)
    if len(convs) < j + 1:
        raise InvalidSpec(f"expansion of {alpha.canonical()} ends before j={j + 1}")
    cj, cj1 = convs[j - 1], convs[j]
    working = _triplet_prec(alpha, cj1.q)
    c = alpha.residue(cj.p, cj.q) * cj.q
    ct = alpha.residue(cj1.p, cj1.q) * cj1.q
    (beta_m, c_m, ct_m), err = _midpoints(
        [x.interval(working) for x in (Surd(cj1.q, 0, cj.q), c, ct)], working)
    if err > 2.0**-64:
        raise PrecisionExhausted(
            f"triplet at j={j} certified only to {err:.3e} (> 2^-64)"
        )
    if c.sign() * ct.sign() >= 0:
        raise InvalidSpec("sign alternation violated; malformed expansion")
    return TripletSample(j=j, beta=beta_m, c=c_m, ctilde=ct_m, err=err)


@dataclass(frozen=True)
class IdentityRecord:
    j: int
    residual: float
    residual_bound: float
    sign_product_negative: bool


@dataclass(frozen=True)
class IdentityReport:
    records: list
    all_certified: bool
    max_residual_bound: float


def verify_cf_identities(alpha: AngleSpec, j_range) -> IdentityReport:
    """Check q_j|q_{j+1}a - p_{j+1}| + q_{j+1}|q_j a - p_j| = 1 and sign alternation.

    The residual is computed exactly; exact specs get exactly 0, decimal
    literals an interval bound from the literal's two ends, which must stay
    below 2^-80.
    """
    js = list(j_range)
    if not js:
        raise InvalidSpec("empty j range")
    _check_j(min(js))
    convs = convergents(alpha, max(js) + 1)
    if len(convs) < max(js) + 1:
        raise InvalidSpec("expansion ends inside the requested range")
    records = []
    for j in js:
        cj, cj1 = convs[j - 1], convs[j]
        r_j, r_j1 = alpha.residue(cj.p, cj.q), alpha.residue(cj1.p, cj1.q)
        s_j, s_j1 = r_j.sign(), r_j1.sign()
        total = r_j1 * (cj.q * s_j1) + r_j * (cj1.q * s_j) - 1
        v = total.interval(_triplet_prec(alpha, cj1.q))
        bound = float(max(abs(mp.mpf(v.a)), abs(mp.mpf(v.b))))
        if not alpha.is_exact and bound >= 2.0**-80:
            raise PrecisionExhausted(
                f"identity residual at j={j} certified only to {bound:.3e}"
            )
        mid = abs(float((mp.mpf(v.a) + mp.mpf(v.b)) / 2))
        records.append(IdentityRecord(j, mid, bound, s_j * s_j1 < 0))
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
        r = alpha.residue(cv.p, cv.q) * cv.q
        s = r.sign()
        if s == 0:
            continue  # exact final convergent of a rational
        val = float(mp.mpf((r * s).interval(128).a))
        lower = val if lower is None else min(lower, val)
    return BadApproxProfile(
        c_alpha_lower=0.0 if lower is None else lower,
        max_partial_quotient=max(quots[1:], default=quots[0]) if len(quots) > 1 else quots[0],
        verdict=alpha.verdict,
        horizon=horizon,
    )


def convergent_determinant(alpha: AngleSpec, j: int) -> int:
    """Exact integer q_{j+1} p_j - q_j p_{j+1} (always +-1).

    This is the alpha-free value of q_j(q_{j+1} a - p_{j+1}) - q_{j+1}(q_j a - p_j):
    the alpha terms cancel, so the finite-index co-volume law
    pi |q_j(q~ a - p~) - q~ (q a - p)| = pi is an exact integer identity.
    """
    _check_j(j)
    convs = convergents(alpha, j + 1)
    if len(convs) < j + 1:
        raise InvalidSpec(f"expansion ends before j={j + 1}")
    cj, cj1 = convs[j - 1], convs[j]
    return cj1.q * cj.p - cj.q * cj1.p


# ---------------------------------------------------------------------------
# subsequence (residue-class) triplet limits
# ---------------------------------------------------------------------------

_LIMIT_PREC = 320  # bits of the exported class limits


@dataclass(frozen=True)
class TripletLimit:
    """Limit of the triplet along j in a fixed residue class.

    ``modulus`` is lcm(period, 2): the quotient pattern repeats with the CF
    period while the sign of c alternates with parity, so subsequential limits
    are indexed by j mod lcm(period, 2).  ``exact`` holds (beta, c, c~) as
    Surds; the mpf fields are their values to within ``err`` (rounding only).
    """

    class_index: int
    modulus: int
    beta: object
    c: object
    ctilde: object
    err: float
    exact: tuple = field(repr=False)


def class_modulus(alpha: QuadraticAngle) -> int:
    return math.lcm(cf_period(alpha).period, 2)


def class_triplet_limit(alpha: QuadraticAngle, j: int) -> TripletLimit:
    """Exact triplet limit along the residue class of j, in closed form.

    At every j, q_{j+1}/q_j = a_{j+1} + q_{j-1}/q_j and
    q_j(q_j alpha - p_j) = (-1)^{j+1} / (alpha_{j+1} + q_{j-1}/q_j), where
    alpha_{j+1} is the complete quotient.  Take J = j (mod lcm(period, 2))
    past the preperiod, so alpha_{J+1} is purely periodic; by Galois's
    theorem q_{j-1}/q_j then tends to -conj(alpha_{J+1}) along the class.
    Hence beta = a_{J+1} - conj(alpha_{J+1}),
    c = (-1)^{J+1} / (alpha_{J+1} - conj(alpha_{J+1})), and c~ is c at J + 1.
    Each class is computed once per angle and kept on its expansion table.
    """
    table = _expansion(alpha)
    exp = table.period
    if exp is None:
        raise InvalidSpec("triplet limits need a quadratic irrational angle")
    modulus = math.lcm(exp.period, 2)
    k = j % modulus
    if k not in table.limits:
        big = exp.preperiod + (k - exp.preperiod) % modulus
        x, y = (exp.complete[exp.index(i)] for i in (big + 1, big + 2))
        sign = (-1) ** (big + 1)
        exact = (-x.conj() + x.floor(), Surd(sign) / (x - x.conj()),
                 Surd(-sign) / (y - y.conj()))
        (beta, c, ct), err = _midpoints([v.interval(_LIMIT_PREC) for v in exact], _LIMIT_PREC)
        table.limits[k] = TripletLimit(k, modulus, beta, c, ct, err, exact)
    return table.limits[k]
