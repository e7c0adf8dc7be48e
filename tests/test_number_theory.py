"""Continued-fraction machinery against hand values and mpmath oracles."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from spirallimits import (
    DecimalAngle,
    GOLDEN,
    InvalidSpec,
    PrecisionExhausted,
    QuadraticAngle,
    RationalAngle,
    badly_approx_profile,
    class_triplet_limit,
    convergents,
    expand_cf,
    largest_denominator_at_most,
    parse_angle,
    triplet,
    verify_cf_identities,
)
from spirallimits.number_theory import cf_period, class_modulus, convergent_determinant

SQRT2 = QuadraticAngle(0, 1, 1, 2)
SQRT3 = QuadraticAngle(0, 1, 1, 3)
ROOT13 = QuadraticAngle(1, 1, 2, 13)  # (1 + sqrt(13)) / 2


def mp_alpha(alpha, dps=60):
    """Independent high-precision value of an angle spec."""
    with mp.workdps(dps):
        if isinstance(alpha, RationalAngle):
            return mp.mpf(alpha.num) / alpha.den
        return (alpha.a + alpha.b * mp.sqrt(alpha.d)) / alpha.c


def cf_oracle(x, count):
    """Plain floor/reciprocal expansion at high precision."""
    out = []
    with mp.workdps(120):
        v = mp.mpf(x)
        for _ in range(count):
            a = int(mp.floor(v))
            out.append(a)
            v = 1 / (v - a)
    return out


# --- expansions -----------------------------------------------------------

def test_expand_golden():
    assert expand_cf(GOLDEN, 5) == [1, 1, 1, 1, 1]


def test_expand_sqrt2():
    assert expand_cf(SQRT2, 5) == [1, 2, 2, 2, 2]


def test_expand_rational_terminates():
    assert expand_cf(RationalAngle(7, 3), 10) == [2, 3]


def test_expand_matches_float_oracle():
    for alpha in (GOLDEN, SQRT2, SQRT3, ROOT13, QuadraticAngle(3, -2, 7, 6)):
        got = expand_cf(alpha, 25)
        assert got == cf_oracle(mp_alpha(alpha), 25)


def test_period_detection_reproduces_sequence():
    for alpha in (GOLDEN, SQRT2, SQRT3, ROOT13):
        exp = cf_period(alpha)
        deep = expand_cf(alpha, exp.preperiod + 5 * exp.period)
        for j in range(exp.preperiod, len(deep)):
            assert deep[j] == deep[exp.preperiod + (j - exp.preperiod) % exp.period]


def test_sqrt3_period():
    exp = cf_period(SQRT3)
    assert exp.quotients[: exp.preperiod + exp.period] == [1, 1, 2]
    assert exp.period == 2
    assert class_modulus(SQRT3) == 2


# --- convergents ----------------------------------------------------------

def test_convergents_golden():
    assert [(c.p, c.q) for c in convergents(GOLDEN, 5)] == [
        (1, 1), (2, 1), (3, 2), (5, 3), (8, 5)
    ]


def test_convergents_sqrt2():
    assert [(c.p, c.q) for c in convergents(SQRT2, 4)] == [
        (1, 1), (3, 2), (7, 5), (17, 12)
    ]


def test_convergents_of_finite_cf():
    # [1, 2, 3] is 10/7
    assert [(c.p, c.q) for c in convergents(RationalAngle(10, 7), 5)] == [
        (1, 1), (3, 2), (10, 7)
    ]


def test_convergent_recurrence_and_gcd():
    for alpha in (GOLDEN, SQRT2, ROOT13, RationalAngle(355, 113)):
        quots = expand_cf(alpha, 30)
        convs = convergents(alpha, 30)
        for c in convs:
            assert math.gcd(c.p, c.q) == 1
        for j in range(2, len(convs)):
            a = quots[j]  # a_{j+1} with 0-based list
            assert convs[j].p == a * convs[j - 1].p + convs[j - 2].p
            assert convs[j].q == a * convs[j - 1].q + convs[j - 2].q
        qs = [c.q for c in convs]
        assert all(qs[i + 1] > qs[i] for i in range(1, len(qs) - 1))


def test_convergents_are_best_approximations():
    with mp.workdps(80):
        x = mp_alpha(GOLDEN, 80)
        convs = convergents(GOLDEN, 12)
        for c in convs[1:]:
            err = abs(x - mp.mpf(c.p) / c.q)
            for q in range(1, c.q):
                p = int(mp.nint(x * q))
                assert abs(x - mp.mpf(p) / q) > err


def test_largest_denominator():
    assert largest_denominator_at_most(GOLDEN, 50).q == 34
    assert largest_denominator_at_most(SQRT2, 12).q == 12
    assert largest_denominator_at_most(SQRT2, 1).q == 1
    assert largest_denominator_at_most(RationalAngle(7, 3), 100).q == 3


# --- triplets -------------------------------------------------------------

def triplet_oracle(alpha, j):
    """Direct evaluation at 4x the module's working precision."""
    convs = convergents(alpha, j + 1)
    cj, cj1 = convs[j - 1], convs[j]
    with mp.workprec(8 * cj1.q.bit_length() + 256):
        x = mp_alpha(alpha, dps=mp.dps)
        return (
            mp.mpf(cj1.q) / cj.q,
            cj.q * (cj.q * x - cj.p),
            cj1.q * (cj1.q * x - cj1.p),
        )


def test_triplet_golden_j2():
    t = triplet(GOLDEN, 2)
    beta, c, ct = t.as_floats()
    assert beta == 2.0
    assert abs(c - (-0.381966)) < 1e-6
    assert abs(ct - 0.472136) < 1e-6


def test_triplet_golden_j40_paper_values():
    t = triplet(GOLDEN, 40)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(t.beta) - phi) < 1e-8
    assert abs(abs(float(t.c)) - 1 / math.sqrt(5)) < 1e-6
    assert float(t.c) * float(t.ctilde) < 0


def test_triplet_sqrt2_j40():
    t = triplet(SQRT2, 40)
    assert abs(float(t.beta) - (1 + math.sqrt(2))) < 1e-10
    assert abs(abs(float(t.c)) - 1 / (2 * math.sqrt(2))) < 1e-10


def test_triplet_matches_quadruple_precision_oracle():
    for alpha in (GOLDEN, SQRT2, ROOT13):
        for j in (3, 11, 27, 40):
            t = triplet(alpha, j)
            ob, oc, oct = triplet_oracle(alpha, j)
            assert abs(float(t.beta - ob)) <= t.err + 1e-30
            assert abs(float(t.c - oc)) <= t.err + 1e-30
            assert abs(float(t.ctilde - oct)) <= t.err + 1e-30


def test_triplet_error_bound_certified():
    t = triplet(GOLDEN, 60)
    assert t.err <= 2.0**-64


# --- identities -----------------------------------------------------------

def test_identity_values_golden_j2():
    # 1*|2phi - 3| + 2*|phi - 2| = 0.236068 + 0.763932 = 1
    with mp.workdps(40):
        phi = (1 + mp.sqrt(5)) / 2
        t1 = 1 * abs(2 * phi - 3)
        t2 = 2 * abs(phi - 2)
        assert abs(float(t1) - 0.236068) < 1e-6
        assert abs(float(t2) - 0.763932) < 1e-6
        assert abs(float(t1 + t2) - 1) < 1e-30
    rep = verify_cf_identities(GOLDEN, [2])
    assert rep.records[0].residual == 0.0
    assert rep.records[0].sign_product_negative


def test_identity_values_sqrt2_j3():
    with mp.workdps(40):
        r2 = mp.sqrt(2)
        assert abs(float(2 * abs(5 * r2 - 7)) - 0.1421356) < 1e-7
        assert abs(float(5 * abs(2 * r2 - 3)) - 0.8578644) < 1e-7
    rep = verify_cf_identities(SQRT2, [3])
    assert rep.records[0].residual == 0.0


def test_identities_exact_over_range():
    for alpha in (GOLDEN, SQRT2, SQRT3, ROOT13):
        rep = verify_cf_identities(alpha, range(1, 41))
        assert rep.all_certified
        assert rep.max_residual_bound < 2.0**-80
        assert all(r.sign_product_negative for r in rep.records)


def test_identities_rational():
    rep = verify_cf_identities(RationalAngle(355, 113), range(1, 3))
    assert rep.max_residual_bound == 0.0


def test_identity_decimal_interval():
    lit = DecimalAngle("1." + "6180339887498948482045868343656381177203091798057" , 192)
    rep = verify_cf_identities(lit, range(1, 10))
    assert rep.all_certified


# --- profiles -------------------------------------------------------------

def test_profile_golden():
    prof = badly_approx_profile(GOLDEN, 40)
    assert prof.verdict == "badly_approximable"
    assert abs(prof.c_alpha_lower - 1 / math.sqrt(5)) < 1e-6
    assert prof.max_partial_quotient == 1


def test_profile_rational():
    assert badly_approx_profile(RationalAngle(7, 3), 2).verdict == "not"


def test_profile_unbounded_literal():
    # decimal rendering of [1; 1, 2, 4, 8, 16, 32], quotients grow by design
    value = Fraction(1)
    for a in reversed([1, 2, 4, 8, 16, 32]):
        value = a + 1 / value
    digits = mp.nstr(mp.mpf(value.numerator) / value.denominator, 40)
    prof = badly_approx_profile(DecimalAngle(digits, 128), 6)
    assert prof.verdict == "unknown"
    assert prof.max_partial_quotient >= 16


def test_convergent_determinant_alternates():
    for alpha in (GOLDEN, SQRT2, SQRT3, ROOT13):
        dets = [convergent_determinant(alpha, j) for j in range(1, 41)]
        assert set(dets) <= {1, -1}
        assert all(dets[i] == -dets[i + 1] for i in range(len(dets) - 1))


# --- class limits ----------------------------------------------------------

def test_class_limit_sqrt2():
    lim = class_triplet_limit(SQRT2, 40)
    assert abs(float(lim.beta) - (1 + math.sqrt(2))) < 1e-12
    assert abs(abs(float(lim.c)) - 1 / (2 * math.sqrt(2))) < 1e-12
    assert lim.err < 1e-18


def test_class_limit_golden_signs():
    even = class_triplet_limit(GOLDEN, 2)
    odd = class_triplet_limit(GOLDEN, 1)
    assert float(even.c) * float(odd.c) < 0
    for lim in (even, odd):
        assert abs(abs(float(lim.c)) - 1 / math.sqrt(5)) < 1e-12
        assert abs(float(lim.beta) - (1 + math.sqrt(5)) / 2) < 1e-12


def test_class_limit_sqrt3_betas_differ_by_parity():
    a = class_triplet_limit(SQRT3, 2)
    b = class_triplet_limit(SQRT3, 3)
    assert abs(float(a.beta) - float(b.beta)) > 0.5


# --- specs and errors -------------------------------------------------------

def test_angle_validation():
    with pytest.raises(InvalidSpec):
        QuadraticAngle(1, 1, 2, 4)  # d not squarefree
    with pytest.raises(InvalidSpec):
        QuadraticAngle(1, 0, 2, 5)  # b = 0
    with pytest.raises(InvalidSpec):
        RationalAngle(1, 0)
    with pytest.raises(InvalidSpec):
        DecimalAngle("1.5", 32)  # precision too small


def test_angle_canonicalization():
    a = QuadraticAngle(2, 2, -4, 5)
    assert (a.a, a.b, a.c) == (-1, -1, 2)
    r = RationalAngle(-6, -4)
    assert (r.num, r.den) == (3, 2)


def test_parse_angle_roundtrip():
    for text in ("rat:7/3", "quad:1,1,2,5", "dec:1.61803398874989@96"):
        assert parse_angle(text).canonical() == text


def test_decimal_expansion_precision_exhausted():
    with pytest.raises(PrecisionExhausted):
        expand_cf(DecimalAngle("1.618034", 64), 30)
