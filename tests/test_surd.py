"""Exact Q(sqrt d) arithmetic (Surd, SurdInterval) against mpmath."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from spirallimits import PrecisionExhausted, parse_angle
from spirallimits.number_theory import Surd, SurdInterval, _is_squarefree
from spirallimits.spiral import angle_fraction

SQUAREFREE = [d for d in range(2, 400) if _is_squarefree(d)]
INTS = st.integers(-(2**80), 2**80)
NONZERO = INTS.filter(bool)
# rationals, quadratics with and without a preperiod, and a fine and a coarse literal
FRAC_SPECS = ("rat:13/21", "rat:-355/113", "quad:1,1,2,5", "quad:5,-3,7,11",
              "dec:0.6180339887498948482045868343656381177203", "dec:0.6180339887498948")


def bits_of(*xs):
    return max(abs(x) for x in xs).bit_length()


def value(x: Surd):
    """x at the current mp precision, from its integers alone."""
    return (mp.mpf(x.e) + mp.mpf(x.f) * mp.sqrt(x.d)) / x.g


def contains(enclosure, v) -> bool:
    return mp.mpf(enclosure.a) <= v <= mp.mpf(enclosure.b)


@settings(max_examples=400, deadline=None)
@given(e=INTS, f=INTS, g=NONZERO, d=st.sampled_from(SQUAREFREE))
def test_sign_floor_and_interval_match_mpmath(e, f, g, d):
    x = Surd(e, f, g, d)
    bits = bits_of(e, f, g, d)
    with mp.workprec(2 * bits + 200):
        v = (mp.mpf(e) + mp.mpf(f) * mp.sqrt(d)) / g
        # |e^2 - f^2 d| >= 1, so a nonzero value is far above this precision's error
        assert x.sign() == (v > 0) - (v < 0)
        k = mp.floor(v)
        assume(v == k or min(v - k, k + 1 - v) > mp.mpf(2) ** -100)  # away from integer ties
        assert x.floor() == int(k)
        for prec in (53, bits + 64):
            assert contains(x.interval(prec), v)


@settings(max_examples=300, deadline=None)
@given(x=st.tuples(INTS, INTS, NONZERO), y=st.tuples(INTS, INTS, NONZERO),
       d=st.sampled_from(SQUAREFREE), k=st.integers(-(2**40), 2**40))
def test_arithmetic_is_exact(x, y, d, k):
    x, y = Surd(*x, d), Surd(*y, d)
    with mp.workprec(8 * bits_of(x.e, x.f, x.g, y.e, y.f, y.g, d) + 600):
        vx, vy = value(x), value(y)
        results = [(x + y, vx + vy), (x - y, vx - vy), (x * y, vx * vy), (x * k, vx * k),
                   (x - k, vx - k), (-x, -vx), (x.conj(), (x.e - x.f * mp.sqrt(d)) / x.g)]
        if y.sign():
            results.append((x / y, vx / vy))
        for got, want in results:
            assert abs(value(got) - want) <= mp.mpf(2) ** -200 * (1 + abs(want))
    assert ((x + y) - y - x).sign() == 0 and ((x * y) - y * x).sign() == 0
    one = Surd(3, -1, 2, d) / Surd(3, -1, 2, d)
    assert (one.e, one.f, one.g, one.d) == (1, 0, 1, 0)  # rationals are in lowest terms


@settings(max_examples=200, deadline=None)
@given(lo=st.tuples(INTS, NONZERO), width=st.tuples(st.integers(0, 2**80), NONZERO),
       k=st.integers(-(2**40), 2**40))
def test_interval_pair_decides_only_where_both_ends_agree(lo, width, k):
    a = Surd(*lo)
    b = a + Surd(width[0], 0, abs(width[1]))
    pair = SurdInterval(a, b) * k - k
    ends = (a * k - k, b * k - k)
    assert (pair.lo, pair.hi) == (ends if k >= 0 else ends[::-1])
    for decide in (lambda x: x.sign(), lambda x: x.floor()):
        at_lo, at_hi = decide(pair.lo), decide(pair.hi)
        try:
            got = decide(pair)
        except PrecisionExhausted:
            assert at_lo != at_hi
        else:
            assert got == at_lo == at_hi


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(FRAC_SPECS), n=st.integers(0, 10**15))
def test_frac_lies_in_the_unit_interval_and_agrees_with_angle_fraction(spec, n):
    alpha = parse_angle(spec)
    try:
        x = alpha.frac(n)
    except PrecisionExhausted:
        assert not alpha.is_exact  # only a literal's ends can straddle an integer
        return
    assert x.floor() == 0  # both ends of a literal's, so [0, 1) exactly
    enclosure = x.interval(200)
    try:
        val, err = angle_fraction(alpha, n)
    except PrecisionExhausted:
        assert not alpha.is_exact
        return
    with mp.workprec(300):
        assert mp.mpf(enclosure.a) - err <= val <= mp.mpf(enclosure.b) + err
        if alpha.is_exact:
            want = mp.frac(n * value(alpha.value))
            assert abs(val - want) <= err + mp.mpf(2) ** -200
