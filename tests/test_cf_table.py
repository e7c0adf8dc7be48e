"""Per-angle expansion tables and memoized class limits against the
from-scratch oracle in cf_oracle.py."""

import cf_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spirallimits import (
    GOLDEN,
    PrecisionExhausted,
    QuadraticAngle,
    RationalAngle,
    class_triplet_limit,
    convergents,
    expand_cf,
    largest_denominator_at_most,
    parse_angle,
)
from spirallimits import number_theory, spiral
from spirallimits.number_theory import cf_period

SQRT3 = QuadraticAngle(0, 1, 1, 3)
# a rational whose expansion ends, quadratics with and without a preperiod,
# and literals that certify 39 and 15 quotients
SPECS = ("rat:355/113", "rat:-7/3", "quad:1,1,2,5", "quad:3,-2,7,6", "quad:1,1,2,13",
         "dec:0.6180339887498948", "dec:0.41421356237")

REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(SPECS),
        st.sampled_from(("expand_cf", "convergents", "largest", "pair")),
        st.integers(1, 60),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=12,
)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PrecisionExhausted as exc:
        return "raised", str(exc)


def oracle_pair(alpha, k_max):
    seq = [(1, 0)] + [(c.p, c.q) for c in cf_oracle.convergents_past(alpha, k_max)]
    return seq[-2], seq[-1]


@settings(max_examples=60, deadline=None)
@given(requests=REQUESTS)
def test_interleaved_requests_match_the_oracle(requests):
    """Any order of requested depths gives the from-scratch results, and a
    literal raises at exactly the depths where the oracle raises."""
    number_theory._expansion.cache_clear()
    for spec, kind, count, bits in requests:
        alpha = parse_angle(spec)
        n = 2**bits
        if kind == "expand_cf":
            got = outcome(expand_cf, alpha, count)
            want = outcome(cf_oracle.expand_cf, alpha, count)
        elif kind == "convergents":
            got = outcome(convergents, alpha, count)
            want = outcome(cf_oracle.convergents, alpha, count)
        elif kind == "largest":
            got = outcome(largest_denominator_at_most, alpha, n)
            want = outcome(cf_oracle.largest_denominator_at_most, alpha, n)
        else:
            got = outcome(spiral._convergent_pair, alpha, n)
            want = outcome(oracle_pair, alpha, n)
        assert got == want, (spec, kind, count, n)


def test_table_grows_only_to_the_depth_asked_for():
    number_theory._expansion.cache_clear()
    convergents(GOLDEN, 7)
    assert len(number_theory._expansion(GOLDEN).quotients) == 7
    assert largest_denominator_at_most(GOLDEN, 50).q == 34
    assert len(number_theory._expansion(GOLDEN).quotients) == 10  # q_10 = 55 > 50
    convergents(GOLDEN, 3)
    assert len(number_theory._expansion(GOLDEN).quotients) == 10


def test_equal_specs_share_one_table():
    assert number_theory._expansion(RationalAngle(2, 4)) is number_theory._expansion(
        RationalAngle(1, 2))
    scaled = parse_angle("quad:2,2,4,5")
    assert scaled == GOLDEN
    assert number_theory._expansion(scaled) is number_theory._expansion(GOLDEN)


def test_returned_lists_are_copies():
    quots = expand_cf(GOLDEN, 10)
    quots[0] = 99
    quots.append(7)
    convs = convergents(GOLDEN, 10)
    convs.clear()
    exp = cf_period(SQRT3)
    exp.quotients[0] = 5
    exp.quotients.append(5)
    assert expand_cf(GOLDEN, 10) == [1] * 10
    assert [c.q for c in convergents(GOLDEN, 10)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert cf_period(SQRT3).quotients == [1, 1, 2]


def test_coarse_literal_reaches_every_certified_convergent():
    """The literal certifies 39 quotients; q_35 <= 10^7 < q_36 needs 36 of
    them, so the largest denominator is found, while asking for the 40th
    quotient still raises."""
    lit = parse_angle("dec:0.6180339887498948")
    cv = largest_denominator_at_most(lit, 10**7)
    assert (cv.j, cv.q) == (35, 9227465)
    assert len(convergents(lit, 39)) == 39
    with pytest.raises(PrecisionExhausted, match="a_40"):
        convergents(lit, 40)


@pytest.mark.parametrize("alpha", [GOLDEN, QuadraticAngle(0, 1, 1, 2), SQRT3,
                                   QuadraticAngle(3, -2, 7, 6)])
@pytest.mark.parametrize("depth", [20, 160])
def test_memoized_class_limit_equals_a_fresh_evaluation(alpha, depth):
    number_theory._class_limit_at.cache_clear()
    modulus = number_theory.class_modulus(alpha)
    for j in range(1, modulus + 1):
        first = class_triplet_limit(alpha, j, depth)
        again = class_triplet_limit(alpha, j + modulus, depth)
        fresh = cf_oracle.class_triplet_limit(alpha, j + modulus, depth)
        assert again is first
        assert (repr(first.beta), repr(first.c), repr(first.ctilde), first.err,
                first.class_index, first.modulus) == (
            repr(fresh.beta), repr(fresh.c), repr(fresh.ctilde), fresh.err,
            fresh.class_index, fresh.modulus)
