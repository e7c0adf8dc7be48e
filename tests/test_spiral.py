"""Spiral point generation and window enumeration against mpmath oracles."""

import math

import numpy as np
import pytest
import window_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from spirallimits import (
    GOLDEN,
    InvalidSpec,
    PrecisionExhausted,
    QuadraticAngle,
    RationalAngle,
    WindowTooLarge,
)
from spirallimits import spiral
from spirallimits.chabauty_metric import Patch
from spirallimits.number_theory import convergents, parse_angle
from spirallimits.spiral import (
    angle_fraction,
    nearest_neighbor,
    offset_between,
    recentered_window,
    spiral_point,
)

SQRT2 = QuadraticAngle(0, 1, 1, 2)
# 40 significant digits of the golden-angle fraction (sqrt(5) - 1) / 2
DEC40 = "dec:0.6180339887498948482045868343656381177203"
# the same fraction to 16 digits: too coarse to place x_n itself far out
COARSE = "dec:0.6180339887498948@64"
IRRATIONAL_SPECS = ("quad:1,1,2,5", "quad:0,1,1,2", DEC40)


def mp_position(alpha, n, dps=60):
    """Independent oracle: sqrt(n) e^(2 pi i alpha n) straight from mpmath."""
    with mp.workdps(dps):
        if isinstance(alpha, RationalAngle):
            a = mp.mpf(alpha.num) / alpha.den
        else:
            a = (alpha.a + alpha.b * mp.sqrt(alpha.d)) / alpha.c
        ang = 2 * mp.pi * mp.frac(a * n)
        r = mp.sqrt(n)
        return float(r * mp.cos(ang)), float(r * mp.sin(ang))


# --- angle_fraction ---------------------------------------------------------

def test_fraction_rational_exact():
    v, err = angle_fraction(RationalAngle(1, 4), 3)
    assert float(v) == 0.75
    assert err == 0.0


def test_fraction_golden_small():
    v, err = angle_fraction(GOLDEN, 5)
    with mp.workdps(40):
        expect = mp.frac(5 * (1 + mp.sqrt(5)) / 2)
        assert abs(float(v - expect)) < 1e-10
    assert err <= 2.0**-64


def test_fraction_large_index_two_precisions_agree():
    v1, e1 = angle_fraction(GOLDEN, 10**12, prec=160)
    v2, e2 = angle_fraction(GOLDEN, 10**12, prec=320)
    assert abs(float(v1 - v2)) <= 2.0**-64
    assert max(e1, e2) <= 2.0**-64


def test_fraction_against_oracle_many():
    rng = np.random.default_rng(7)
    for alpha in (GOLDEN, SQRT2, RationalAngle(355, 113)):
        for n in rng.integers(1, 10**9, 12):
            v, err = angle_fraction(alpha, int(n))
            with mp.workdps(60):
                if isinstance(alpha, RationalAngle):
                    a = mp.mpf(alpha.num) / alpha.den
                else:
                    a = (alpha.a + alpha.b * mp.sqrt(alpha.d)) / alpha.c
                expect = mp.frac(a * int(n))
            gap = abs(float(v - expect))
            assert min(gap, 1 - gap) <= err + 1e-45


# --- spiral_point -----------------------------------------------------------

def test_point_quarter_turn():
    p = spiral_point(RationalAngle(1, 4), 1)
    assert abs(p.x) < 1e-15 and abs(p.y - 1.0) < 1e-15


def test_point_half_angle_full_turns():
    p = spiral_point(RationalAngle(1, 2), 4)
    assert abs(p.x - 2.0) < 1e-15 and abs(p.y) < 1e-15


def test_point_golden_oracle():
    p = spiral_point(GOLDEN, 5)
    ox, oy = mp_position(GOLDEN, 5)
    assert math.hypot(p.x - ox, p.y - oy) <= p.error_bound + 1e-15


def test_point_norm_matches_sqrt_n():
    for n in (1, 7, 1000, 12345, 10**8 + 7):
        p = spiral_point(GOLDEN, n)
        assert abs(math.hypot(p.x, p.y) - math.sqrt(n)) <= p.error_bound + 1e-9


def test_point_error_bound_default_policy():
    # within float64 range of the exported coordinates the bound stays tiny
    for n in (10, 10**4, 10**6):
        assert spiral_point(GOLDEN, n).error_bound <= 2.0**-40


def test_consecutive_angle_rotation():
    w = 2 * math.pi * float(angle_fraction(GOLDEN, 1)[0])
    rot = complex(math.cos(w), math.sin(w))
    for n in (10, 1000, 99991):
        a = spiral_point(GOLDEN, n)
        b = spiral_point(GOLDEN, n + 1)
        ua = complex(a.x, a.y) / math.hypot(a.x, a.y)
        ub = complex(b.x, b.y) / math.hypot(b.x, b.y)
        assert abs(ub - ua * rot) < 1e-9


# --- windows -----------------------------------------------------------------

def test_window_rejects_bad_radius_center_and_oversized_box():
    for radius in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            recentered_window(GOLDEN, 100, radius)
    with pytest.raises(InvalidSpec):
        recentered_window(GOLDEN, 0, 1.0)
    with pytest.raises(WindowTooLarge):
        recentered_window(GOLDEN, 10**12, 10**4)


def test_window_completeness_brute_force():
    """Every annulus index is classified identically by a direct oracle."""
    n_c, radius = 5000, 6.0
    win, offsets, errs = recentered_window(GOLDEN, n_c, radius)
    cx, cy = mp_position(GOLDEN, n_c, dps=60)
    got = set(int(n) for n in win.indices)
    lo = int((math.sqrt(n_c) - radius) ** 2) - 2
    hi = int((math.sqrt(n_c) + radius) ** 2) + 2
    for m in range(max(1, lo), hi + 1):
        px, py = mp_position(GOLDEN, m, dps=60)
        d = math.hypot(px - cx, py - cy)
        if d <= radius - 1e-9:
            assert m in got, f"missing index {m} at distance {d}"
        if d >= radius + 1e-9:
            assert m not in got, f"spurious index {m} at distance {d}"


def test_window_membership_recheck_double_precision():
    win, offsets, errs = recentered_window(GOLDEN, 10**6, 10.0)
    assert np.all(np.hypot(offsets[:, 0], offsets[:, 1]) <= 10.0 + 1e-9)
    for i in (0, len(win) // 2, len(win) - 1):
        m = int(win.indices[i])
        x, y, err = offset_between(GOLDEN, m, 10**6, prec=320)
        assert math.hypot(x - offsets[i, 0], y - offsets[i, 1]) <= errs[i] + err


def test_window_error_is_stored_once():
    """errs is one read-only value viewed once per point, and a Patch keeps
    that view without copying it."""
    win, offsets, errs = recentered_window(RationalAngle(1, 2), 10**6, 8.0)
    assert errs.strides == (0,) and errs.shape == (len(win),)
    assert (errs == errs[0]).all() and errs[0] > 0
    patch = Patch(offsets, 8.0, point_errors=errs)
    assert np.shares_memory(patch.point_errors, errs)
    assert patch.max_error == errs[0]
    with pytest.raises(ValueError):
        patch.point_errors[0] = 0.0


def test_window_annulus_bound_invariant():
    win, _, _ = recentered_window(GOLDEN, 50000, 5.0)
    r = math.sqrt(50000)
    assert all((r - 5) ** 2 <= n <= (r + 5) ** 2 for n in win.indices)


@pytest.mark.parametrize("spec", ("rat:13/21",) + IRRATIONAL_SPECS + (COARSE,))
def test_window_center_is_the_exported_spiral_point(spec):
    """The window's one center evaluation exports the center as spiral_point
    does at the window's precision."""
    alpha = parse_angle(spec)
    for n, radius in ((0, 4.5), (289, 7.5), (10**9 + 7, 4.0)):
        win, _, _ = recentered_window(alpha, n, radius, n_min=0)
        p = spiral_point(alpha, n, spiral._window_prec(math.sqrt(float(n)), radius))
        assert win.center == (p.x, p.y)


def _window_case(spec):
    # dense rational-ray windows outgrow the point budget past n = 1e9
    top = 10**9 if spec.startswith("rat:") else 10**15
    n = st.one_of(st.integers(0, 1024), st.integers(0, 10**9), st.integers(10**9, top))
    return st.tuples(st.just(spec), n, st.floats(1.0, 16.0))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(("rat:1/2", "rat:13/21") + IRRATIONAL_SPECS + (COARSE,))
       .flatmap(_window_case))
@example(case=("rat:1/2", 10**9, 16.0))
@example(case=("rat:13/21", 37, 9.5))
@example(case=("quad:1,1,2,5", 1, 16.0))
@example(case=("quad:0,1,1,2", 0, 5.5))
@example(case=(DEC40, 999_999_937, 16.0))
@example(case=(DEC40, 10**15 + 777, 16.0))
@example(case=(COARSE, 123_456_789, 3.0))
def test_window_matches_annulus_oracle(case):
    """Windows against two slow oracles.

    Offsets agree with per-point interval arithmetic (``offset_between`` at
    320 bits) within the window's bound plus the oracle's, at any n; up to
    n = 1e9 the index set is the brute-force annulus scan's.  A raise needs a
    knife-edge index, or the coarse literal.
    """
    spec, n, radius = case
    alpha = parse_angle(spec)
    n_min = 0 if n == 0 else 1
    expected = undecided = None
    if n <= 10**9:
        expected, undecided = window_oracle.window_indices(spec, n, radius)
        if n == 0:
            expected = [0] + expected  # the oracle starts at m = 1
    try:
        win, offsets, errs = recentered_window(alpha, n, radius, n_min=n_min)
    except PrecisionExhausted:
        assert spec == COARSE or undecided, "raised without a knife-edge index"
        return
    if expected is not None:
        want = set(expected) - set(undecided)
        assert set(win.indices.tolist()) - set(undecided) == want
    c = win.indices.tolist().index(n)
    assert offsets[c, 0] == 0.0 and offsets[c, 1] == 0.0
    norms = np.hypot(offsets[:, 0], offsets[:, 1])
    assert np.all(norms <= radius + errs)
    # evenly spaced rows plus the ones nearest the boundary
    rows = set(np.linspace(0, len(win) - 1, 20).astype(int).tolist())
    rows |= set(np.argsort(norms)[-8:].tolist())
    for i in sorted(rows):
        x, y, e = offset_between(alpha, int(win.indices[i]), n, prec=320)
        assert abs(offsets[i, 0] - x) <= errs[i] + e, (i, offsets[i, 0] - x, errs[i], e)
        assert abs(offsets[i, 1] - y) <= errs[i] + e, (i, offsets[i, 1] - y, errs[i], e)


def test_coarse_literal_certifies_deep_window():
    """Offsets see the literal's width through k only, so a 16-digit literal
    still certifies at n = 1e12, where independent positions of x_m and x_n
    are each uncertain by hundreds of units.  The literal encloses the golden
    fraction, so the window is the golden angle's."""
    n = 10**12 + 12345
    win, offsets, errs = recentered_window(parse_angle(COARSE), n, 4.0)
    gold, g_offsets, g_errs = recentered_window(GOLDEN, n, 4.0)
    assert np.array_equal(win.indices, gold.indices)
    assert errs.max() < 0.01
    assert np.hypot(*(offsets - g_offsets).T).max() <= errs.max() + g_errs.max()


def test_window_mpmath_work_is_fixed(monkeypatch):
    """Apart from boundary points, mpmath runs a fixed number of times per
    window whatever its point count; a knife-edge point alone goes to the
    interval check."""
    calls = {"_position_iv": 0, "_iv_distances": []}
    position_iv, iv_distances = spiral._position_iv, spiral._iv_distances

    def counted_position(*args):
        calls["_position_iv"] += 1
        return position_iv(*args)

    def counted_distances(alpha, ms, *args):
        calls["_iv_distances"].extend(ms)
        return iv_distances(alpha, ms, *args)

    monkeypatch.setattr(spiral, "_position_iv", counted_position)
    monkeypatch.setattr(spiral, "_iv_distances", counted_distances)
    sizes = []
    for n, radius in ((10**6, 2.0), (10**6, 16.0), (10**15 + 777, 16.0)):
        calls["_position_iv"] = 0
        win, _, _ = recentered_window(SQRT2, n, radius)
        sizes.append(len(win))
        assert calls["_position_iv"] == 1
    assert sizes[0] < 10 < 200 < min(sizes[1:])
    assert calls["_iv_distances"] == []
    # |x_16 - x_0| = 4 exactly: only index 16 is sent to intervals, which cannot decide it
    with pytest.raises(PrecisionExhausted):
        recentered_window(SQRT2, 0, 4.0, n_min=0)
    assert calls["_iv_distances"] == [16]


@pytest.mark.parametrize("spec", IRRATIONAL_SPECS)
@pytest.mark.parametrize("n", [10**12 + 12345, 10**15 + 777])
def test_deep_windows_certify(spec, n):
    """Windows far beyond an annulus scan's reach certify."""
    alpha = parse_angle(spec)
    for radius in (4.0, 8.0, 16.0):
        win, offsets, errs = recentered_window(alpha, n, radius)
        assert n in win.indices.tolist()
        assert 0.8 * radius**2 <= len(win) <= 1.25 * radius**2 + 2
        assert np.all(np.hypot(offsets[:, 0], offsets[:, 1]) <= radius + errs)
        assert errs.max() <= 2.0**-40
        i = len(win) // 3
        x, y, err = offset_between(alpha, int(win.indices[i]), n)
        assert math.hypot(x - offsets[i, 0], y - offsets[i, 1]) <= errs[i] + err


def test_windows_stop_at_the_int64_limit():
    """Window indices are int64.  A window reaching index 2^63 raises naming
    n, W and the limit: at 2^63 - 1000 the indices above the center used to
    wrap negative and drop out (33 points, all at or below the center), and
    from 2^63 on numpy raised OverflowError.  A window at 2^62 still returns
    points on both sides of the center, matching the interval oracle."""
    for n in (2**63 - 1000, 2**63):
        with pytest.raises(InvalidSpec, match=f"radius 8 about n={n} .* 2\\^63"):
            recentered_window(GOLDEN, n, 8.0)
    with pytest.raises(InvalidSpec, match=f"n={2**63 + 5} .* 2\\^63"):
        nearest_neighbor(GOLDEN, 2**63 + 5)
    n = 2**62
    win, offsets, errs = recentered_window(GOLDEN, n, 8.0)
    assert len(win) > 48  # about W^2 = 64 points
    assert (win.indices < n).any() and (win.indices > n).any()
    for i in (0, len(win) // 2, len(win) - 1):
        x, y, err = offset_between(GOLDEN, int(win.indices[i]), n)
        assert math.hypot(x - offsets[i, 0], y - offsets[i, 1]) <= errs[i] + err


# --- nearest neighbours -------------------------------------------------------

def test_nn_rational_ray():
    m, d = nearest_neighbor(RationalAngle(1, 3), 9)
    assert m == 12
    assert abs(d - (math.sqrt(12) - 3)) < 1e-12


def test_nn_golden_offsets_are_fibonacci():
    qs = {c.q for c in convergents(GOLDEN, 30)}
    for n in (1000, 4181, 50000):
        m, _ = nearest_neighbor(GOLDEN, n)
        assert abs(n - m) in qs, (n, m)


def test_nn_against_naive_oracle():
    """Vectorized search equals a plain loop over a generous annulus."""
    for n in (500, 3333):
        m, d = nearest_neighbor(GOLDEN, n)
        best = (math.inf, None)
        for cand in range(max(1, n - 400), n + 400):
            if cand == n:
                continue
            x, y, _ = offset_between(GOLDEN, cand, n)
            dist = math.hypot(x, y)
            if dist < best[0] - 1e-12:
                best = (dist, cand)
        assert m == best[1]
        assert abs(d - best[0]) < 1e-9


def test_nn_offset_samples_are_denominators():
    rng = np.random.default_rng(11)
    for alpha in (GOLDEN, SQRT2):
        qs = {c.q for c in convergents(alpha, 40)}
        for n in rng.integers(1000, 100000, 20):
            m, _ = nearest_neighbor(alpha, int(n))
            assert abs(int(n) - m) in qs


@pytest.mark.parametrize("n", [10**8, 10**12])
def test_nn_tie_break_settles_in_intervals(n, monkeypatch):
    """On the ray of alpha = 1/2 the distances to x_{n-2} and x_{n+2} differ
    by about 1/n^1.5, inside the float tie band: both go to the interval
    distance, which picks n + 2."""
    calls = []
    iv_distances = spiral._iv_distances

    def counted_distances(alpha, ms, *args):
        calls.extend(ms)
        return iv_distances(alpha, ms, *args)

    monkeypatch.setattr(spiral, "_iv_distances", counted_distances)
    m, d = nearest_neighbor(RationalAngle(1, 2), n)
    assert m == n + 2
    want = 2 / (math.sqrt(n + 2) + math.sqrt(n))
    assert abs(d - want) <= 1e-15 * want
    assert sorted(calls) == [n - 2, n + 2]


def test_coarse_literal_nearest_neighbor_raises():
    """A 16-digit literal's window error bound is about 2e-3 at 10^12 and 0.2
    at 10^14 + 7, where its midpoint alone gave a wrong distance (1.62698
    against golden's 1.67688); it raises there naming n.  40 digits give the
    golden angle's neighbour and distance."""
    lit = parse_angle(COARSE)
    for n in (10**12, 10**14 + 7):
        with pytest.raises(PrecisionExhausted, match=f"n={n}"):
            nearest_neighbor(lit, n)
    n = 10**14 + 7
    m, dist = nearest_neighbor(parse_angle(DEC40), n)
    m_golden, dist_golden = nearest_neighbor(GOLDEN, n)
    assert m == m_golden and abs(dist - dist_golden) <= 1e-9
