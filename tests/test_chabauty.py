"""Chabauty-Fell distance: the closed form vs a per-point oracle and a
brute-force feasibility predicate."""

import math

import numpy as np
import pytest

from spirallimits import InvalidSpec, RationalAngle, WindowTooSmall, parse_angle
from spirallimits.chabauty_metric import (
    Patch,
    cauchy_report,
    chabauty_distance,
    delta,
)
from spirallimits.spiral import recentered_window


def delta_oracle(a: Patch, b: Patch) -> float:
    """Independent computation: Delta = max over points of min(nn, 1/|p|, W_other - |p|).

    Each point contributes a feasibility threshold min(dist to the other set,
    1/norm, distance to the other window's rim); the infimum of the monotone
    predicate is the max of them (0 when none is positive).
    """
    worst = 0.0
    for own, other, w_other in ((a.points, b.points, b.window_radius),
                                (b.points, a.points, a.window_radius)):
        for p in own:
            norm = math.hypot(*p)
            if len(other):
                nn = float(np.hypot(other[:, 0] - p[0], other[:, 1] - p[1]).min())
            else:
                nn = math.inf
            escape = math.inf if norm == 0 else 1.0 / norm
            worst = max(worst, min(nn, escape, w_other - norm))
    return worst


def feasible(a: Patch, b: Patch, eps: float) -> bool:
    """The definition, point by point: every a in A with |a| <= 1/eps and
    |a| + eps <= W_B has a point of B within eps, and symmetrically."""
    for own, other, w_other in ((a.points, b.points, b.window_radius),
                                (b.points, a.points, a.window_radius)):
        for p in own:
            norm = math.hypot(*p)
            if norm * eps > 1 or norm + eps > w_other:
                continue
            if not any(math.hypot(p[0] - q[0], p[1] - q[1]) <= eps for q in other):
                return False
    return True


def disk_ints(radius, shift=(0.0, 0.0)):
    g = np.arange(-int(radius) - 1, int(radius) + 2)
    pts = np.array([(x + shift[0], y + shift[1]) for x in g for y in g])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]


def random_patch(rng, w=12.0, spread=4.0, n_max=40):
    n = int(rng.integers(3, n_max))
    pts = rng.uniform(-spread, spread, (n, 2))
    return Patch(pts, w)


def random_pair(rng, rim):
    """Two independent random patches, or with ``rim`` two noisy copies of one
    random set cut at their own radii in [6, 12]: points near a rim lose their
    partner across it."""
    if not rim:
        return random_patch(rng), random_patch(rng)
    ws = rng.uniform(6.0, 12.0, 2)
    n = int(rng.integers(20, 200))
    r = ws.max() * np.sqrt(rng.random(n))
    ang = rng.uniform(0.0, 2 * math.pi, n)
    base = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    pair = []
    for w in ws:
        pts = base + rng.normal(0.0, 0.02, base.shape)
        pair.append(Patch(pts[np.hypot(pts[:, 0], pts[:, 1]) <= w], w))
    return tuple(pair)


# --- examples from the contract ------------------------------------------------

def test_identity_is_zero():
    p = Patch(np.array([[0.0, 0.0], [1.0, 2.0]]), 10)
    res = delta(p, p)
    assert res.value == 0.0
    assert chabauty_distance(p, p) == 0.0


def test_single_point_offset():
    a = Patch(np.array([[0.0, 0.0]]), 10)
    b = Patch(np.array([[0.3, 0.0]]), 10)
    assert abs(delta(a, b).value - 0.3) <= 2e-9


def test_empty_versus_far_point():
    res = delta(Patch.empty(10), Patch(np.array([[2.0, 0.0]]), 10))
    assert abs(res.value - 0.5) <= 2e-9


def test_empty_both_sides():
    assert delta(Patch.empty(5), Patch.empty(5)).value == 0.0


def test_cap_at_one():
    a = Patch(np.array([[0.0, 0.0]]), 60)
    b = Patch(np.array([[50.0, 0.0]]), 60)
    assert chabauty_distance(a, b) == 1.0


def test_translated_integer_lattices():
    a = Patch(disk_ints(20), 20)
    b = Patch(disk_ints(20, (0.1, 0.0)), 20)
    assert abs(delta(a, b).value - 0.1) <= 1e-6


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        delta(Patch.empty(0.5), Patch.empty(2.0))


def test_strict_mode_raises_on_uncertified():
    a = Patch(np.array([[0.0, 0.0]]), 3)
    b = Patch(np.array([[0.05, 0.0]]), 3)
    res = delta(a, b)
    assert not res.certified  # 1/0.05 = 20 > 3
    with pytest.raises(WindowTooSmall):
        delta(a, b, strict=True)
    # a lower end of 0 is never certified: identical sets, both sides empty,
    # and a value of 0.5 (certifiable by itself) whose point errors reach 0
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    wide = (Patch(np.array([[0.0, 0.0]]), 10, point_errors=np.array([0.3])),
            Patch(np.array([[0.5, 0.0]]), 10, point_errors=np.array([0.3])))
    zero_cases = [(Patch(pts, 10), Patch(pts, 10)), (Patch.empty(5), Patch.empty(5)), wide]
    # a point at the origin against nothing: Delta is the other window's radius
    far_cases = [(Patch(np.array([[0.0, 0.0]]), 5), Patch.empty(5))]
    for x, y in zero_cases + far_cases:
        assert not delta(x, y).certified
        with pytest.raises(WindowTooSmall, match="certify"):
            delta(x, y, strict=True)
    assert delta(*far_cases[0]).value == 5.0


def test_bracket_width():
    """The bracket is the value without point errors and value -/+ (e_A + e_B) with them."""
    a = Patch(np.array([[0.0, 1.0], [3.0, 2.0]]), 15)
    b = Patch(np.array([[0.5, 1.2], [2.0, -1.0]]), 15)
    res = delta(a, b)
    assert res.lower == res.value == res.upper
    ea, eb = 1e-6, 3e-6
    res = delta(Patch(a.points, 15, point_errors=np.full(2, ea)),
                Patch(b.points, 15, point_errors=np.linspace(0.0, eb, 2)))
    assert res.lower == res.value - (ea + eb) and res.upper == res.value + (ea + eb)


def test_bracket_encloses_delta_of_moved_points():
    """Moving every point by at most its error keeps Delta in [lower, upper]
    whenever upper <= 1."""
    rng = np.random.default_rng(17)
    checked = 0
    for i in range(200):
        pair = []
        for p in random_pair(rng, rim=bool(i % 2)):
            # errors up to 1e-3; points stay inside the window after moving
            errs = rng.uniform(0.0, 1e-3, len(p))
            norms = np.hypot(p.points[:, 0], p.points[:, 1])
            keep = norms + errs <= p.window_radius
            pair.append(Patch(p.points[keep], p.window_radius, point_errors=errs[keep]))
        a, b = pair
        res = delta(a, b)
        if res.upper > 1:
            continue
        for _ in range(5):
            moved = []
            for p in (a, b):
                ang = rng.uniform(0.0, 2 * math.pi, len(p))
                # half the points move by their full error
                frac = np.where(rng.random(len(p)) < 0.5, 1.0, rng.random(len(p)))
                r = p.point_errors * frac
                moved.append(Patch(p.points + np.column_stack([r * np.cos(ang), r * np.sin(ang)]),
                                   p.window_radius))
            got = delta(*moved).value
            assert res.lower - 1e-12 <= got <= res.upper + 1e-12, (res, got)
        checked += 1
    assert checked > 50


# --- dual routes: closed form vs per-point oracle vs brute-force predicate ------

def test_delta_matches_direct_oracle_randomized():
    rng = np.random.default_rng(42)
    for i in range(200):
        a, b = random_pair(rng, rim=bool(i % 2))
        got = delta(a, b).value
        want = delta_oracle(a, b)
        assert abs(got - want) <= 1e-12, (got, want)


def test_monotone_predicate():
    """The brute-force predicate is monotone in eps and switches at Delta."""
    rng = np.random.default_rng(5)
    for i in range(100):
        a, b = random_pair(rng, rim=bool(i % 2))
        d = delta(a, b).value
        assert d > 0
        assert not feasible(a, b, d * (1 - 1e-9))
        assert feasible(a, b, d * (1 + 1e-9))
        if i < 20:
            flags = [feasible(a, b, float(e)) for e in np.sort(rng.uniform(0.01, 3.0, 12))]
            assert flags == sorted(flags)


# --- metric axioms ---------------------------------------------------------------

def test_symmetry_and_triangle_sampled():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a, b, c = (random_patch(rng) for _ in range(3))
        dab = chabauty_distance(a, b)
        assert dab == chabauty_distance(b, a)
        assert chabauty_distance(a, c) <= dab + chabauty_distance(b, c) + 1e-8


def test_zero_iff_same_points():
    rng = np.random.default_rng(13)
    a = random_patch(rng)
    shuffled = Patch(a.points[::-1].copy(), a.window_radius)
    assert chabauty_distance(a, shuffled) == 0.0
    moved = Patch(a.points + 1e-4, a.window_radius)
    assert chabauty_distance(a, moved) > 0.0


def test_rotation_invariance():
    rng = np.random.default_rng(21)
    a, b = (Patch(p.points, p.window_radius, point_errors=rng.uniform(0.0, 1e-3, len(p)))
            for p in (random_patch(rng), random_patch(rng)))
    base = delta(a, b)

    def rotated(p, ang):
        c, s = math.cos(ang), math.sin(ang)
        rot = p.points @ np.array([[c, s], [-s, c]])
        return Patch(rot, p.window_radius, point_errors=p.point_errors)

    for ang in (0.3, 1.2, 2.9):
        got = delta(rotated(a, ang), rotated(b, ang))
        for field in ("value", "lower", "upper"):
            assert abs(getattr(got, field) - getattr(base, field)) <= 1e-9 + 1e-9, field
    assert base.lower < base.value < base.upper


# --- cauchy reports ---------------------------------------------------------------

def test_cauchy_constant_sequence():
    p = Patch(disk_ints(10), 12)
    rep = cauchy_report([p, p, p, p], tol=1e-6)
    assert rep.converged
    assert all(d == 0.0 for d in rep.distances)


def test_cauchy_translated_lattices():
    patches = [Patch(disk_ints(20, (1.0 / j, 0.0)), 20) for j in range(1, 11)]
    rep = cauchy_report(patches, tol=0.2)
    for j, d in enumerate(rep.distances, start=1):
        assert abs(d - (1.0 / j - 1.0 / (j + 1))) <= 1e-12, (j, d)
        assert d == min(1.0, delta_oracle(patches[j - 1], patches[j]))
    assert rep.monotone_nonincreasing


def test_cauchy_alternating_not_converged():
    a = Patch(disk_ints(10), 12)
    b = Patch(disk_ints(10, (0.4, 0.0)), 12)
    rep = cauchy_report([a, b, a, b, a, b], tol=0.1)
    assert not rep.converged


def test_cauchy_needs_three():
    p = Patch(disk_ints(5), 6)
    with pytest.raises(InvalidSpec):
        cauchy_report([p, p], tol=0.1)


def test_patch_validation():
    with pytest.raises(InvalidSpec):
        Patch(np.array([[50.0, 0.0]]), 10)
    with pytest.raises(InvalidSpec):
        Patch(np.array([[1.0, 0.0], [1.0, 0.0]]), 10)
    # non-finite input: one NaN point, a NaN among several, an infinite
    # coordinate, a NaN radius
    for bad in ([[math.nan, 0.0]], [[0.0, 0.0], [1.0, math.nan], [2.0, 0.0]],
                [[0.0, math.inf], [1.0, 0.0]]):
        with pytest.raises(InvalidSpec, match="finite"):
            Patch(np.array(bad), 10)
    with pytest.raises(InvalidSpec):
        Patch(np.array([[1.0, 0.0]]), math.nan)
    # a duplicate far apart in input order among ~1,000 points
    pts = disk_ints(17)
    assert 900 < len(pts) < 1100
    Patch(pts, 20)
    with pytest.raises(InvalidSpec, match="distinct"):
        Patch(np.vstack([pts, pts[3:4]]), 20)
    with pytest.raises(InvalidSpec, match="distinct"):
        Patch(np.vstack([pts[-1:], pts]), 20)
    # exact row comparison: -0.0 equals 0.0, one ulp apart is distinct
    with pytest.raises(InvalidSpec, match="distinct"):
        Patch(np.array([[0.0, 0.0], [-0.0, 0.0]]), 10)
    with pytest.raises(InvalidSpec, match="distinct"):
        Patch(np.array([[1.0, 0.0], [2.0, 2.0], [1.0, -0.0]]), 10)
    Patch(np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 0.0]]), 10)
    Patch(np.array([[0.5, 0.25], [0.5, np.nextafter(0.25, 0.0)]]), 10)
    # a k-d tree reports distance 0 here (the squared gap underflows)
    Patch(np.array([[0.0, 0.0], [1e-200, 0.0]]), 10)
    # the dense collinear rat:1/2 window (120,001 points on a few lines)
    _, offsets, errs = recentered_window(parse_angle("rat:1/2"), 4_000_000, 30)
    assert len(Patch(offsets, 30, point_errors=errs)) == 120_001


def test_patch_distinctness_matches_tree_oracle():
    """Sorted-row distinctness decides like a nearest-neighbour distance of 0."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(7)
    rejected = 0
    for _ in range(300):
        side = int(rng.integers(1, 15))
        step = float(rng.choice([1.0, 0.5, 0.1]))
        g = np.arange(-side, side + 1) * step
        grid = np.array(np.meshgrid(g, g)).reshape(2, -1).T
        pts = grid[rng.permutation(len(grid))[: int(rng.integers(1, len(grid) + 1))]]
        if rng.random() < 0.5:
            extra = pts[rng.integers(0, len(pts), size=int(rng.integers(1, 4)))]
            pts = np.vstack([pts, extra])
        pts = pts[rng.permutation(len(pts))]
        pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
        if len(pts) > 1:
            d, _ = cKDTree(pts).query(pts, k=2)
            expect_reject = bool(d[:, 1].min() == 0.0)
        else:
            expect_reject = False
        w = side * step * math.sqrt(2) + 1
        try:
            Patch(pts, w)
            got_reject = False
        except InvalidSpec:
            got_reject = True
        assert got_reject == expect_reject
        rejected += got_reject
    assert 50 < rejected < 250


# --- nearest distances ---------------------------------------------------------

def nearest_oracle(points, queries, own_rows=None):
    """Brute-force nearest distances, written as sqrt(dx*dx + dy*dy) row by row.

    With ``own_rows``, query i is the point in row own_rows[i], which is skipped.
    """
    out = np.full(len(queries), np.inf)
    for i, q in enumerate(queries):
        dx = points[:, 0] - q[0]
        dy = points[:, 1] - q[1]
        d = np.sqrt(dx * dx + dy * dy)
        if own_rows is not None:
            d[own_rows[i]] = np.inf
        out[i] = d.min(initial=np.inf)
    return out


def test_nearest_matches_brute_force_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(30):
        patch = random_patch(rng, n_max=200)
        queries = rng.uniform(-12.0, 12.0, (int(rng.integers(1, 300)), 2))
        assert np.array_equal(patch.nearest(queries), nearest_oracle(patch.points, queries))
        own = nearest_oracle(patch.points, patch.points, own_rows=range(len(patch)))
        assert np.array_equal(patch.nearest(), own)


def test_nearest_without_points():
    queries = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(Patch.empty(5).nearest(queries), [np.inf, np.inf])
    assert Patch.empty(5).nearest().shape == (0,)
    assert np.array_equal(Patch(np.array([[1.0, 0.0]]), 5).nearest(), [np.inf])
    assert Patch(np.array([[1.0, 0.0]]), 5).nearest(np.empty((0, 2))).shape == (0,)


def test_nearest_underflowing_pair_is_zero():
    patch = Patch(np.array([[0.0, 0.0], [1e-200, 0.0]]), 1)
    assert np.array_equal(patch.nearest(), [0.0, 0.0])
    assert np.array_equal(patch.nearest(np.array([[1e-200, 0.0]])), [0.0])


def test_nearest_on_a_collinear_rational_window():
    _, offsets, _ = recentered_window(RationalAngle(1, 2), 10**6, 8.0)
    patch = Patch(offsets, 8.0)
    rng = np.random.default_rng(5)
    rows = rng.choice(len(patch), 300, replace=False)
    assert len(patch) == 16001
    assert np.array_equal(patch.nearest()[rows],
                          nearest_oracle(patch.points, patch.points[rows], own_rows=rows))
    samples = rng.uniform(-8.0, 8.0, (300, 2))
    assert np.array_equal(patch.nearest(samples), nearest_oracle(patch.points, samples))
