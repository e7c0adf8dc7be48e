"""Chabauty-Fell distance: binary search vs a direct threshold oracle."""

import math

import numpy as np
import pytest

from spirallimits import InvalidSpec, WindowTooSmall, parse_angle
from spirallimits.chabauty_metric import (
    Patch,
    cauchy_report,
    chabauty_distance,
    delta,
    _SideIndex,
    _feasible,
)
from spirallimits.spiral import recentered_window


def delta_oracle(a: Patch, b: Patch) -> float:
    """Independent computation: Delta = max over points of min(nn, 1/|p|).

    Each point contributes a feasibility threshold min(dist to the other set,
    1/norm); the infimum of the monotone predicate is the max of them.
    """
    worst = 0.0
    for own, other in ((a.points, b.points), (b.points, a.points)):
        for p in own:
            norm = math.hypot(*p)
            if len(other):
                nn = float(np.hypot(other[:, 0] - p[0], other[:, 1] - p[1]).min())
            else:
                nn = math.inf
            escape = math.inf if norm == 0 else 1.0 / norm
            worst = max(worst, min(nn, escape))
    return worst


def disk_ints(radius, shift=(0.0, 0.0)):
    g = np.arange(-int(radius) - 1, int(radius) + 2)
    pts = np.array([(x + shift[0], y + shift[1]) for x in g for y in g])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]


def random_patch(rng, w=12.0, spread=4.0, n_max=40):
    n = int(rng.integers(3, n_max))
    pts = rng.uniform(-spread, spread, (n, 2))
    return Patch(pts, w)


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


def test_bracket_width():
    a = Patch(np.array([[0.0, 1.0], [3.0, 2.0]]), 15)
    b = Patch(np.array([[0.5, 1.2], [2.0, -1.0]]), 15)
    res = delta(a, b)
    assert res.upper - res.lower <= 1e-9
    assert res.lower <= res.value <= res.upper


# --- dual route: binary search vs direct oracle --------------------------------

def test_delta_matches_direct_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = random_patch(rng), random_patch(rng)
        got = delta(a, b).value
        want = delta_oracle(a, b)
        assert abs(got - want) <= 2e-9, (got, want)


def test_monotone_predicate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = random_patch(rng), random_patch(rng)
        ab = _SideIndex(a.points, b.points)
        ba = _SideIndex(b.points, a.points)
        eps = np.sort(rng.uniform(0.01, 3.0, 12))
        flags = [_feasible(ab, ba, float(e)) for e in eps]
        for i in range(len(flags) - 1):
            assert not (flags[i] and not flags[i + 1])


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
    a, b = random_patch(rng), random_patch(rng)
    base = delta(a, b).value
    for ang in (0.3, 1.2, 2.9):
        got = delta(a.rotated(ang), b.rotated(ang)).value
        assert abs(got - base) <= 1e-9 + 1e-9


# --- cauchy reports ---------------------------------------------------------------

def test_cauchy_constant_sequence():
    p = Patch(disk_ints(10), 12)
    rep = cauchy_report([p, p, p, p], tol=1e-6)
    assert rep.converged
    assert all(d == 0.0 for d in rep.distances)


def test_cauchy_translated_lattices():
    patches = [Patch(disk_ints(20, (1.0 / j, 0.0)), 20) for j in range(1, 11)]
    rep = cauchy_report(patches, tol=0.2)
    for j in (1, 2, 3):  # below the window-truncation scale 1/W the offsets rule
        expect = 1.0 / j - 1.0 / (j + 1)
        assert abs(rep.distances[j - 1] - expect) <= 2e-2, (j, rep.distances[j - 1])
    # and every value agrees with the independent oracle
    for i, d in enumerate(rep.distances):
        assert abs(d - min(1.0, delta_oracle(patches[i], patches[i + 1]))) <= 2e-9


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
