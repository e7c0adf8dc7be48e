"""Density, Delone constants, and empty-rectangle witnesses."""

import math

import numpy as np
import pytest
import window_oracle

from spirallimits import GOLDEN, InvalidSpec, RationalAngle, WindowTooLarge, forest
from spirallimits.chabauty_metric import Patch
from spirallimits.forest import (
    RectangleProbe,
    delone_constants,
    density_ratio,
    empty_rectangle_search,
    spiral_empty_rectangle_search,
)
from spirallimits.lattice2d import Basis2, lattice_ball
from spirallimits.limits import empirical_limit_patch
from spirallimits.number_theory import parse_angle
from spirallimits.spiral import recentered_window, spiral_point


def z2_patch(radius=10.0):
    return lattice_ball(Basis2((1, 0), (0, 1)), radius)


# --- density ---------------------------------------------------------------

def test_density_examples():
    assert density_ratio(GOLDEN, 100) == 1.0
    assert density_ratio(GOLDEN, 10.5) == 110 / 110.25
    for r in (10, 100, 1000):
        assert abs(density_ratio(GOLDEN, r) - 1.0) <= 1.0 / r**2


def test_density_count_is_integer():
    for r in (10.0, 31.7, 99.5):
        total = density_ratio(GOLDEN, r) * float(r) ** 2
        assert abs(total - round(total)) < 1e-6
        assert round(total) == math.floor(r * r + 1e-12) - 1 + 1


def test_density_needs_radius_one():
    for r in (0.5, math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            density_ratio(GOLDEN, r)


def test_density_counts_only_existing_indices():
    # indices start at 0, and none lie past floor(r^2)
    assert density_ratio(GOLDEN, 10, -5) == density_ratio(GOLDEN, 10, 0) == 101 / 100
    assert density_ratio(GOLDEN, 10, 500) == 0.0


# --- delone constants --------------------------------------------------------

def test_delone_z2():
    dc = delone_constants(z2_patch(), 0.05)
    assert dc.packing == 0.5
    assert abs(dc.covering_estimate - math.sqrt(2) / 2) <= 0.05


def test_delone_covering_converges_with_grid():
    true = math.sqrt(2) / 2
    gaps = []
    for step in (0.2, 0.1, 0.05):
        dc = delone_constants(z2_patch(), step)
        gaps.append(abs(dc.covering_estimate - true))
    assert gaps[1] <= gaps[0] / 2 + 1e-9
    assert gaps[2] <= gaps[1] / 2 + 1e-9


def test_delone_random_reduced_basis_covering():
    rng = np.random.default_rng(6)
    b = Basis2((1.1, 0.1), (-0.2, 1.3))
    patch = lattice_ball(b, 12.0)
    fine = delone_constants(patch, 0.02)
    coarse = delone_constants(patch, 0.08)
    assert abs(coarse.covering_estimate - fine.covering_estimate) <= 0.1


def test_delone_spiral_window_bounded():
    patch = empirical_limit_patch(GOLDEN, 10**6, 12.0)
    dc = delone_constants(patch, 0.1)
    assert dc.packing > 0.3
    assert dc.covering_estimate < 2.0


def test_delone_grid_budget():
    """A covering grid past the sample budget raises before it is allocated;
    the budget admits the W = 40, step 0.05 grid of 1441^2 samples."""
    with pytest.raises(WindowTooLarge, match="more than 4000000 samples"):
        delone_constants(z2_patch(8.0), 1e-4)  # 144001^2, about 2.1e10 samples
    two = Patch(np.array([[0.0, 0.0], [1.0, 0.0]]), 40.0)
    assert delone_constants(two, 0.05).packing == 0.5


def test_large_partial_quotient_covering_spike():
    """Exploratory: a big quotient degrades covering in its annulus.

    No fixed threshold is part of the contract; the run just demonstrates the
    spike against the golden-ratio baseline at the same radius.
    """
    from fractions import Fraction

    from mpmath import mp

    from spirallimits.number_theory import DecimalAngle, convergents

    quots = [0, 1, 1, 1, 1, 1, 60] + [1] * 40
    v = Fraction(quots[-1])
    for a in reversed(quots[:-1]):
        v = a + 1 / v
    with mp.workdps(50):
        digits = mp.nstr(mp.mpf(v.numerator) / v.denominator, 42)
    alpha = DecimalAngle(digits, 160)
    cv = convergents(alpha, 8)
    n_spike = max(400, int(0.15 * cv[5].q * cv[6].q))
    spike = delone_constants(empirical_limit_patch(alpha, n_spike, 12.0), 0.1)
    base = delone_constants(empirical_limit_patch(GOLDEN, n_spike, 12.0), 0.1)
    assert spike.covering_estimate > 2 * base.covering_estimate


def test_packing_stable_across_disjoint_windows():
    # disjoint windows at comparable radius: empirical Delone behaviour
    packs = []
    for n in (10**6, 10**6 + 250_000, 10**6 + 500_000):
        patch = empirical_limit_patch(GOLDEN, n, 10.0)
        packs.append(delone_constants(patch, 0.2).packing)
    assert (max(packs) - min(packs)) / max(packs) < 0.10


# --- rectangles ----------------------------------------------------------------

def test_probe_geometry():
    probe = RectangleProbe(center=(1.0, 2.0), direction=0.3, width=0.4, length=3.0)
    corners = probe.corners()
    assert corners.shape == (4, 2)
    d01 = math.hypot(*(corners[0] - corners[1]))
    d12 = math.hypot(*(corners[1] - corners[2]))
    assert {round(d01, 9), round(d12, 9)} == {0.4, 3.0}
    assert probe.contains(np.array([[1.0, 2.0]]))[0]
    assert not probe.contains(np.array([[1.0, 2.5]]))[0]


def test_z2_strip_found_and_verified():
    patch = z2_patch(10.0)
    probe = empty_rectangle_search(patch, 0.5, 8.0)
    assert probe is not None
    assert not probe.contains(patch.points).any()
    assert probe.clearance(patch.points) > 0


def test_probe_within_point_error_gives_none(monkeypatch):
    """A probe that clears the verification margin but not the point error
    ends the search with None, after one clearance check."""
    ball = z2_patch(10.0)
    patch = Patch(ball.points, 10.0, point_errors=np.full(len(ball), 1e-6))
    assert empty_rectangle_search(patch, 0.5, 8.0) is not None
    asked = []

    def within_error(probe, points):  # as if a point sat within its error of the box
        asked.append(probe)
        return patch.max_error / 2

    monkeypatch.setattr(RectangleProbe, "clearance", within_error)
    assert empty_rectangle_search(patch, 0.5, 8.0) is None
    assert len(asked) == 1


def full_clearance(monkeypatch, patch):
    """Make the search's clearance check run over every point of ``patch``."""
    clearance = RectangleProbe.clearance
    monkeypatch.setattr(RectangleProbe, "clearance",
                        lambda probe, points: clearance(probe, patch.points))


@pytest.mark.parametrize("spec", ["quad:1,1,2,5", "quad:0,1,1,2", "rat:1/2", "rat:13/21"])
def test_strip_clearance_decides_like_the_full_check(monkeypatch, spec):
    """The clearance check over the points within half_w + eps of the probe's
    strip returns what the check over every window point returns."""
    alpha, rng = parse_angle(spec), np.random.default_rng(29)
    for length in (10.0, 20.0, 40.0):
        n, local_r = int(rng.integers(10**5, 10**6)), length / 2 + 0.2 + 2
        win, offsets, errs = recentered_window(alpha, n, local_r)
        patch = Patch(offsets, local_r, point_errors=errs)
        probe = empty_rectangle_search(patch, 0.2, length)
        assert probe is not None
        assert probe.clearance(patch.points) > max(forest.VERIFY_MARGIN / 2, patch.max_error)
        with monkeypatch.context() as m:
            full_clearance(m, patch)
            assert empty_rectangle_search(patch, 0.2, length) == probe


def test_strip_clearance_checks_a_point_just_outside_the_sweep_strip(monkeypatch):
    """The one point beside the probe lies between half_w and half_w + eps
    across it: it is checked, sets the clearance, and the probe is the one
    the check over every point returns."""
    eps, length = 0.2, 4.0
    near, far = (1.0, 0.0), (0.0, 5.0)  # near is the shortest point: direction 0
    patch = Patch(np.array([near, (8.0, -0.35), (-8.0, -0.35), far]), 10.0)
    # the gap between the rows pw = -0.35 and pw = 0 puts the strip at -0.175
    checked = []
    clearance = RectangleProbe.clearance

    def record(probe, points):
        checked.extend(map(tuple, points))
        return clearance(probe, points)

    monkeypatch.setattr(RectangleProbe, "clearance", record)
    probe = empty_rectangle_search(patch, eps, length)
    assert probe == RectangleProbe(center=(0.0, -0.175), direction=0.0, width=eps,
                                   length=length)
    half_w = eps / 2 + forest.VERIFY_MARGIN
    assert half_w < 0.175 < half_w + eps
    assert near in checked and far not in checked
    assert clearance(probe, patch.points) == pytest.approx(0.175 - eps / 2)
    full_clearance(monkeypatch, patch)
    assert empty_rectangle_search(patch, eps, length) == probe


def test_rational_axis_rays_strip():
    # alpha = 1/2 puts every point on the x axis
    pts = np.array([[spiral_point(RationalAngle(1, 2), n).x, 0.0] for n in range(1, 901)])
    patch = Patch(pts, 30.0)
    probe = empty_rectangle_search(patch, 0.2, 20.0)
    assert probe is not None
    assert not probe.contains(pts).any()


def test_search_validations():
    with pytest.raises(InvalidSpec):
        empty_rectangle_search(z2_patch(10.0), 0.5, 21.0)  # hypot(21, 0.5) / 2 > window
    with pytest.raises(InvalidSpec):
        empty_rectangle_search(z2_patch(10.0), 2.0, 1.0)  # eps > length


def test_rectangle_longer_than_the_window_radius_fits_its_disk():
    """A 0.5 x 12 rectangle needs a disk of radius hypot(12, 0.5) / 2, not 12."""
    patch = z2_patch(10.0)
    probe = empty_rectangle_search(patch, 0.5, 12.0)
    assert probe is not None
    assert not probe.contains(patch.points).any()
    assert probe.clearance(patch.points) > 0
    assert max(math.hypot(*c) for c in probe.corners()) <= patch.window_radius


def test_spiral_witnesses_far_out():
    for length in (10.0, 20.0):
        w = spiral_empty_rectangle_search(GOLDEN, 2000.0, 0.2, length)
        assert w is not None
        assert not w.local_probe.contains(w.patch.points).any()
        assert max(math.hypot(*c) for c in w.probe.corners()) <= 2000.0


@pytest.mark.parametrize("radius", [5.0, math.inf, math.nan])
def test_spiral_search_needs_a_finite_radius_past_the_rectangle(radius):
    with pytest.raises(InvalidSpec):
        spiral_empty_rectangle_search(GOLDEN, radius, 0.2, 10.0)


def test_n_min_past_the_rim_is_refused():
    # R = 300, V = 10: local radius 7.2, rim index int(292.8^2) = 85731
    with pytest.raises(InvalidSpec, match=r"n_min 200000 .*rim index 85731"):
        spiral_empty_rectangle_search(GOLDEN, 300.0, 0.2, 10.0, n_min=200_000)
    w = spiral_empty_rectangle_search(GOLDEN, 300.0, 0.2, 10.0, n_min=85_731)
    assert w is not None and w.center_index == 85_731


def test_search_without_witness_lists_one_window(monkeypatch):
    """A search that finds nothing lists the rim window alone and gives None."""
    calls = []
    window = forest.recentered_window

    def record(alpha, n, radius, **kwargs):
        calls.append(n)
        return window(alpha, n, radius, **kwargs)

    monkeypatch.setattr(forest, "recentered_window", record)
    assert spiral_empty_rectangle_search(GOLDEN, 60.0, 1.0, 40.0) is None
    # V = 40, eps = 1: local radius 23, rim index int((37 - 1e-9)^2) = 1368
    assert calls == [1368]


def test_spiral_witness_rational_half_strip():
    w = spiral_empty_rectangle_search(RationalAngle(1, 2), 500.0, 0.2, 30.0)
    assert w is not None
    assert not w.local_probe.contains(w.patch.points).any()


def test_first_direction_is_the_shortest_point():
    """The rectangle lies along the patch's shortest nonzero point; on a
    collinear rational window that is the ray through the center, mod pi."""
    alpha, n = parse_angle("rat:13/21"), 10**6 + 5
    win, offsets, errs = recentered_window(alpha, n, 12.0)
    patch = Patch(offsets, 12.0, point_errors=errs)
    probe = empty_rectangle_search(patch, 0.2, 10.0)
    assert probe is not None
    center = spiral_point(alpha, n)
    ray = math.atan2(center.y, center.x) % math.pi
    gap = abs(probe.direction - ray)
    assert min(gap, math.pi - gap) < 1e-9
    assert min(ray, math.pi - ray) > 0.1  # not 0, where a grid fixed to the axes starts


def test_search_without_witness_scans_one_direction():
    """A search that finds nothing projects the window on one pair of axes,
    along its shortest point and across it, and sweeps no other direction."""
    seen = []

    class Projections(np.ndarray):
        """Points that record each vector they are projected on."""

        def __matmul__(self, other):
            seen.append(tuple(other))
            return np.asarray(self) @ other

    # the rim window of spiral_empty_rectangle_search(GOLDEN, 60.0, 1.0, 40.0)
    win, offsets, errs = recentered_window(GOLDEN, 1368, 23.0)
    patch = Patch(offsets, 23.0, point_errors=errs)
    patch.points = patch.points.view(Projections)
    assert empty_rectangle_search(patch, 1.0, 40.0) is None
    (ux, uy), (wx, wy) = seen
    assert (wx, wy) == (-uy, ux)


# --- independent re-verification ----------------------------------------------

def oracle_points(spec, indices):
    """Spiral points x_m from the oracle's exact alpha, one Fraction per index."""
    alpha = window_oracle.alpha_fraction(spec)
    turns = np.array([float(alpha * m % 1) for m in indices])
    r = np.sqrt(np.asarray(indices, dtype=np.float64))
    return np.column_stack([r * np.cos(2 * np.pi * turns), r * np.sin(2 * np.pi * turns)])


@pytest.mark.parametrize("spec", ["quad:1,1,2,5", "quad:0,1,1,2", "rat:1/2", "rat:13/21"])
@pytest.mark.parametrize("length", [10.0, 20.0, 40.0])
def test_witness_window_matches_the_brute_force_oracle(spec, length):
    """The witness's window holds every spiral point of its disk, and no point
    of that disk, enumerated by the brute-force oracle, lies in the rectangle."""
    radius = 300.0
    w = spiral_empty_rectangle_search(parse_angle(spec), radius, 0.2, length)
    assert w is not None
    local_r = w.patch.window_radius
    indices, undecided = window_oracle.window_indices(spec, w.center_index, local_r)
    assert not undecided
    assert len(indices) == len(w.patch)
    center = oracle_points(spec, [w.center_index])[0]
    # the rectangle lies inside the window's disk, so no point outside it can enter
    assert max(math.hypot(*(c - center)) for c in w.probe.corners()) <= local_r
    assert max(math.hypot(*c) for c in w.probe.corners()) <= radius
    pts = oracle_points(spec, indices)
    assert not w.probe.contains(pts).any()
    assert w.probe.clearance(pts) > forest.VERIFY_MARGIN / 4


@pytest.mark.parametrize("alpha", [GOLDEN, parse_angle("quad:0,1,1,2")])
@pytest.mark.parametrize("length, radius", [(100.0, 5e4), (300.0, 5e5), (1000.0, 1e7)])
def test_long_witnesses_far_out(alpha, length, radius):
    """0.2 x V witnesses up to V = 1000, found in the first rim window."""
    w = spiral_empty_rectangle_search(alpha, radius, 0.2, length)
    assert w is not None
    local_r = length / 2 + 0.2 + 2
    assert w.patch.window_radius == local_r
    assert w.center_index == int((radius - local_r - 1e-9) ** 2)
    assert not w.local_probe.contains(w.patch.points).any()
    assert w.local_probe.clearance(w.patch.points) > w.patch.max_error
    assert max(math.hypot(*c) for c in w.local_probe.corners()) <= local_r
    assert max(math.hypot(*c) for c in w.probe.corners()) <= radius
