"""Density, Delone constants, and empty-rectangle witnesses."""

import math

import numpy as np
import pytest

from spirallimits import GOLDEN, InvalidSpec, RationalAngle
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
from spirallimits.spiral import spiral_point


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
    with pytest.raises(InvalidSpec):
        density_ratio(GOLDEN, 0.5)


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


def test_probe_within_point_error_moves_to_next_direction(monkeypatch):
    """A probe that clears the verification margin but not the point error
    ends its direction: the search returns the first probe of the next one,
    after one clearance check of the rejected probe."""
    ball = z2_patch(10.0)
    patch = Patch(ball.points, 10.0, point_errors=np.full(len(ball), 1e-6))
    assert empty_rectangle_search(patch, 0.5, 8.0).direction == 0.0
    true_clearance = RectangleProbe.clearance
    asked = []

    def within_error(probe, points):
        if probe.direction == 0.0:  # as if a point sat within its error of the box
            asked.append(probe)
            return patch.max_error / 2
        return true_clearance(probe, points)

    monkeypatch.setattr(RectangleProbe, "clearance", within_error)
    probe = empty_rectangle_search(patch, 0.5, 8.0)
    assert probe == RectangleProbe(center=(0.24999999999999994, -0.25),
                                   direction=math.pi / 4, width=0.5, length=8.0)
    assert len(asked) == 1
    assert true_clearance(probe, patch.points) > patch.max_error


def test_rational_axis_rays_strip():
    # alpha = 1/2 puts every point on the x axis
    pts = np.array([[spiral_point(RationalAngle(1, 2), n).x, 0.0] for n in range(1, 901)])
    patch = Patch(pts, 30.0)
    probe = empty_rectangle_search(patch, 0.2, 20.0)
    assert probe is not None
    assert not probe.contains(pts).any()


def test_search_validations():
    with pytest.raises(InvalidSpec):
        empty_rectangle_search(z2_patch(10.0), 0.5, 12.0)  # length > window
    with pytest.raises(InvalidSpec):
        empty_rectangle_search(z2_patch(10.0), 2.0, 1.0)  # eps > length


def test_spiral_witnesses_far_out():
    for length in (10.0, 20.0):
        w = spiral_empty_rectangle_search(GOLDEN, 2000.0, 0.2, length)
        assert w is not None
        assert not w.local_probe.contains(w.patch.points).any()
        assert max(math.hypot(*c) for c in w.probe.corners()) <= 2000.0


def test_spiral_witness_rational_half_strip():
    w = spiral_empty_rectangle_search(RationalAngle(1, 2), 500.0, 0.2, 30.0)
    assert w is not None
    assert not w.local_probe.contains(w.patch.points).any()
