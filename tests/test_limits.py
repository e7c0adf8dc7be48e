"""Prediction formulas, center construction, and the comparison pipeline."""

import math

import numpy as np
import pytest
from mpmath import mp

from spirallimits import GOLDEN, InvalidSpec, QuadraticAngle, RationalAngle
from spirallimits.lattice2d import covolume, same_lattice
from spirallimits.limits import (
    PredictionInput,
    center_indices,
    empirical_limit_patch,
    empirical_vs_predicted,
    group_closure_check,
    predicted_basis,
    rotation_orbit,
    theorem_form_basis,
)
from spirallimits.number_theory import convergent_determinant, convergents
from spirallimits.spiral import offset_between

S5 = math.sqrt(5)
PHI = (1 + S5) / 2


def sunflower_input(t=1.0, theta=0.0, sign=1):
    return PredictionInput(beta=PHI, c=sign / S5, ctilde=-sign / S5, t=t, theta=theta)


# --- closed forms ------------------------------------------------------------

def test_proof_form_sunflower():
    pl = predicted_basis(sunflower_input())
    assert np.allclose(pl.basis.v1, [1.0, math.pi / S5])
    assert np.allclose(pl.basis.v2, [PHI, -math.pi / (S5 * PHI)])
    assert abs(pl.basis.v1[1] - 1.4049629462081452) < 1e-12
    assert abs(pl.basis.v2[1] + 0.8683148536908239) < 1e-12


def test_proof_form_covolume_is_pi():
    # phi + 1/phi = sqrt(5) makes |ctilde/beta - beta*c| = 1 exactly
    for t in (0.5, 1.0, 2.0):
        for theta in (0.0, 0.7, 2.4):
            pl = predicted_basis(sunflower_input(t, theta))
            assert abs(pl.covolume - math.pi) < 1e-12
            assert abs(covolume(pl.basis) - math.pi) < 1e-12


def test_proof_form_rotation_action():
    pl = predicted_basis(sunflower_input(theta=math.pi / 2))
    assert np.allclose(pl.basis.v1, [-math.pi / S5, 1.0])


def test_theorem_form_sunflower():
    pl = theorem_form_basis(sunflower_input())
    rp = math.sqrt(math.pi)
    assert np.allclose(pl.basis.v1, [rp, rp * PHI])
    assert np.allclose(pl.basis.v2, [rp / S5, -rp / (S5 * PHI)])


def test_forms_share_determinant_but_not_lattice():
    rng = np.random.default_rng(2)
    for _ in range(20):
        beta = float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.1, 0.9))
        ct = -float(rng.uniform(0.1, 0.9))
        pin = PredictionInput(beta=beta, c=c, ctilde=ct,
                              t=float(rng.uniform(0.3, 2.0)),
                              theta=float(rng.uniform(0, 2 * math.pi)))
        a = predicted_basis(pin)
        b = theorem_form_basis(pin)
        expect = math.pi * abs(ct / beta - beta * c)
        assert abs(a.covolume - expect) < 1e-12
        assert abs(covolume(a.basis) - expect) < 1e-10
        assert abs(covolume(b.basis) - expect) < 1e-10
    res = same_lattice(
        predicted_basis(sunflower_input()).basis,
        theorem_form_basis(sunflower_input()).basis,
        0.05,
    )
    assert not res.equal  # the two published forms disagree for the sunflower


def test_prediction_input_validation():
    with pytest.raises(InvalidSpec):
        PredictionInput(beta=0.5, c=1.0, ctilde=-1.0, t=1.0, theta=0.0)
    with pytest.raises(InvalidSpec):
        PredictionInput(beta=2.0, c=1.0, ctilde=1.0, t=1.0, theta=0.0)
    with pytest.raises(InvalidSpec):
        PredictionInput(beta=2.0, c=1.0, ctilde=-1.0, t=0.0, theta=0.0)


# --- centers ------------------------------------------------------------------

def test_center_fibonacci_34_55():
    seq = center_indices(GOLDEN, 1.0, [9])
    e = seq.entries[0]
    assert (e.q, e.q_next) == (34, 55)
    assert e.n == 289  # round(34 * 55 / (4 phi)) = round(288.93)


def test_center_large_pair_computed_exactly():
    seq = center_indices(GOLDEN, 1.0, [20])
    e = seq.entries[0]
    assert (e.q, e.q_next) == (6765, 10946)
    with mp.workdps(40):
        expect = int(mp.nint(6765 * 10946 / (4 * (1 + mp.sqrt(5)) / 2)))
    assert e.n == expect


def test_center_scale_quarters_with_doubled_t():
    n1 = center_indices(GOLDEN, 1.0, [15]).entries[0].n
    n2 = center_indices(GOLDEN, 2.0, [15]).entries[0].n
    assert abs(n2 - n1 / 4) <= 1.0


def test_center_rejects_rational():
    with pytest.raises(InvalidSpec):
        center_indices(RationalAngle(1, 3), 1.0, [5])


def test_center_finite_beta_shift_is_small():
    a = center_indices(GOLDEN, 1.0, [12]).entries[0].n
    b = center_indices(GOLDEN, 1.0, [12], use_finite_beta=True).entries[0].n
    assert abs(a - b) <= 2


def test_finite_covolume_law_exact():
    for alpha in (GOLDEN, QuadraticAngle(0, 1, 1, 2), QuadraticAngle(0, 1, 1, 3),
                  QuadraticAngle(1, 1, 2, 13)):
        for j in range(1, 41):
            assert abs(convergent_determinant(alpha, j)) == 1


# --- empirical windows -----------------------------------------------------------

def test_patch_contains_origin_and_density():
    patch = empirical_limit_patch(GOLDEN, 289, 8.0)
    norms = np.hypot(patch.points[:, 0], patch.points[:, 1])
    assert norms.min() == 0.0
    assert abs(len(patch) - 64) <= 20  # count ~ W^2


def test_patch_window_minimum():
    with pytest.raises(InvalidSpec):
        empirical_limit_patch(GOLDEN, 289, 2.0)


def test_shortest_offsets_are_q_j_at_289():
    from spirallimits.spiral import recentered_window

    win, offsets, _ = recentered_window(GOLDEN, 289, 8.0)
    norms = np.hypot(offsets[:, 0], offsets[:, 1])
    nz = norms > 1e-9
    order = np.argsort(norms[nz])
    first_two = set(int(m) - 289 for m in win.indices[nz][order[:2]])
    assert first_two == {34, -34}  # q_9 = 34 in index offset


def test_group_closure_small_center_fails_farther_out_holds():
    near = group_closure_check(empirical_limit_patch(GOLDEN, 2000, 8.0), 0.05)
    far = group_closure_check(empirical_limit_patch(GOLDEN, 4370190, 8.0), 0.05)
    assert far.additive_violations == 0
    assert far.inversion_violations == 0
    assert far.additive_worst < near.additive_worst


# --- the pipeline -----------------------------------------------------------------

def test_pipeline_trend_and_adjudication():
    rep = empirical_vs_predicted(GOLDEN, 1.0, range(16, 22), 8.0)
    d_proof = [r.d_proof for r in rep.records]
    d_thm = [r.d_theorem for r in rep.records]
    assert all(p < t for p, t in zip(d_proof, d_thm))
    assert rep.verdict.startswith("proof_form")
    assert d_proof[-1] < d_proof[0]
    last = rep.records[-1]
    assert last.fit_ok
    assert abs(last.fitted_covolume - math.pi) < 0.02
    assert last.shortest_gap < 0.02


def test_pipeline_has_no_rim_plateau():
    """Windows whose lattice ball has points at the rim with no spiral partner
    inside W used to read Delta ~ 1/W = 0.125; their distances keep falling."""
    sqrt2 = QuadraticAngle(0, 1, 1, 2)
    rep = empirical_vs_predicted(sqrt2, 0.895396, range(12, 15), 8.0)
    assert all(r.d_proof < 0.05 for r in rep.records), [r.d_proof for r in rep.records]
    rep = empirical_vs_predicted(GOLDEN, 1.0, range(16, 19), 8.0)
    d_proof = [r.d_proof for r in rep.records]
    assert d_proof[0] > d_proof[1] > d_proof[2]
    # j = 16's plateau-free distance is 0.083; the plateau read 0.1256
    assert d_proof[0] < 0.1 and d_proof[2] < 0.05, d_proof


def test_pipeline_shortest_vector_matches_offset_vector():
    convs = convergents(GOLDEN, 22)
    rep = empirical_vs_predicted(GOLDEN, 1.0, [21], 8.0)
    rec = rep.records[0]
    ex, ey, _ = offset_between(GOLDEN, rec.n + convs[20].q, rec.n)
    assert rec.fit_ok
    gap = min(math.hypot(rec.fitted_v1[0] - ex, rec.fitted_v1[1] - ey),
              math.hypot(rec.fitted_v1[0] + ex, rec.fitted_v1[1] + ey))
    assert gap < 0.01


def test_pipeline_angle_consistency():
    from spirallimits.number_theory import class_triplet_limit

    rep = empirical_vs_predicted(GOLDEN, 1.0, [19, 20, 21], 8.0)
    for rec in rep.records:
        assert rec.fit_ok
        lim = class_triplet_limit(GOLDEN, rec.j)
        pin = PredictionInput(beta=float(lim.beta), c=float(lim.c),
                              ctilde=float(lim.ctilde), t=1.0, theta=rec.theta)
        v = predicted_basis(pin).basis.v1
        gap = min(np.hypot(*(np.array(rec.fitted_v1) - v)),
                  np.hypot(*(np.array(rec.fitted_v1) + v)))
        assert gap < 0.05


def test_rotation_orbit_identity_and_matches():
    n = center_indices(GOLDEN, 1.0, [20]).entries[0].n
    rep = rotation_orbit(GOLDEN, n, range(0, 4), 8.0)
    assert rep.entries[0].b == 0
    assert rep.entries[0].match
    assert rep.entries[0].max_generator_distance == 0.0
    assert rep.matches >= 3


def test_orbit_angles_equidistribute():
    # max gap of {frac(alpha b)} over b <= B shrinks as B grows
    from spirallimits.spiral import angle_fraction

    def max_gap(bmax):
        fr = sorted(float(angle_fraction(GOLDEN, b)[0]) for b in range(1, bmax + 1))
        gaps = [b - a for a, b in zip(fr, fr[1:])] + [1 - fr[-1] + fr[0]]
        return max(gaps)

    assert max_gap(40) < max_gap(10) < max_gap(3)
