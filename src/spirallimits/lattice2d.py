"""Planar lattice bases: Lagrange-Gauss reduction, enumeration, fitting.

Lattice equality is always set equality (mutual membership of generators),
never basis equality; a lattice has infinitely many bases and the experiments
compare lattices produced by unrelated routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chabauty_metric import Patch
from .errors import DegenerateBasis, InvalidSpec, NotALattice, WindowTooLarge
from .number_theory import FIT_TOL

_MAX_BALL_POINTS = 2_000_000
# reduction steps before a basis counts as nearly singular
_REDUCE_STEPS = 64


@dataclass
class Basis2:
    """Ordered pair of planar generators."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        self.v1 = np.asarray(self.v1, dtype=np.float64).reshape(2)
        self.v2 = np.asarray(self.v2, dtype=np.float64).reshape(2)

    @property
    def matrix(self) -> np.ndarray:
        """Generators as columns."""
        return np.column_stack([self.v1, self.v2])

    def det(self) -> float:
        return float(self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0])


@dataclass
class ReducedBasis2(Basis2):
    """Lagrange-reduced basis with the unimodular transform as certificate.

    matrix = original_matrix @ transform, det(transform) = +-1.
    """

    transform: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        if self.transform is None:
            self.transform = np.eye(2, dtype=np.int64)


def covolume(b: Basis2) -> float:
    """Area |det(v1, v2)| of the fundamental parallelogram."""
    d = abs(b.det())
    if d == 0.0:
        raise DegenerateBasis("zero determinant")
    return d


def gauss_reduce(b: Basis2) -> ReducedBasis2:
    """Lagrange-Gauss reduction: |v1| <= |v2|, |v1.v2| <= |v1|^2 / 2.

    v1 of the result is a shortest nonzero lattice vector.
    """
    if b.det() == 0.0:
        raise DegenerateBasis("cannot reduce a degenerate basis")
    v1, v2 = b.v1.copy(), b.v2.copy()
    t = np.eye(2, dtype=np.int64)
    if v1 @ v1 > v2 @ v2:
        v1, v2 = v2, v1
        t = t[:, ::-1].copy()
    for _ in range(_REDUCE_STEPS):
        mu = round(float(v1 @ v2) / float(v1 @ v1))
        v2 = v2 - mu * v1
        t[:, 1] -= mu * t[:, 0]
        if v2 @ v2 < v1 @ v1:
            v1, v2 = v2, v1
            t = t[:, ::-1].copy()
        else:
            break
    else:
        raise DegenerateBasis("reduction did not terminate; basis nearly singular")
    return ReducedBasis2(v1=v1, v2=v2, transform=t)


def lattice_ball(b: Basis2, radius: float) -> Patch:
    """Complete patch of all lattice points in the closed ball B_radius(0)."""
    if radius <= 0:
        raise InvalidSpec("radius must be positive")
    red = b if isinstance(b, ReducedBasis2) else gauss_reduce(b)
    d = covolume(red)
    n1 = math.hypot(*red.v1)
    n2 = math.hypot(*red.v2)
    # Cramer bounds: p = i v1 + j v2 with |p| <= R gives |i| <= R |v2| / d
    bi = int(math.floor(radius * n2 / d)) + 1
    bj = int(math.floor(radius * n1 / d)) + 1
    if (2 * bi + 1) * (2 * bj + 1) > _MAX_BALL_POINTS:
        raise WindowTooLarge(f"lattice ball would enumerate > {_MAX_BALL_POINTS} points")
    ii, jj = np.meshgrid(
        np.arange(-bi, bi + 1, dtype=np.int64),
        np.arange(-bj, bj + 1, dtype=np.int64),
        indexing="ij",
    )
    pts = ii[..., None] * red.v1 + jj[..., None] * red.v2
    pts = pts.reshape(-1, 2)
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= radius
    return Patch(pts[keep], radius, provenance="lattice_ball")


@dataclass(frozen=True)
class SameLatticeResult:
    equal: bool
    max_generator_distance: float
    covolume_gap: float
    witness: list  # integer coordinates of each generator in the other basis


def same_lattice(b1: Basis2, b2: Basis2, tol: float) -> SameLatticeResult:
    """Set equality test: generators mutually within tol of the other lattice."""
    cv1, cv2 = covolume(b1), covolume(b2)
    gap = abs(cv1 - cv2)
    worst = 0.0
    witness = []
    for src, dst in ((b1, b2), (b2, b1)):
        inv = np.linalg.inv(dst.matrix)
        for g in (src.v1, src.v2):
            coords = inv @ g
            k = np.rint(coords)
            dist = float(np.hypot(*(dst.matrix @ k - g)))
            worst = max(worst, dist)
            witness.append([int(k[0]), int(k[1])])
    return SameLatticeResult(
        equal=worst <= tol and gap <= tol,
        max_generator_distance=worst,
        covolume_gap=gap,
        witness=witness,
    )


@dataclass(frozen=True)
class LatticeFit:
    basis: ReducedBasis2
    residual: float


def fit_lattice(patch: Patch, tol: float = FIT_TOL) -> LatticeFit:
    """Fit a lattice to a complete patch containing the origin.

    v1 is the shortest nonzero patch point; v2 minimizes |det| among
    independent candidates no longer than 1.5x the shortest independent one.
    The fit must pass a two-sided check: every patch point in B_{W-tol} lies
    within tol of the lattice, and every lattice point in B_{W-tol} is matched
    by a patch point within tol (so a sublattice cannot be accepted).
    """
    pts = patch.points
    if len(pts) < 5:
        raise InvalidSpec("need at least 5 points to fit a lattice")
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if norms.min() > 1e-9:
        raise InvalidSpec("patch must contain the origin")
    w = patch.window_radius
    nz = pts[norms > 1e-9]
    nz_norms = np.hypot(nz[:, 0], nz[:, 1])
    order = np.lexsort((nz[:, 1], nz[:, 0], nz_norms))
    nz = nz[order]
    nz_norms = nz_norms[order]
    v1 = nz[0]
    n1 = nz_norms[0]
    # candidates independent of v1; threshold rejects noisy near-multiples
    line_dist = np.abs(nz[:, 0] * v1[1] - nz[:, 1] * v1[0]) / n1
    indep = line_dist > max(2 * tol, n1 / 4)
    if not indep.any():
        raise NotALattice("no candidate independent of the shortest vector")
    cand = nz[indep]
    cand_norms = nz_norms[indep]
    shortest = cand_norms.min()
    pool = cand[cand_norms <= 1.5 * shortest]
    dets = np.abs(v1[0] * pool[:, 1] - v1[1] * pool[:, 0])
    v2 = pool[int(np.argmin(dets))]
    basis = gauss_reduce(Basis2(v1, v2))

    inner = norms <= w - tol

    def residual_of(b):
        if not inner.any():
            return 0.0
        coords = pts[inner] @ np.linalg.inv(b.matrix).T
        nearest = np.rint(coords) @ b.matrix.T
        return float(np.hypot(*(pts[inner] - nearest).T).max())

    residual = residual_of(basis)
    # noise in the seed generators is amplified by the coordinate index, so
    # refine them by least squares over all rounded integer coordinates and
    # keep the refinement when it actually helps (exact data stays exact)
    refined = basis
    if inner.any():
        for _ in range(2):
            inv = np.linalg.inv(refined.matrix)
            coords = np.rint(pts[inner] @ inv.T)
            if np.linalg.matrix_rank(coords) < 2:
                break
            sol, *_ = np.linalg.lstsq(coords, pts[inner], rcond=None)
            step = Basis2(sol[0], sol[1])
            if abs(step.det()) < 1e-12:
                break
            refined = gauss_reduce(step)
        refined_residual = residual_of(refined)
        if refined_residual < residual:
            basis, residual = refined, refined_residual
    if residual >= tol:
        raise NotALattice(
            f"patch deviates from the fitted lattice by {residual:.4g} (tol {tol})"
        )
    ball = lattice_ball(basis, w - tol)
    missing = int((patch.nearest(ball.points) > tol).sum())
    if missing:
        raise NotALattice(
            f"{missing} lattice points in B_{w - tol:.3g} unmatched by the patch"
        )
    return LatticeFit(basis=basis, residual=residual)
