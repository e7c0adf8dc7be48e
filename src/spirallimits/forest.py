"""Density, Delone constants, and dense-forest diagnostics.

The empty-rectangle search is witness-producing and one-sided: a returned
probe verifiably contains no window point, while "none" only means the search
exhausted its resolution, never that the set is a dense forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chabauty_metric import Patch
from .errors import InvalidSpec, NotALattice, WindowTooLarge
from .lattice2d import fit_lattice
from .number_theory import AngleSpec
from .spiral import recentered_window

VERIFY_MARGIN = 1e-9
# cap on the uniform direction grid of one rectangle search
MAX_DIRECTIONS = 4096
# consecutive local windows near the rim tried by a spiral search
RIM_WINDOWS = 8


# ---------------------------------------------------------------------------
# density and Delone constants
# ---------------------------------------------------------------------------

def density_ratio(alpha: AngleSpec, r: float, n_min: int = 1) -> float:
    """#(B_r(0) cap X) / r^2; independent of alpha since |x_n| = sqrt(n)."""
    if r < 1:
        raise InvalidSpec("radius must be >= 1")
    count = math.floor(Fraction(r) ** 2) - n_min + 1
    return count / float(r) ** 2


@dataclass(frozen=True)
class DeloneConstants:
    """Packing radius and interior grid estimate of the covering radius."""

    packing: float
    covering_estimate: float
    window: str
    grid_step: float
    margin: float
    samples: int


def delone_constants(patch: Patch, grid_step: float) -> DeloneConstants:
    """Exact pairwise packing radius plus a grid covering estimate.

    Covering sampling is interior-only: a first pass estimates the covering
    radius, the second samples only locations whose covering disk provably
    stays inside the window, so missing points beyond the window cannot
    inflate the estimate.
    """
    pts = patch.points
    if len(pts) < 2:
        raise InvalidSpec("need at least two points")
    if grid_step <= 0:
        raise InvalidSpec("grid step must be positive")
    w = patch.window_radius
    packing = float(patch.nearest().min()) / 2

    def covering_pass(margin):
        lim = w - margin
        if lim <= 0:
            raise WindowTooLarge("window too small for the sampling margin")
        # absolute alignment: refining the step must move samples toward holes
        k = int(math.floor(lim / grid_step))
        ax = np.arange(-k, k + 1) * grid_step
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        samples = np.column_stack([gx.ravel(), gy.ravel()])
        samples = samples[np.hypot(samples[:, 0], samples[:, 1]) <= lim]
        if len(samples) == 0:
            raise WindowTooLarge("no interior samples at this grid step")
        dist = patch.nearest(samples)
        return float(dist.max()), len(samples)

    first, _ = covering_pass(max(grid_step, w / 10))
    margin = max(grid_step, first + grid_step)
    covering, n_samples = covering_pass(margin)
    return DeloneConstants(
        packing=packing,
        covering_estimate=covering,
        window=patch.provenance or f"patch W={w:g}",
        grid_step=grid_step,
        margin=margin,
        samples=n_samples,
    )


# ---------------------------------------------------------------------------
# empty rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectangleProbe:
    """eps x V rectangle: length along ``direction``, width across it."""

    center: tuple
    direction: float
    width: float
    length: float

    def axes(self):
        u = np.array([math.cos(self.direction), math.sin(self.direction)])
        return u, np.array([-u[1], u[0]])

    def corners(self) -> np.ndarray:
        u, w = self.axes()
        c = np.asarray(self.center)
        hu, hw = self.length / 2 * u, self.width / 2 * w
        return np.array([c + hu + hw, c + hu - hw, c - hu - hw, c - hu + hw])

    def contains(self, points: np.ndarray) -> np.ndarray:
        u, w = self.axes()
        rel = np.asarray(points, dtype=np.float64).reshape(-1, 2) - np.asarray(self.center)
        return (np.abs(rel @ u) <= self.length / 2) & (np.abs(rel @ w) <= self.width / 2)

    def clearance(self, points: np.ndarray) -> float:
        """min over points of the Chebyshev-style distance outside the box."""
        u, w = self.axes()
        rel = np.asarray(points, dtype=np.float64).reshape(-1, 2) - np.asarray(self.center)
        du = np.abs(rel @ u) - self.length / 2
        dw = np.abs(rel @ w) - self.width / 2
        return float(np.maximum(du, dw).min()) if len(rel) else math.inf


def _lattice_directions(patch: Patch):
    """Sparse directions of the local lattice, when one fits."""
    try:
        fit = fit_lattice(patch)
    except (NotALattice, InvalidSpec):
        return []
    v1, v2 = fit.basis.v1, fit.basis.v2
    dirs = []
    for v in (v1, v2, v1 + v2, v1 - v2):
        dirs.append(math.atan2(v[1], v[0]) % math.pi)
    return sorted(set(dirs))


def _search_direction(pts, w_radius, eps, length, phi, margin, pad):
    """Gap sweep for one direction; returns a probe or None.

    The first probe that clears every point by more than margin / 2 is
    returned when it also clears them by more than ``pad``; otherwise the
    direction gives None.
    """
    u = np.array([math.cos(phi), math.sin(phi)])
    wv = np.array([-u[1], u[0]])
    pu = pts @ u
    pw = pts @ wv
    half_w = eps / 2 + margin + pad
    band = w_radius - eps / 2
    if band <= 0:
        return None
    # offset candidates: midpoints of cross-direction gaps first, then a grid
    vals = np.unique(np.concatenate([pw, [-band, band]]))
    vals = vals[(vals >= -band - eps) & (vals <= band + eps)]
    gaps = np.diff(vals)
    mids = ((vals[:-1] + vals[1:]) / 2)[gaps >= eps + 2 * (margin + pad)]
    grid = np.arange(-band, band + eps / 8, eps / 4)
    offsets = np.concatenate([mids[np.argsort(np.abs(mids), kind="stable")], grid])
    for s in offsets:
        s_max = abs(s) + eps / 2
        if s_max >= w_radius:
            continue
        t_half = math.sqrt(w_radius**2 - s_max**2)
        if 2 * t_half < length:
            continue
        in_strip = np.abs(pw - s) < half_w
        us = np.sort(pu[in_strip])
        edges = np.concatenate([[-t_half], us, [t_half]])
        widths = np.diff(edges)
        k = int(np.argmax(widths))
        if widths[k] >= length + 2 * (margin + pad):
            t = (edges[k] + edges[k + 1]) / 2
            probe = RectangleProbe(
                center=(float(t * u[0] + s * wv[0]), float(t * u[1] + s * wv[1])),
                direction=phi,
                width=eps,
                length=length,
            )
            clear = probe.clearance(pts)
            if clear > margin / 2:
                return probe if clear > pad else None
    return None


def empty_rectangle_search(patch: Patch, eps: float, length: float) -> RectangleProbe | None:
    """Search for an empty eps x length rectangle inside the patch window.

    Candidate directions come from a fitted local lattice basis (the sparse
    directions of the limit lattices) followed by a uniform direction grid;
    offsets sweep gap midpoints and an eps/4 grid.  Every returned probe is
    re-verified point by point: each point lies outside it by more than the
    patch's largest point error.  ``None`` is not a proof of non-existence.
    """
    if eps <= 0 or length <= 0 or eps > length:
        raise InvalidSpec("need 0 < eps <= length")
    if patch.window_radius < length:
        raise InvalidSpec("window radius must be >= the rectangle length")
    pts = patch.points
    step = eps / (2 * length)
    n_dirs = min(MAX_DIRECTIONS, max(4, int(math.ceil(math.pi / step))))
    grid_dirs = [k * math.pi / n_dirs for k in range(n_dirs)]
    pad = patch.max_error
    for phi in _lattice_directions(patch) + grid_dirs:
        probe = _search_direction(pts, patch.window_radius, eps, length, phi, VERIFY_MARGIN, pad)
        if probe is not None:
            return probe
    return None


# ---------------------------------------------------------------------------
# far-field search over a spiral disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralForestWitness:
    probe: RectangleProbe  # global coordinates
    center_index: int
    local_probe: RectangleProbe
    patch: Patch  # local complete window used for verification


def spiral_empty_rectangle_search(alpha: AngleSpec, window_radius: float,
                                  eps: float, length: float, *,
                                  n_min: int = 1) -> SpiralForestWitness | None:
    """Find a verified empty rectangle inside B_{window_radius} of the spiral.

    Limit windows far from the origin approach lattices, which contain empty
    strips of every length, so the search probes complete local windows near
    the rim and searches them; the rectangle is certified against the full
    spiral because each local window is complete and contains it.
    """
    local_r = max(length, length / 2 + eps + 2)
    rim = window_radius - local_r - 1e-9
    if rim <= 0:
        raise InvalidSpec("window radius too small for the requested rectangle")
    n_center = int(rim * rim)
    for k in range(RIM_WINDOWS):
        n_c = max(n_min, n_center + k)
        win, offsets, errs = recentered_window(alpha, n_c, local_r, n_min=n_min)
        patch = Patch(
            offsets,
            local_r,
            provenance=f"spiral {alpha.canonical()} n={n_c} W={local_r:g}",
            point_errors=errs,
        )
        probe = empty_rectangle_search(patch, eps, length)
        if probe is None:
            continue
        gc = (probe.center[0] + win.center[0], probe.center[1] + win.center[1])
        global_probe = RectangleProbe(
            center=gc, direction=probe.direction, width=eps, length=length
        )
        far = max(np.hypot(*(c)) for c in global_probe.corners())
        if far > window_radius:
            continue  # rectangle leaks outside the requested disk
        return SpiralForestWitness(
            probe=global_probe, center_index=n_c, local_probe=probe, patch=patch
        )
    return None
