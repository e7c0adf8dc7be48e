"""Density, Delone constants, and dense-forest diagnostics.

The empty-rectangle search is witness-producing and one-sided: a returned
probe verifiably contains no window point, while "none" only means the search
exhausted its resolution, never that the set is a dense forest.  The search
fits no lattice and queries no nearest-neighbour tree, so it needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chabauty_metric import Patch
from .errors import InvalidSpec, WindowTooLarge
from .number_theory import AngleSpec
from .spiral import recentered_window

VERIFY_MARGIN = 1e-9
_MAX_GRID_SAMPLES = 4_000_000  # budget of one covering pass's square sample grid


# ---------------------------------------------------------------------------
# density and Delone constants
# ---------------------------------------------------------------------------

def density_ratio(alpha: AngleSpec, r: float, n_min: int = 1) -> float:
    """#(B_r(0) cap X) / r^2, X indexed from max(n_min, 0); |x_n| = sqrt(n)."""
    if not 1 <= r < math.inf:
        raise InvalidSpec("radius must be finite and >= 1")
    count = max(0, math.floor(Fraction(r) ** 2) - max(n_min, 0) + 1)
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
        # absolute alignment: refining the step must move samples toward holes;
        # clamped, so a ratio too large for a float fails the budget below
        k = math.floor(min(lim / grid_step, _MAX_GRID_SAMPLES))
        if (2 * k + 1) ** 2 > _MAX_GRID_SAMPLES:
            raise WindowTooLarge(f"grid step {grid_step:g} puts more than {_MAX_GRID_SAMPLES} "
                                 f"samples in a radius-{lim:g} covering grid")
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


def empty_rectangle_search(patch: Patch, eps: float, length: float) -> RectangleProbe | None:
    """Search for an empty eps x length rectangle inside the patch window.

    The rectangle lies along the patch's shortest nonzero point: the rows of
    a lattice parallel to its shortest vector are the farthest apart, and a
    collinear window's shortest point lies along its line.  Offsets across
    that direction sweep gap midpoints and an eps/4 grid; an offset is tried
    only where the window's chord is at least ``length`` long, so every probe
    lies inside the window.  The window must be able to hold the rectangle:
    its radius is at least hypot(length, eps) / 2.  The first probe that
    clears every point by more than half the verification margin ends the
    search: it is returned when each point lies outside it by more than the
    patch's largest point error, and None is returned otherwise.  ``None``
    is not a proof of non-existence.
    """
    if eps <= 0 or length <= 0 or eps > length:
        raise InvalidSpec("need 0 < eps <= length")
    w_radius = patch.window_radius
    if w_radius < math.hypot(length, eps) / 2:
        raise InvalidSpec("the rectangle does not fit in the window: "
                          "need window radius >= hypot(length, eps) / 2")
    pts = patch.points
    norms = np.hypot(pts[:, 0], pts[:, 1])
    x, y = pts[np.argmin(np.where(norms > 0, norms, np.inf))] if len(pts) else (0.0, 0.0)
    phi = math.atan2(y, x) % math.pi  # 0 when no point is nonzero
    u = np.array([math.cos(phi), math.sin(phi)])
    wv = np.array([-u[1], u[0]])
    pu = pts @ u
    pw = pts @ wv
    pad = patch.max_error
    half_w = eps / 2 + VERIFY_MARGIN + pad
    # positive, as the window radius is at least hypot(length, eps) / 2 > eps / 2
    band = w_radius - eps / 2
    # offset candidates: midpoints of cross-direction gaps first, then a grid
    vals = np.unique(np.concatenate([pw, [-band, band]]))
    vals = vals[(vals >= -band - eps) & (vals <= band + eps)]
    gaps = np.diff(vals)
    mids = ((vals[:-1] + vals[1:]) / 2)[gaps >= eps + 2 * (VERIFY_MARGIN + pad)]
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
        if widths[k] >= length + 2 * (VERIFY_MARGIN + pad):
            t = (edges[k] + edges[k + 1]) / 2
            probe = RectangleProbe(
                center=(float(t * u[0] + s * wv[0]), float(t * u[1] + s * wv[1])),
                direction=phi,
                width=eps,
                length=length,
            )
            # A point with |pw - s| >= half_w + eps lies at least eps +
            # VERIFY_MARGIN + pad across the probe, up to rounding of about
            # 1e-14 * W (far below VERIFY_MARGIN / 2 for W < 1e4), so it
            # clears both thresholds below: the points of this wider strip
            # decide as all points would.
            near = np.abs(pw - s) < half_w + eps
            clear = probe.clearance(pts[near])
            if clear > VERIFY_MARGIN / 2:
                return probe if clear > pad else None
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
    strips of every length, so the search takes one complete local window at
    the rim and searches it; the rectangle is certified against the full
    spiral because the local window is complete and contains it.  The local
    window has radius length / 2 + eps + 2, just over the hypot(length, eps)
    / 2 that the rectangle needs, and is centered at the rim index
    int(rim^2), rim = window_radius - local radius.  An ``n_min`` past the
    rim index is refused, as that window would reach past the disk.  A
    rectangle that leaks outside the disk gives None.
    """
    local_r = length / 2 + eps + 2
    rim = window_radius - local_r - 1e-9
    if not 0 < rim < math.inf:
        raise InvalidSpec("window radius not finite or too small for the requested rectangle")
    if rim * rim == math.inf:  # a rim index too large for a float lies far past 2^63
        raise InvalidSpec(f"the radius-{window_radius:g} disk reaches past the int64 "
                          f"index limit 2^63")
    n_center = int(rim * rim)
    if n_min > n_center:
        raise InvalidSpec(f"n_min {n_min} is past the rim index {n_center} of the "
                          f"radius-{window_radius:g} disk")
    win, offsets, errs = recentered_window(alpha, n_center, local_r, n_min=n_min)
    patch = Patch(
        offsets,
        local_r,
        provenance=f"spiral {alpha.canonical()} n={n_center} W={local_r:g}",
        point_errors=errs,
    )
    probe = empty_rectangle_search(patch, eps, length)
    if probe is None:
        return None
    gc = (probe.center[0] + win.center[0], probe.center[1] + win.center[1])
    global_probe = RectangleProbe(
        center=gc, direction=probe.direction, width=eps, length=length
    )
    if max(np.hypot(*c) for c in global_probe.corners()) > window_radius:
        return None  # rectangle leaks outside the requested disk
    return SpiralForestWitness(
        probe=global_probe, center_index=n_center, local_probe=probe, patch=patch
    )
