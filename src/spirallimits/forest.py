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
from .errors import InvalidSpec
from .number_theory import AngleSpec
from .spiral import recentered_window

VERIFY_MARGIN = 1e-9


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
    """Packing radius and a certified lower bound on the covering radius."""

    packing: float
    covering_lower: float
    covering_center: tuple
    window: str


def delone_constants(patch: Patch) -> DeloneConstants:
    """Pairwise packing radius and the largest empty disk found in B_W.

    A disk in B_W holding no window point holds no point of the set, as the
    window is complete.  Centers: the Voronoi vertices, and the point (W +
    tau) / 2 across the line along the shortest point, tau being the points'
    largest distance from it (W / 2 on a collinear window).  Center c gets
    radius min(nearest(c), W - |c|); the largest, less the point error (the
    nearest distance is 1-Lipschitz in the points) and 4 ulps of W for
    rounding, is ``covering_lower``, a lower bound on the covering radius.
    """
    pts = patch.points
    if len(pts) < 2:
        raise InvalidSpec("need at least two points")
    w = patch.window_radius
    packing = float(patch.nearest().min()) / 2
    _, _, across = _shortest_axis(pts)
    tau = float(np.abs(pts @ across).max())
    centers = np.vstack([patch.voronoi_vertices(), (w + tau) / 2 * across])
    radii = np.minimum(patch.nearest(centers), w - np.hypot(centers[:, 0], centers[:, 1]))
    best = int(np.argmax(radii))
    return DeloneConstants(
        packing=packing,
        covering_lower=float(radii[best]) - patch.max_error - 4 * math.ulp(w),
        covering_center=tuple(float(v) for v in centers[best]),
        window=patch.provenance or f"patch W={w:g}",
    )


def _shortest_axis(pts: np.ndarray):
    """Angle in [0, pi) of the shortest nonzero point (0 if none); unit vectors along, across.

    hypot is taken only where the squared norm is within a factor 1 + 1e-12
    of its smallest positive value: points of equal hypot have squares a few
    ulps apart, and a square that underflows (zero or below 1e-290) is always
    kept, so the first shortest point is the one a full hypot would pick.
    """
    x, y = 0.0, 0.0
    if len(pts):
        with np.errstate(over="ignore"):  # an overflowed square is inf, never the shortest
            sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
        near = np.flatnonzero(sq <= np.min(sq, where=sq > 0, initial=np.inf) * (1 + 1e-12) + 1e-290)
        norms = np.hypot(pts[near, 0], pts[near, 1])
        x, y = pts[near[np.argmin(np.where(norms > 0, norms, np.inf))]]
    phi = math.atan2(y, x) % math.pi
    u = np.array([math.cos(phi), math.sin(phi)])
    return phi, u, np.array([-u[1], u[0]])


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
    phi, u, wv = _shortest_axis(pts)
    pu = pts @ u
    pw = pts @ wv
    pad = patch.max_error
    half_w = eps / 2 + VERIFY_MARGIN + pad
    # positive, as the window radius is at least hypot(length, eps) / 2 > eps / 2
    band = w_radius - eps / 2
    # offset candidates: midpoints of cross-direction gaps first, then a grid.
    # A repeated value leaves a zero gap, which the gap test below rejects as
    # eps > 0, so sorting without dropping repeats gives np.unique's midpoints.
    vals = np.sort(np.concatenate([pw, [-band, band]]))
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
