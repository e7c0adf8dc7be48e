"""Chabauty-Fell distance between finite windows of closed planar sets.

A Patch is a complete window: it contains every point of the underlying set
inside the closed ball B_W(0).  Delta(A, B) is the infimum over eps of the
two-sided condition that every point a of A with |a| <= 1/eps and
|a| + eps <= W_B lies within eps of B (and symmetrically).  The second bound
keeps every eps-partner of a constrained point inside the other complete
window, so a point at the rim is not held against a partner just outside it.

A point p stops constraining eps once eps > min(1/|p|, W_other - |p|) and is
satisfied once eps >= nn(p), its distance to the other patch, so its feasible
eps form an up-ray from min(nn(p), 1/|p|, W_other - |p|).  Delta is the
largest of these starts (0 when there are none): one nearest-neighbour query
per side.  Point errors widen the result to a bracket on Delta of the exact
sets.  Values below the window-certification threshold (1/eps + eps <= min W)
are still reported -- they are exact for the patches -- but flagged
uncertified for the underlying infinite sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, SpiralLimitsError, WindowTooSmall


@dataclass
class Patch:
    """Complete finite window of a closed set inside B_W(0).

    Construction checks that the radius is positive (not NaN), that every
    coordinate is finite, that every point lies within W (plus 1e-9), that
    the points are pairwise distinct as rows compared exactly, so -0.0
    equals 0.0 and points one ulp apart are distinct, and that
    ``point_errors``, when given, holds one finite value >= 0 per point.
    Distinctness is checked by sorting the rows and comparing neighbours
    column by column.
    Completeness is the caller's contract; windows built by the spiral and
    lattice enumerators satisfy it by construction.
    """

    points: np.ndarray
    window_radius: float
    provenance: str = ""
    point_errors: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        self.points = pts
        # written as "not > 0" so that a NaN radius is rejected too
        if not self.window_radius > 0:
            raise InvalidSpec("window radius must be positive")
        if len(pts):
            if not np.isfinite(pts).all():
                raise InvalidSpec("patch points must be finite")
            norms = np.hypot(pts[:, 0], pts[:, 1])
            if norms.max() > self.window_radius + 1e-9:
                raise InvalidSpec(
                    f"point at {norms.max():.6g} outside window {self.window_radius}"
                )
            if len(pts) > 1:
                # equal rows are adjacent once sorted (NaN is excluded above)
                order = np.lexsort((pts[:, 1], pts[:, 0]))
                x, y = pts[order, 0], pts[order, 1]
                if ((x[1:] == x[:-1]) & (y[1:] == y[:-1])).any():
                    raise InvalidSpec("patch points must be pairwise distinct")
        if self.point_errors is not None:
            errs = np.asarray(self.point_errors, dtype=np.float64)
            if errs.shape != (len(pts),) or not (np.isfinite(errs) & (errs >= 0)).all():
                raise InvalidSpec("point errors must be one finite value >= 0 per point")
            self.point_errors = errs

    def __len__(self):
        return len(self.points)

    @property
    def max_error(self) -> float:
        """Largest of ``point_errors``; 0 when there are none."""
        errs = self.point_errors
        return 0.0 if errs is None else float(np.max(errs, initial=0.0))

    @classmethod
    def empty(cls, window_radius: float, provenance: str = "") -> "Patch":
        return cls(np.empty((0, 2)), window_radius, provenance)

    def nearest(self, queries=None) -> np.ndarray:
        """Distance from each query row to the nearest patch point.

        Without ``queries``, each point's distance to its nearest other
        point.  Distances are inf where the patch has no (other) point.
        Every nearest-neighbour query in the package goes through this
        method.  Its k-d tree library is imported on the first call, so
        importing the package and running a command that queries no tree
        never loads it; where it is missing, the call raises
        SpiralLimitsError naming it.
        """
        own = queries is None
        q = self.points if own else np.asarray(queries, dtype=np.float64).reshape(-1, 2)
        if len(self) < (2 if own else 1) or not len(q):
            return np.full(len(q), np.inf)
        spatial = _spatial()
        if own:
            return spatial.cKDTree(q).query(q, k=2)[0][:, 1]
        return spatial.cKDTree(self.points).query(q, k=1)[0]

    def voronoi_vertices(self) -> np.ndarray:
        """Vertices of the points' Voronoi diagram as (k, 2) rows; none where
        Qhull finds no diagram (under three points, or all on one line)."""
        if len(self) < 3:
            return np.empty((0, 2))
        spatial = _spatial()
        try:
            return spatial.Voronoi(self.points).vertices
        except spatial.QhullError:
            return np.empty((0, 2))


def _spatial():
    """scipy.spatial, imported on first use; SpiralLimitsError where missing."""
    try:
        from scipy import spatial
    except ImportError as exc:
        raise SpiralLimitsError(f"spatial queries need scipy: {exc}") from exc
    return spatial


@dataclass(frozen=True)
class DeltaResult:
    """Delta(A, B) for two patches, with a bracket from the point errors.

    ``value`` is Delta of the patches as given.  When every point of A and B
    is within e_A and e_B of its exact position (the largest ``point_errors``
    of each patch, 0 without them), Delta of the exact sets lies in
    [lower, upper] = [value - e_A - e_B, value + e_A + e_B] wherever
    upper <= 1; lower is clamped at 0.  ``certified`` states whether
    1/lower + lower <= min(W_A, W_B), i.e. whether truncation to the windows
    could not have changed the answer for the underlying sets.
    """

    value: float
    lower: float
    upper: float
    certified_radius: float
    certified: bool


def _thresholds(own: np.ndarray, other: Patch) -> np.ndarray:
    """min(nn(p), 1/|p|, W_other - |p|) for every point p of ``own``."""
    norms = np.hypot(own[:, 0], own[:, 1])
    with np.errstate(divide="ignore"):
        escape = 1.0 / norms
    return np.minimum(np.minimum(other.nearest(own), escape), other.window_radius - norms)


def delta(a: Patch, b: Patch) -> DeltaResult:
    """Delta(A, B) = max(0, max over p in A u B of min(nn(p), 1/|p|, W_other - |p|))."""
    min_w = min(a.window_radius, b.window_radius)
    if min_w <= 1:
        raise WindowTooSmall("nothing is certifiable with window radius <= 1")
    value = float(np.max(np.concatenate([
        _thresholds(a.points, b),
        _thresholds(b.points, a),
    ]), initial=0.0))
    err = a.max_error + b.max_error
    lower = max(0.0, value - err)
    certified = lower > 0 and (1.0 / lower + lower) <= min_w
    return DeltaResult(value, lower, value + err, min_w, certified)


def chabauty_distance(a: Patch, b: Patch) -> float:
    """d(A, B) = min(1, Delta(A, B))."""
    res = delta(a, b)
    return min(1.0, res.value)
