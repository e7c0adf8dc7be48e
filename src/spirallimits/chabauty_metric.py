"""Chabauty-Fell distance between finite windows of closed planar sets.

A Patch is a complete window: it contains every point of the underlying set
inside the closed ball B_W(0).  Delta(A, B) is the infimum over eps of the
two-sided condition  B_{1/eps}(0) cap A  subset  N_eps(B)  (and symmetric),
located by binary search on that monotone predicate.  Values below the
window-certification threshold (1/eps + eps <= min W) are still reported --
they are exact for the patches as finite sets -- but flagged uncertified for
the underlying infinite sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, SpiralLimitsError, WindowTooSmall

BRACKET_TOL = 1e-9


def kd_tree(points: np.ndarray):
    """k-d tree over ``points`` for nearest-neighbour queries.

    Every nearest-neighbour query in the package goes through this helper.
    The tree library is imported on the first call, so importing the package
    and running a command that queries no tree never loads it; where it is
    missing, the call raises SpiralLimitsError naming it.
    """
    try:
        from scipy.spatial import cKDTree
    except ImportError as exc:
        raise SpiralLimitsError(f"nearest-neighbour queries need scipy: {exc}") from exc

    return cKDTree(points)


@dataclass
class Patch:
    """Complete finite window of a closed set inside B_W(0).

    Construction checks that the radius is positive (not NaN), that every
    coordinate is finite, that every point lies within W (plus 1e-9), and
    that the points are pairwise distinct as rows compared exactly, so
    -0.0 equals 0.0 and points one ulp apart are distinct.  Distinctness is
    checked by sorting the rows and comparing neighbours.  Completeness is
    the caller's contract; windows built by the spiral and lattice
    enumerators satisfy it by construction.
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
                srt = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
                if (srt[1:] == srt[:-1]).all(axis=1).any():
                    raise InvalidSpec("patch points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    @classmethod
    def empty(cls, window_radius: float, provenance: str = "") -> "Patch":
        return cls(np.empty((0, 2)), window_radius, provenance)

    def rotated(self, angle: float) -> "Patch":
        c, s = math.cos(angle), math.sin(angle)
        rot = self.points @ np.array([[c, s], [-s, c]])
        return Patch(rot, self.window_radius, self.provenance + f" rot{angle:g}")

    def translated(self, offset) -> "Patch":
        pts = self.points + np.asarray(offset, dtype=np.float64)
        w = self.window_radius + float(np.hypot(*offset))
        return Patch(pts, w, self.provenance + " translated")


@dataclass(frozen=True)
class DeltaResult:
    """Result of the monotone-predicate binary search.

    value lies in [lower, upper]; upper - lower <= BRACKET_TOL.  ``certified``
    states whether 1/value + value <= min(W_A, W_B), i.e. whether truncation
    to the windows could not have changed the answer for the underlying sets.
    """

    value: float
    lower: float
    upper: float
    certified_radius: float
    certified: bool


class _SideIndex:
    """max over {a in A : |a| <= r} of dist(a, B), queryable per radius."""

    def __init__(self, own: np.ndarray, other: np.ndarray):
        if len(own) == 0:
            self.norms = np.empty(0)
            self.prefix = np.empty(0)
            return
        norms = np.hypot(own[:, 0], own[:, 1])
        if len(other):
            nn, _ = kd_tree(other).query(own, k=1)
        else:
            nn = np.full(len(own), np.inf)
        order = np.argsort(norms, kind="stable")
        self.norms = norms[order]
        self.prefix = np.maximum.accumulate(nn[order])

    def worst_within(self, r: float) -> float:
        """max dist(a, other) over |a| <= r; 0 if no such point."""
        k = int(np.searchsorted(self.norms, r, side="right"))
        if k == 0:
            return 0.0
        return float(self.prefix[k - 1])


def _feasible(side_ab: _SideIndex, side_ba: _SideIndex, eps: float) -> bool:
    if eps <= 0:
        return False
    r = 1.0 / eps
    return side_ab.worst_within(r) <= eps and side_ba.worst_within(r) <= eps


def delta(a: Patch, b: Patch, *, strict: bool = False) -> DeltaResult:
    """Binary search for Delta(A, B) with bracket width <= 1e-9.

    With ``strict`` the certification condition is enforced by raising
    WindowTooSmall instead of returning an uncertified value.
    """
    min_w = min(a.window_radius, b.window_radius)
    if min_w <= 1:
        raise WindowTooSmall("nothing is certifiable with window radius <= 1")
    if len(a) == 0 and len(b) == 0:
        return DeltaResult(0.0, 0.0, 0.0, min_w, False)
    side_ab = _SideIndex(a.points, b.points)
    side_ba = _SideIndex(b.points, a.points)
    # identical point sets: every constraint is satisfied for every eps > 0
    if (
        len(a)
        and len(b)
        and side_ab.worst_within(math.inf) == 0.0
        and side_ba.worst_within(math.inf) == 0.0
    ):
        # exact for the windows as finite sets; never certifiable for the
        # underlying sets, which may differ beyond min W
        return DeltaResult(0.0, 0.0, 0.0, min_w, False)
    hi = 1.0
    for _ in range(80):
        if _feasible(side_ab, side_ba, hi):
            break
        hi *= 2.0
    else:
        # a point at the origin on one side with nothing on the other
        if strict:
            raise WindowTooSmall("distance is infinite; windows irrelevant")
        return DeltaResult(math.inf, math.inf, math.inf, min_w, False)
    lo = 0.0
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        if _feasible(side_ab, side_ba, mid):
            hi = mid
        else:
            lo = mid
    value = hi
    certified = value > 0 and (1.0 / value + value) <= min_w
    if strict and not certified:
        raise WindowTooSmall(
            f"delta={value:.6g} needs window radius >= {1.0 / value + value:.6g}, "
            f"have {min_w:.6g}"
        )
    return DeltaResult(value, lo, hi, min_w, certified)


def chabauty_distance(a: Patch, b: Patch) -> float:
    """d(A, B) = min(1, Delta(A, B))."""
    res = delta(a, b)
    return min(1.0, res.value)


@dataclass(frozen=True)
class CauchyReport:
    """Convergence diagnostics for a sequence of patches."""

    distances: list
    monotone_nonincreasing: bool
    tail_max: float
    tol: float
    converged: bool


def cauchy_report(patches, tol: float) -> CauchyReport:
    """Successive Chabauty distances with a tail-based convergence verdict."""
    patches = list(patches)
    if len(patches) < 3:
        raise InvalidSpec("need at least 3 patches")
    w = patches[0].window_radius
    for p in patches[1:]:
        if abs(p.window_radius - w) > 1e-12:
            raise InvalidSpec("patches must share a window radius")
    dists = [
        chabauty_distance(patches[i], patches[i + 1]) for i in range(len(patches) - 1)
    ]
    tail = max(1, len(dists) // 3)
    tail_max = max(dists[-tail:])
    monotone = all(dists[i + 1] <= dists[i] + BRACKET_TOL for i in range(len(dists) - 1))
    return CauchyReport(
        distances=dists,
        monotone_nonincreasing=monotone,
        tail_max=tail_max,
        tol=tol,
        converged=tail_max < tol,
    )
