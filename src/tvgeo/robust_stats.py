"""Robust location statistics: weighted geodesic l1-medians and median-distance
dispersion.

The median is computed by Weiszfeld iteration in a gnomonic (tangent-plane)
projection that is re-centered on the current iterate each step. The fixed
point of that scheme satisfies the first-order optimality condition of the
spherical median exactly, and ellipsoidal corrections are negligible at the
sub-hemisphere scales these statistics are used at. Point sets spanning more
than a hemisphere fall back to the medoid, which is well defined globally.

Cost: a Weiszfeld step is one projection per point, and the iterate stays a
pair of floats until the median returns. The medoid of n points makes one
pass of n(n-1)/2 unit-sphere chords, in O(n) memory, that brackets every
candidate's objective. It then measures geodesic_distance rows, 8n bytes
each, only for the candidates that can still win, and never one pair twice.
A hub with 200 ties in 40 cities scores 4-12 of its 200 candidates; a
uniform worldwide set scores 9-27 of 200 and 67-80 of 800. The worst case, a
set whose objectives all lie within the bracket's 1% of each other, is
n(n-1)/2 calls and 8n^2 bytes, no more than measuring every pair.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterable

from .geodesy import (
    MEAN_RADIUS_KM,
    GeoPoint,
    _unit_vector,
    central_angles,
    distance_bounds,
    geodesic_distance,
)

# The median's fixed stopping rule; the solver's descent guard reads TOL_KM.
TOL_KM = 0.01
MAX_ITER = 1000

# Iterate-to-point coincidence threshold (1 micrometre) and the 1 m nudge used
# to escape a non-optimal data point.
_COINCIDENT_KM = 1e-9
_NUDGE_KM = 0.001

# Beyond this angle from the weighted centroid the tangent plane is useless.
_MAX_SPREAD_COS = math.cos(math.radians(88.0))


@dataclass(frozen=True)
class WeightedPointSet:
    """A non-empty multiset of points with strictly positive finite weights
    whose sum is finite too, so no sum the median takes overflows."""

    points: tuple[GeoPoint, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        try:
            weights = tuple(map(float, self.weights))
            total = math.fsum(weights)
        except OverflowError:
            raise ValueError("a weight or the weight sum is too large for a float") from None
        if not points:
            raise ValueError("point set must not be empty")
        if len(weights) != len(points):
            raise ValueError(
                f"{len(points)} points but {len(weights)} weights"
            )
        # Positive weights with a finite sum are each finite, so one min and
        # one fsum check them all without a Python loop over the weights.
        if not (min(weights) > 0.0 and math.isfinite(total)):
            bad = next(w for w in weights if not 0.0 < w < math.inf)
            raise ValueError(f"weights must be positive and finite, got {bad!r}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def unweighted(cls, points: Iterable[GeoPoint]) -> "WeightedPointSet":
        pts = tuple(points)
        return cls(pts, (1.0,) * len(pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def weight_sum(self) -> float:
        return math.fsum(self.weights)


def geodesic_l1_median(s: WeightedPointSet) -> GeoPoint:
    """Weighted geodesic l1-median (geometric median) of a point set.

    Returns a point whose weighted distance sum is within TOL_KM (10 m) *
    total weight of the optimum; the Weiszfeld iteration stops at a step of
    at most TOL_KM, or after MAX_ITER (1000) steps at the latest. Degenerate
    inputs are handled exactly: a single point is returned as-is, and for
    two points the heavier one (first on ties) is returned, since any point
    of the connecting geodesic minimizes the two-point objective.
    """
    points = s.points
    weights = s.weights
    if len(points) == 1:
        return points[0]
    first = points[0]
    if all(p == first for p in points):
        return first
    if len(points) == 2:
        return points[0] if weights[0] >= weights[1] else points[1]

    vectors = [_unit_vector(p) for p in points]
    cx = math.fsum(w * v[0] for v, w in zip(vectors, weights))
    cy = math.fsum(w * v[1] for v, w in zip(vectors, weights))
    cz = math.fsum(w * v[2] for v, w in zip(vectors, weights))
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    if norm < 1e-9 * s.weight_sum:
        return _medoid(s)
    cx, cy, cz = cx / norm, cy / norm, cz / norm
    if min(v[0] * cx + v[1] * cy + v[2] * cz for v in vectors) < _MAX_SPREAD_COS:
        return _medoid(s)

    # The iterate is kept as the degrees a GeoPoint would be built from; each
    # step reads it back through GeoPoint's longitude normalization, so the
    # floats are those of a GeoPoint round trip without building one.
    lat = math.degrees(math.asin(max(-1.0, min(1.0, cz))))
    lon = math.degrees(math.atan2(cy, cx))
    # (sin lat, cos lat, lon) of each data point, in radians.
    trig = [
        (math.sin(math.radians(p.lat)), math.cos(math.radians(p.lat)), math.radians(p.lon))
        for p in points
    ]

    for _ in range(MAX_ITER):
        lat0 = math.radians(lat)
        lon0 = math.radians(((lon + 180.0) % 360.0) - 180.0)
        sin0, cos0 = math.sin(lat0), math.cos(lat0)

        xs: list[float] = []
        ys: list[float] = []
        rs: list[float] = []
        any_near = False
        for sin_lat, cos_lat, lon_j in trig:
            dlon = lon_j - lon0
            cos_d, sin_d = math.cos(dlon), math.sin(dlon)
            cos_c = sin0 * sin_lat + cos0 * cos_lat * cos_d
            if cos_c <= 1e-3:
                return _medoid(s)  # iterate wandered; projection no longer valid
            x = MEAN_RADIUS_KM * cos_lat * sin_d / cos_c
            y = MEAN_RADIUS_KM * (cos0 * sin_lat - sin0 * cos_lat * cos_d) / cos_c
            r = math.hypot(x, y)
            xs.append(x)
            ys.append(y)
            rs.append(r)
            if r < TOL_KM:
                any_near = True

        suppress_stop = False
        if any_near:
            near = [j for j in range(len(points)) if rs[j] < TOL_KM]
            # Iterate is on (or within tolerance of) a data point. Return
            # that point when the pull of the remaining points is no larger
            # than its weight (first-order optimality); snapping from within
            # tolerance keeps the objective inside the tol * weight budget.
            anchored_weight = sum(weights[j] for j in near)
            free = [j for j in range(len(points)) if rs[j] >= TOL_KM]
            px = math.fsum(weights[j] * xs[j] / rs[j] for j in free)
            py = math.fsum(weights[j] * ys[j] / rs[j] for j in free)
            pull = math.hypot(px, py)
            if pull <= anchored_weight + 1e-12:
                return points[near[0]]
            if min(rs[j] for j in near) < _COINCIDENT_KM:
                # Exact coincidence with a non-optimal point: the plain step
                # is numerically useless, so nudge 1 m along the pull.
                lat, lon = _unproject(
                    sin0, cos0, lon0, _NUDGE_KM * px / pull, _NUDGE_KM * py / pull
                )
                continue
            # Near a non-optimal data point a small step is stagnation, not
            # convergence; keep iterating.
            suppress_stop = True

        inv = [w / r for w, r in zip(weights, rs)]
        total = math.fsum(inv)
        new_x = math.fsum(map(operator.mul, inv, xs)) / total
        new_y = math.fsum(map(operator.mul, inv, ys)) / total
        move = math.hypot(new_x, new_y)
        lat, lon = _unproject(sin0, cos0, lon0, new_x, new_y)
        if move <= TOL_KM and not suppress_stop:
            return GeoPoint(lat, lon)
    return GeoPoint(lat, lon)


def dispersion(center: GeoPoint, s: WeightedPointSet) -> float:
    """Median geodesic distance from center to the points (weights ignored).

    Even-sized sets yield the mean of the two middle distances: the float
    statistics.median returns. Only the points that can hold a middle rank
    are measured: the k-th smallest distance lies between the k-th smallest
    lo and the k-th smallest hi of the points' geodesy.distance_bounds. A
    point whose hi is below the lower middle rank's floor is shorter than
    that rank, and one whose lo is above the upper middle rank's ceiling is
    longer, so dropping them shifts the middle ranks down by the count below
    and leaves their values.
    """
    points = s.points
    n = len(points)
    sigmas = central_angles(zip(repeat(_unit_vector(center)), map(_unit_vector, points)))
    lows, highs = zip(*map(distance_bounds, sigmas))
    lower, upper = (n - 1) // 2, n // 2  # the middle ranks, equal for odd n
    floor = sorted(lows)[lower]
    ceiling = sorted(highs)[upper]
    below = 0
    measured = []
    for p, lo, hi in zip(points, lows, highs):
        if hi < floor:
            below += 1
        elif lo <= ceiling:
            measured.append(geodesic_distance(center, p))
    measured.sort()
    if lower == upper:
        return measured[lower - below]
    return (measured[lower - below] + measured[upper - below]) / 2


def _unproject(sin0: float, cos0: float, lon0: float, x: float, y: float) -> tuple[float, float]:
    """The point at (x, y) km in the tangent plane at (asin(sin0), lon0), as
    (lat, lon) degrees with the longitude not yet normalized."""
    rho = math.hypot(x, y)
    if rho == 0.0:
        lat0 = math.asin(max(-1.0, min(1.0, sin0)))
        return math.degrees(lat0), math.degrees(lon0)
    c = math.atan(rho / MEAN_RADIUS_KM)
    sin_c, cos_c = math.sin(c), math.cos(c)
    lat = math.asin(max(-1.0, min(1.0, cos_c * sin0 + y * sin_c * cos0 / rho)))
    lon = lon0 + math.atan2(x * sin_c, rho * cos0 * cos_c - y * sin0 * sin_c)
    return math.degrees(lat), math.degrees(lon)


def _medoid(s: WeightedPointSet) -> GeoPoint:
    """The data point of least weighted distance sum, the first on ties.

    One pass over the unordered pairs brackets every candidate's objective
    without Vincenty: with sums[k] the sum of weights[j] times the central
    angle of points k and j, candidate k's objective is within
    geodesy.distance_bounds(sums[k], s.weight_sum). Candidates are scored
    exactly in ascending order of sums, that is of their upper bounds, and
    one whose lower bound exceeds the best objective so far cannot win, not
    even a tie. In that order the lower bound only rises while the best
    objective only falls, so once one candidate is pruned every later one is
    too: the scored candidates are a prefix of the order, and the loop stops
    at the first pruned one. Every first argmin is therefore scored, and
    (objective, index) picks it.

    An exact objective is the fsum of the candidate's row of distances,
    whose diagonal is the exact 0.0 a point's distance to itself is. The
    fsum is correctly rounded whatever the order of its terms, so it equals
    the point's l1 objective, the fsum of w_j * d(point, p_j). Distances are
    symmetric bit for bit (geodesic_distance orders its arguments), so a pair
    already in an earlier candidate's row is read from there: no pair is
    measured twice.
    """
    points = s.points
    weights = s.weights
    n = len(points)
    sums = [0.0] * n
    sigmas = central_angles(combinations(map(_unit_vector, points), 2))
    for k in range(n - 1):
        wk = weights[k]
        acc = 0.0
        # Row k's pairs come next, and zip stops on the range before drawing more.
        for j, sigma in zip(range(k + 1, n), sigmas):
            acc += weights[j] * sigma
            sums[j] += wk * sigma
        sums[k] += acc
    # A float sum of n non-negative products is off by under n + 1 half-ulps
    # of itself, an exact objective by 2, and the lower bound's own products
    # and difference by 3: shrinking sums by 4n epsilons covers them all.
    shrink = 1.0 - 4.0 * n * sys.float_info.epsilon

    rows: dict[int, array] = {}
    best_idx = -1
    best_obj = math.inf
    for k in sorted(range(n), key=sums.__getitem__):
        if distance_bounds(shrink * sums[k], s.weight_sum)[0] > best_obj:
            break
        p = points[k]
        row = array("d", bytes(8 * n))
        for j in range(n):
            if j != k:
                known = rows.get(j)
                row[j] = known[k] if known is not None else geodesic_distance(p, points[j])
        rows[k] = row
        obj = math.fsum(map(operator.mul, weights, row))
        if (obj, k) < (best_obj, best_idx):
            best_idx, best_obj = k, obj
    return points[best_idx]
