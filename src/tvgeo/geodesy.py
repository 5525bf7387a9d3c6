"""Geodesic primitives on the WGS84 ellipsoid.

Coordinates are degrees, distances kilometers throughout. The inverse solver
is Vincenty's method (T. Vincenty, Survey Review 23(176), 1975) with a
spherical fallback for the antipodal cases where the iteration degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator, NamedTuple

# WGS84 ellipsoid, kilometers.
WGS84_A_KM = 6378.137
WGS84_F = 1.0 / 298.257223563
WGS84_B_KM = WGS84_A_KM * (1.0 - WGS84_F)

# IUGG mean radius (2a + b) / 3; used only by the spherical fallback.
MEAN_RADIUS_KM = (2.0 * WGS84_A_KM + WGS84_B_KM) / 3.0

VINCENTY_MAX_ITERATIONS = 200
VINCENTY_TOLERANCE_RAD = 1e-12

_Vector = tuple[float, float, float]  # a point on the unit sphere, from _unit_vector


@dataclass(frozen=True, slots=True, init=False)
class GeoPoint:
    """A latitude/longitude pair in degrees.

    Longitude is normalized into [-180, 180) at construction so value
    equality is well defined; out-of-range latitude is an error, never
    clamped.
    """

    lat: float
    lon: float

    def __init__(self, lat: float, lon: float) -> None:
        # Each field is set once, through its slot (the class is frozen).
        latitude = float(lat)
        longitude = float(lon)
        if not -90.0 <= latitude <= 90.0:  # false for NaN too
            raise ValueError(f"latitude {lat!r} outside [-90, 90]")
        if not math.isfinite(longitude):
            raise ValueError(f"longitude {lon!r} is not finite")
        _set_lat(self, latitude)
        _set_lon(self, ((longitude + 180.0) % 360.0) - 180.0)


_set_lat = GeoPoint.__dict__["lat"].__set__
_set_lon = GeoPoint.__dict__["lon"].__set__


class Distance(NamedTuple):
    km: float
    approximate: bool  # True when the spherical fallback was used


def geodesic_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Geodesic distance in kilometers between two points.

    Accurate to well under 0.5 m for non-antipodal pairs. Antipodal and
    near-antipodal pairs (where Vincenty's iteration has no solution) fall
    back to a great-circle distance on the mean radius instead of failing;
    use geodesic_distance_detail to observe the fallback.
    """
    return geodesic_distance_detail(a, b).km


def geodesic_distance_detail(a: GeoPoint, b: GeoPoint) -> Distance:
    # Canonical argument order makes d(a, b) == d(b, a) bit-identical.
    if (b.lat, b.lon) < (a.lat, a.lon):
        a, b = b, a
    return _inverse(a.lat, a.lon, b.lat, b.lon)


def _antipodal(lat1: float, lon1: float, lat2: float, lon2: float) -> bool:
    if lat1 != -lat2:
        return False
    if abs(lat1) == 90.0:
        return True  # opposite poles; longitude is degenerate there
    return abs(lon1 - lon2) == 180.0


def _inverse(lat1: float, lon1: float, lat2: float, lon2: float) -> Distance:
    if lat1 == lat2 and lon1 == lon2:
        return Distance(0.0, False)
    if _antipodal(lat1, lon1, lat2, lon2):
        return Distance(_haversine(lat1, lon1, lat2, lon2), True)

    f = WGS84_F
    u1 = math.atan((1.0 - f) * math.tan(math.radians(lat1)))
    u2 = math.atan((1.0 - f) * math.tan(math.radians(lat2)))
    ell = math.radians(lon2 - lon1)
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam = ell
    for _ in range(VINCENTY_MAX_ITERATIONS):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.hypot(
            cos_u2 * sin_lam, cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam
        )
        if sin_sigma == 0.0:
            return Distance(0.0, False)  # effectively coincident
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
        if cos_sq_alpha == 0.0:
            cos2_sigma_m = 0.0  # equatorial geodesic
        else:
            cos2_sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = f / 16.0 * cos_sq_alpha * (4.0 + f * (4.0 - 3.0 * cos_sq_alpha))
        lam_prev = lam
        lam = ell + (1.0 - c) * f * sin_alpha * (
            sigma
            + c
            * sin_sigma
            * (cos2_sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos2_sigma_m * cos2_sigma_m))
        )
        if abs(lam - lam_prev) < VINCENTY_TOLERANCE_RAD:
            break
    else:
        # Near-antipodal pair: no convergence, approximate on the sphere.
        return Distance(_haversine(lat1, lon1, lat2, lon2), True)

    big_a, big_b = _series_ab(cos_sq_alpha)
    delta_sigma = _delta_sigma(big_b, sin_sigma, cos_sigma, cos2_sigma_m)
    return Distance(WGS84_B_KM * big_a * (sigma - delta_sigma), False)


def _series_ab(cos_sq_alpha: float) -> tuple[float, float]:
    """Vincenty's series coefficients A and B for the given cos^2(alpha)."""
    u_sq = cos_sq_alpha * (WGS84_A_KM**2 - WGS84_B_KM**2) / WGS84_B_KM**2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    return big_a, big_b


def _delta_sigma(big_b: float, sin_sigma: float, cos_sigma: float, cos2_sigma_m: float) -> float:
    """Vincenty's delta-sigma, shared by the inverse and direct problems."""
    return (
        big_b
        * sin_sigma
        * (
            cos2_sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos2_sigma_m * cos2_sigma_m)
                - big_b
                / 6.0
                * cos2_sigma_m
                * (-3.0 + 4.0 * sin_sigma * sin_sigma)
                * (-3.0 + 4.0 * cos2_sigma_m * cos2_sigma_m)
            )
        )
    )


def _haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * MEAN_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _unit_vector(p: GeoPoint) -> _Vector:
    """p as a point (x, y, z) on the unit sphere."""
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


# The least and greatest radii of curvature on WGS84: a(1 - e^2), the meridian
# radius at the equator, and a / sqrt(1 - e^2), both radii at a pole.
_WGS84_E_SQ = WGS84_F * (2.0 - WGS84_F)
MIN_RADIUS_KM = WGS84_A_KM * (1.0 - _WGS84_E_SQ)
MAX_RADIUS_KM = WGS84_A_KM / math.sqrt(1.0 - _WGS84_E_SQ)

# How far a computed geodesic_distance may fall outside its radius bracket.
_PAIR_SLACK_KM = 0.01


def central_angles(pairs: Iterable[tuple[_Vector, _Vector]]) -> Iterator[float]:
    """Unit-sphere central angles, in radians, of pairs of _unit_vector
    outputs, lazily: 2 asin(c / 2) for the chord c, pi past a diameter."""
    return (2.0 * math.asin(0.5 * c) if c < 2.0 else math.pi for c in starmap(math.dist, pairs))


def distance_bounds(sigma: float, weight: float = 1.0) -> tuple[float, float]:
    """(MIN_RADIUS_KM * sigma - slack, MAX_RADIUS_KM * sigma + slack), with
    slack = _PAIR_SLACK_KM (10 m) * weight: bounds on the computed
    geodesic_distance of a pair at central angle sigma. Term by term,
    sum(w_j * d_j) lies within distance_bounds(sum(w_j * sigma_j), sum(w_j))
    for w_j >= 0, up to the float sums' rounding, which the caller covers.

    - Geodetic latitude and longitude map the unit sphere onto the ellipsoid
      with local scales M (northward) and N (eastward), the meridian and
      prime vertical radii, both within [MIN_RADIUS_KM, MAX_RADIUS_KM]. So
      every curve on the ellipsoid is at least MIN_RADIUS_KM times as long
      as its preimage, and the image of the great-circle arc is at most
      MAX_RADIUS_KM * sigma long. The geodesic, the shortest curve, lies
      between: 6,335 and 6,400 km times sigma, a spread of
      (1 - e^2)^(-3/2) = 1.0101.
    - The slack covers the computation: Vincenty's error is sub-millimetre,
      and the chord's ~2e-15 rounding, which asin magnifies next to an
      antipode, moves sigma by at most 2 sqrt(2e-15) rad, 0.6 m. The
      spherical fallback's mean radius, which serves only pairs within a
      degree of antipodal, is over 0.4% (80 km) inside either bound.
    """
    slack = _PAIR_SLACK_KM * weight
    return MIN_RADIUS_KM * sigma - slack, MAX_RADIUS_KM * sigma + slack


# Chord ratio within which near_ties keeps a point: above the WGS84 spread
# MAX_RADIUS_KM / MIN_RADIUS_KM = (1 - e^2)^(-3/2) = 1.0101.
NEAR_TIE_RATIO = 1.02
_NEAR_TIE_RATIO_SQ = NEAR_TIE_RATIO * NEAR_TIE_RATIO
# (1 m)^2 in squared unit-sphere chord units.
_NEAR_TIE_SLACK = (1e-3 / WGS84_A_KM) ** 2


def near_ties(origin: _Vector, vectors: list[_Vector]) -> list[int]:
    """Indices, in input order, of the unit vectors (at least one, from
    _unit_vector) whose point may be geodesically nearest to origin's.

    Index i is kept when its squared chord c_i^2 to origin is at most
    r^2 c_min^2 + t^2, with r = NEAR_TIE_RATIO and t = 1 m on the unit
    sphere, so only the survivors need ranking by geodesic_distance. No
    dropped index can be a geodesic nearest:

    - A geodesic s of unit-sphere central angle sigma lies between
      MIN_RADIUS_KM * sigma and MAX_RADIUS_KM * sigma (distance_bounds): a
      spread of (1 - e^2)^(-3/2) = 1.0101.
    - The chord c = 2 sin(sigma / 2) is concave on [0, 2 pi] with c(0) = 0,
      so c(r sigma) <= r c(sigma) for r >= 1, and c is increasing up to pi.
      Hence a chord ratio above r implies an angle ratio above r (when
      r sigma_min > pi, r c_min >= 2 already, and no chord exceeds it).
    - A dropped i thus has sigma_i > 1.02 sigma_j, where j has the smallest
      chord, so s_j < (1.0101 / 1.02) s_i: s_i is longer by 0.97% of itself.
      That is over 9 mm when the slack decides (c_i above 1 m, s_i above
      0.99 m), far more than Vincenty's sub-millimetre error.
    - A chord computed from _unit_vector outputs is off by at most ~2e-15
      (~13 um). The slack lifts the bound on c by t^2 / (sqrt(r^2 c^2 + t^2)
      + r c) >= 6e-15 > (1 + r) * 2e-15 for every c <= 2, so rounding cannot
      drop a point that the exact chords would keep.
    """
    ox, oy, oz = origin
    chords = []
    for x, y, z in vectors:
        dx, dy, dz = x - ox, y - oy, z - oz
        chords.append(dx * dx + dy * dy + dz * dz)
    bound = _NEAR_TIE_RATIO_SQ * min(chords) + _NEAR_TIE_SLACK
    return [i for i, c in enumerate(chords) if c <= bound]


def destination(start: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Point reached from start after distance_km along the geodesic with the
    given initial bearing (Vincenty's direct method)."""
    if distance_km < 0.0:
        raise ValueError("distance must be non-negative")
    if distance_km == 0.0:
        return start

    f = WGS84_F
    alpha1 = math.radians(bearing_deg)
    sin_alpha1, cos_alpha1 = math.sin(alpha1), math.cos(alpha1)

    tan_u1 = (1.0 - f) * math.tan(math.radians(start.lat))
    cos_u1 = 1.0 / math.hypot(1.0, tan_u1)
    sin_u1 = tan_u1 * cos_u1

    sigma1 = math.atan2(tan_u1, cos_alpha1)
    sin_alpha = cos_u1 * sin_alpha1
    cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
    big_a, big_b = _series_ab(cos_sq_alpha)

    sigma = distance_km / (WGS84_B_KM * big_a)
    for _ in range(VINCENTY_MAX_ITERATIONS):
        cos2_sigma_m = math.cos(2.0 * sigma1 + sigma)
        sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
        delta_sigma = _delta_sigma(big_b, sin_sigma, cos_sigma, cos2_sigma_m)
        sigma_prev = sigma
        sigma = distance_km / (WGS84_B_KM * big_a) + delta_sigma
        if abs(sigma - sigma_prev) < VINCENTY_TOLERANCE_RAD:
            break

    cos2_sigma_m = math.cos(2.0 * sigma1 + sigma)
    sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
    lat2 = math.atan2(
        sin_u1 * cos_sigma + cos_u1 * sin_sigma * cos_alpha1,
        (1.0 - f)
        * math.hypot(sin_alpha, sin_u1 * sin_sigma - cos_u1 * cos_sigma * cos_alpha1),
    )
    lam = math.atan2(
        sin_sigma * sin_alpha1, cos_u1 * cos_sigma - sin_u1 * sin_sigma * cos_alpha1
    )
    c = f / 16.0 * cos_sq_alpha * (4.0 + f * (4.0 - 3.0 * cos_sq_alpha))
    ell = lam - (1.0 - c) * f * sin_alpha * (
        sigma
        + c * sin_sigma * (cos2_sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos2_sigma_m * cos2_sigma_m))
    )
    return GeoPoint(math.degrees(lat2), start.lon + math.degrees(ell))
