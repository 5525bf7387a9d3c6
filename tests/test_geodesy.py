import copy
import dataclasses
import hashlib
import math
import pickle
import random

import pytest

from tvgeo.geodesy import (
    MAX_RADIUS_KM,
    MEAN_RADIUS_KM,
    MIN_RADIUS_KM,
    NEAR_TIE_RATIO,
    WGS84_A_KM,
    WGS84_F,
    GeoPoint,
    _unit_vector,
    central_angles,
    destination,
    distance_bounds,
    geodesic_distance,
    geodesic_distance_detail,
    near_ties,
)

from oracles import meridian_quadrant_km, oracle_distance_km


def random_point(rng, max_abs_lat=90.0):
    lat = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
    return GeoPoint(max(-max_abs_lat, min(max_abs_lat, lat)), rng.uniform(-180.0, 180.0))


def angular_separation_deg(a: GeoPoint, b: GeoPoint) -> float:
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dot = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(
        lon2 - lon1
    )
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


class TestGeoPoint:
    def test_longitude_wraps_modulo_360(self):
        assert GeoPoint(0.0, 190.0).lon == -170.0
        assert GeoPoint(0.0, 360.0).lon == 0.0
        assert GeoPoint(0.0, 180.0).lon == -180.0
        assert GeoPoint(0.0, -180.0).lon == -180.0
        assert GeoPoint(0.0, -540.0).lon == -180.0

    def test_normalized_points_compare_equal(self):
        assert GeoPoint(10.0, 190.0) == GeoPoint(10.0, -170.0)

    def test_out_of_range_latitude_is_an_error(self):
        with pytest.raises(ValueError):
            GeoPoint(90.0001, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(math.nan, 0.0)

    def test_non_finite_longitude_is_an_error(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, math.inf)

    def test_messages_name_the_value_as_given(self):
        with pytest.raises(ValueError, match=r"^latitude 91 outside \[-90, 90\]$"):
            GeoPoint(91, 0.0)
        with pytest.raises(ValueError, match=r"^latitude nan outside \[-90, 90\]$"):
            GeoPoint(math.nan, 0.0)
        with pytest.raises(ValueError, match=r"^longitude -inf is not finite$"):
            GeoPoint(0.0, -math.inf)

    def test_value_semantics(self):
        p = GeoPoint(45, 190)
        assert (p.lat, p.lon) == (45.0, -170.0)
        assert type(p.lat) is float and type(p.lon) is float
        assert repr(p) == "GeoPoint(lat=45.0, lon=-170.0)"
        assert p == GeoPoint(lat=45.0, lon=-170.0)
        assert hash(p) == hash(GeoPoint(45.0, -170.0))
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.copy(p) == p
        assert dataclasses.replace(p, lon=10.0) == GeoPoint(45.0, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lat = 0.0
        assert not hasattr(p, "__dict__")


class TestGeodesicDistance:
    def test_identity_is_exactly_zero(self):
        assert geodesic_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.0)) == 0.0

    def test_one_equatorial_degree(self):
        # One degree of equator: 2*pi*a / 360, confirmed by the oracle.
        expected = 2.0 * math.pi * WGS84_A_KM / 360.0
        got = geodesic_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert abs(got - expected) < 0.0005
        assert abs(got - oracle_distance_km(0.0, 0.0, 0.0, 1.0)) < 0.0005

    def test_pole_to_pole_takes_flagged_fallback(self):
        result = geodesic_distance_detail(GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0))
        assert result.approximate
        # Two quarter-meridian arcs from the oracle's closed form; the
        # spherical fallback lands within ~0.1% of that.
        true_half_meridian = 2.0 * meridian_quadrant_km()
        assert abs(result.km - true_half_meridian) < 15.0

    def test_equatorial_antipodes_take_flagged_fallback(self):
        result = geodesic_distance_detail(GeoPoint(0.0, 10.0), GeoPoint(0.0, -170.0))
        assert result.approximate
        assert abs(result.km - math.pi * MEAN_RADIUS_KM) < 1e-6

    def test_symmetry_is_bit_identical(self):
        rng = random.Random(101)
        for _ in range(300):
            a, b = random_point(rng), random_point(rng)
            assert geodesic_distance(a, b) == geodesic_distance(b, a)

    def test_zero_iff_equal_on_random_pairs(self):
        rng = random.Random(102)
        for _ in range(200):
            a, b = random_point(rng, 89.0), random_point(rng, 89.0)
            d = geodesic_distance(a, b)
            if a == b:
                assert d == 0.0
            else:
                assert d > 0.0
        assert geodesic_distance(GeoPoint(12.0, 55.0), GeoPoint(12.0, 55.0)) == 0.0

    def test_triangle_inequality_with_fallback_slack(self):
        rng = random.Random(103)
        for _ in range(300):
            a, b, c = random_point(rng), random_point(rng), random_point(rng)
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 0.001
            )

    def test_oracle_agreement_spot_check(self):
        # 50-pair spot check; the full 1000-pair run lives in acceptance.
        rng = random.Random(104)
        checked = 0
        while checked < 50:
            a, b = random_point(rng), random_point(rng)
            if angular_separation_deg(a, b) > 179.0:
                continue
            got = geodesic_distance(a, b)
            want = oracle_distance_km(a.lat, a.lon, b.lat, b.lon)
            assert abs(got - want) < 0.0005, (a, b)
            checked += 1


class TestDestination:
    def test_zero_distance_returns_start(self):
        start = GeoPoint(12.0, 34.0)
        assert destination(start, 77.0, 0.0) == start

    def test_roundtrip_against_inverse(self):
        rng = random.Random(105)
        for _ in range(100):
            start = random_point(rng, 80.0)
            bearing = rng.uniform(0.0, 360.0)
            dist = rng.uniform(0.001, 5000.0)
            end = destination(start, bearing, dist)
            assert abs(geodesic_distance(start, end) - dist) < 1e-6

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination(GeoPoint(0.0, 0.0), 0.0, -1.0)


def _separation_km(rng) -> float:
    """Log-uniform from 1 nm (below coordinate rounding, where the slack
    decides) through 1 um and 1 m to 1,000 km."""
    return 10.0 ** rng.uniform(-12.0, 3.0)


def _near_tie_sets() -> list[tuple[GeoPoint, list[GeoPoint]]]:
    """Seeded (origin, candidates) sets where near_ties' bound is tightest."""
    rng = random.Random(9003)
    sets = []
    for _ in range(300):  # equator: short meridian scale against the parallel
        origin = GeoPoint(0.0, rng.uniform(-180.0, 180.0))
        d = _separation_km(rng)
        # The meridian radius a(1 - e^2) is 0.67% below a, so chords rank
        # the east-west points first although the north-south ones are nearer.
        candidates = [destination(origin, rng.choice((90.0, 270.0)), d * rng.uniform(1.0, 1.008))
                      for _ in range(4)]
        candidates.insert(rng.randrange(5), destination(origin, rng.choice((0.0, 180.0)), d))
        sets.append((origin, candidates))
    for _ in range(200):  # at and beside a pole, where both radii are a / sqrt(1 - e^2)
        origin = GeoPoint(rng.choice((90.0, -90.0, 89.99999, -89.9)), rng.uniform(-180.0, 180.0))
        d = _separation_km(rng)
        candidates = [destination(origin, rng.uniform(0.0, 360.0), d * rng.uniform(1.0, 1.012))
                      for _ in range(6)]
        sets.append((origin, candidates))
    for _ in range(200):  # long meridian arcs from the equator to a pole against parallels
        origin = GeoPoint(0.0, rng.uniform(-180.0, 180.0))
        d = rng.uniform(5000.0, 10000.0)
        candidates = [destination(origin, 0.0, d),
                      destination(origin, 90.0, d * rng.uniform(1.0, 1.012)),
                      destination(origin, rng.uniform(0.0, 360.0), d * rng.uniform(1.0, 1.012))]
        rng.shuffle(candidates)
        sets.append((origin, candidates))
    for _ in range(300):  # any latitude, any bearing, within the WGS84 spread
        origin = random_point(rng)
        d = _separation_km(rng)
        candidates = [destination(origin, rng.uniform(0.0, 360.0), d * rng.uniform(1.0, 1.012))
                      for _ in range(8)]
        sets.append((origin, candidates))
    for _ in range(100):  # coincident and duplicated points
        origin = random_point(rng)
        near = [destination(origin, rng.uniform(0.0, 360.0), _separation_km(rng)) for _ in range(3)]
        candidates = [rng.choice([origin, *near]) for _ in range(6)]
        sets.append((origin, candidates))
    sets.append((GeoPoint(10.0, 20.0), [GeoPoint(10.0, 20.0)] * 3))
    for _ in range(200):  # near-antipodal, including exact antipodes
        origin = random_point(rng, 60.0)
        antipode = GeoPoint(-origin.lat, origin.lon + 180.0)
        candidates = [GeoPoint(antipode.lat + rng.uniform(-0.5, 0.5), antipode.lon + rng.uniform(-0.5, 0.5))
                      for _ in range(5)]
        candidates.append(antipode)
        rng.shuffle(candidates)
        sets.append((origin, candidates))
    for _ in range(200):  # exact distance ties: mirror images across the origin's meridian
        origin = random_point(rng, 89.0)
        d = _separation_km(rng)
        bearing = rng.uniform(0.0, 180.0)
        candidates = [destination(origin, rng.uniform(0.0, 360.0), d * rng.uniform(1.0, 1.012))
                      for _ in range(3)]
        candidates += [destination(origin, bearing, d), destination(origin, -bearing, d)]
        rng.shuffle(candidates)
        sets.append((origin, candidates))
    return sets


class TestNearTies:
    def test_ratio_exceeds_the_wgs84_spread(self):
        e_sq = WGS84_F * (2.0 - WGS84_F)
        assert NEAR_TIE_RATIO > (1.0 - e_sq) ** -1.5

    def test_first_geodesic_nearest_always_survives(self):
        reordered = mirrored = pruned = 0
        for origin, candidates in _near_tie_sets():
            distances = [geodesic_distance(origin, p) for p in candidates]
            nearest = distances.index(min(distances))
            ties = near_ties(_unit_vector(origin), [_unit_vector(p) for p in candidates])
            assert nearest in ties, (origin, candidates)
            assert ties == sorted(set(ties))
            chords = [math.dist(_unit_vector(origin), _unit_vector(p)) for p in candidates]
            reordered += chords.index(min(chords)) != nearest
            mirrored += distances.count(distances[nearest]) > 1
            pruned += len(ties) < len(candidates)
        # The sets reach what the bound is for: a chord-nearest point that is
        # not the geodesic nearest, exact ties, and points it may drop.
        assert reordered >= 400 and mirrored >= 200 and pruned >= 50, (reordered, mirrored, pruned)

    def test_clear_winner_is_the_only_survivor(self):
        origin = GeoPoint(40.0, -3.0)
        candidates = [destination(origin, b, 10.0 + b / 36.0) for b in range(0, 360, 45)]
        assert near_ties(_unit_vector(origin), [_unit_vector(p) for p in candidates]) == [0]


class TestRadiusBracket:
    """A computed distance lies within distance_bounds of the pair's
    central_angles entry, alone and in weighted sums."""

    @staticmethod
    def pairs():
        rng = random.Random(9004)
        pairs = [(random_point(rng), random_point(rng)) for _ in range(1000)]
        for _ in range(500):  # within 1 degree of antipodal, and exactly antipodal
            a = random_point(rng, 60.0)
            pairs.append((a, GeoPoint(-a.lat + rng.uniform(-1.0, 1.0), a.lon + 180.0 + rng.uniform(-1.0, 1.0))))
            pairs.append((a, GeoPoint(-a.lat, a.lon + 180.0)))
        pairs.append((GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)))
        # Where each bound is tight: meridian arcs at the equator, any arc at a pole.
        low = [(a, destination(a, rng.choice((0.0, 180.0)), 10.0 ** rng.uniform(-6.0, 3.0)))
               for a in (GeoPoint(0.0, rng.uniform(-180.0, 180.0)) for _ in range(300))]
        high = [(a, destination(a, rng.uniform(0.0, 360.0), 10.0 ** rng.uniform(-6.0, 3.0)))
                for a in (GeoPoint(rng.choice((90.0, -90.0)), rng.uniform(-180.0, 180.0)) for _ in range(300))]
        return pairs + low + high

    def test_vincenty_and_fallback_distances_lie_within_the_bracket(self):
        fallbacks = 0
        low_ratio, high_ratio = math.inf, 0.0
        pairs = self.pairs()
        sigmas = central_angles((_unit_vector(a), _unit_vector(b)) for a, b in pairs)
        for (a, b), sigma in zip(pairs, sigmas):
            distance = geodesic_distance_detail(a, b)
            lo, hi = distance_bounds(sigma)
            assert lo <= distance.km <= hi
            fallbacks += distance.approximate
            if sigma > 0.0:
                low_ratio = min(low_ratio, distance.km / (MIN_RADIUS_KM * sigma))
                high_ratio = max(high_ratio, distance.km / (MAX_RADIUS_KM * sigma))
        assert fallbacks >= 500
        assert low_ratio < 1.0 + 1e-6 and high_ratio > 1.0 - 1e-6, (low_ratio, high_ratio)

    def test_central_angles_are_the_chord_angles(self):
        # Past the diameter, where rounding takes an antipodal chord, the
        # angle is pi, the value 2 asin(min(1, c / 2)) gives there.
        vectors = [(_unit_vector(a), _unit_vector(b)) for a, b in self.pairs()]
        chords = [math.dist(u, v) for u, v in vectors]
        assert list(central_angles(vectors)) == [2.0 * math.asin(min(1.0, 0.5 * c)) for c in chords]
        assert any(c > 2.0 for c in chords) and any(c == 2.0 for c in chords)

    def test_weighted_sums_lie_within_the_bracket(self):
        # fsum keeps the sums' rounding far below the slack, so the chunks
        # (tight equatorial and polar arcs among them) test the bracket itself.
        rng = random.Random(9005)
        pairs = self.pairs()
        for start in range(0, len(pairs), 50):
            chunk = pairs[start:start + 50]
            weights = [rng.choice((0.5, 1.0, 3.0, rng.uniform(0.1, 10.0))) for _ in chunk]
            sigmas = central_angles((_unit_vector(a), _unit_vector(b)) for a, b in chunk)
            total = math.fsum(w * geodesic_distance(a, b) for w, (a, b) in zip(weights, chunk))
            lo, hi = distance_bounds(math.fsum(w * s for w, s in zip(weights, sigmas)), math.fsum(weights))
            assert lo <= total <= hi


def _kernel_pairs() -> list[tuple[GeoPoint, GeoPoint]]:
    """Seeded pairs reaching every branch of the inverse: local, continental,
    polar, equatorial (cos^2 alpha == 0), coincident, exactly antipodal and
    near-antipodal pairs where the iteration does not converge."""
    rng = random.Random(9001)
    pairs = []
    for _ in range(500):  # local, within a few km
        a = random_point(rng, 89.0)
        pairs.append((a, GeoPoint(a.lat + rng.uniform(-0.05, 0.05), a.lon + rng.uniform(-0.05, 0.05))))
    for _ in range(500):  # continental and worldwide
        pairs.append((random_point(rng), random_point(rng)))
    for _ in range(150):  # at or next to a pole
        pole = rng.choice((90.0, -90.0, 89.9999999, -89.99999))
        pairs.append((GeoPoint(pole, rng.uniform(-180.0, 180.0)), random_point(rng)))
    for _ in range(150):  # both on the equator
        pairs.append((GeoPoint(0.0, rng.uniform(-180.0, 180.0)), GeoPoint(0.0, rng.uniform(-180.0, 180.0))))
    for _ in range(100):  # coincident, including the same pole at two longitudes
        a = random_point(rng)
        pairs.append((a, GeoPoint(a.lat, a.lon)))
    pairs.append((GeoPoint(90.0, 0.0), GeoPoint(90.0, 45.0)))
    for _ in range(100):  # exactly antipodal
        a = random_point(rng)
        pairs.append((a, GeoPoint(-a.lat, a.lon + 180.0)))
    pairs.append((GeoPoint(90.0, 10.0), GeoPoint(-90.0, -30.0)))
    for _ in range(500):  # within half a degree of antipodal
        a = random_point(rng, 30.0)
        b = GeoPoint(-a.lat + rng.uniform(-0.5, 0.5), a.lon + 180.0 + rng.uniform(-0.5, 0.5))
        pairs.append((a, b))
    return pairs


def _kernel_destinations() -> list[tuple[GeoPoint, float, float]]:
    """Seeded (start, bearing, distance) cases for the direct problem,
    including polar starts and due east/west along the equator."""
    rng = random.Random(9002)
    cases = []
    for _ in range(600):
        cases.append((random_point(rng), rng.uniform(0.0, 360.0), rng.uniform(0.0, 20000.0)))
    for _ in range(150):
        cases.append((random_point(rng), rng.uniform(0.0, 360.0), rng.uniform(0.0, 50.0)))
    for _ in range(100):
        pole = rng.choice((90.0, -90.0, 89.99999))
        start = GeoPoint(pole, rng.uniform(-180.0, 180.0))
        cases.append((start, rng.uniform(0.0, 360.0), rng.uniform(0.0, 20000.0)))
    for _ in range(100):
        bearing = rng.choice((90.0, 270.0, 0.0, 180.0))
        cases.append((GeoPoint(0.0, rng.uniform(-180.0, 180.0)), bearing, rng.uniform(0.0, 20000.0)))
    return cases


# SHA-256 of repr of every (km, approximate) over _kernel_pairs() and every
# destination over _kernel_destinations(), recorded on the inverse and
# direct solvers before they shared the A, B and delta-sigma series. Like
# GOLDEN_DIGEST it is libm-sensitive: it pins this platform's floats.
GEODESY_DIGEST = "131fba92d1fa57941fd9ea0a5511957ffeda415e7ee33e11514f81a0c14f516c"


def test_geodesic_kernels_are_bit_identical():
    pairs = _kernel_pairs()
    distances = [tuple(geodesic_distance_detail(a, b)) for a, b in pairs]
    # The near-antipodal block reaches the non-converging fallback.
    assert any(
        approximate and not (a.lat == -b.lat and abs(a.lon - b.lon) == 180.0)
        for (a, b), (_, approximate) in zip(pairs, distances)
    )
    ends = [destination(start, bearing, km) for start, bearing, km in _kernel_destinations()]
    digest = hashlib.sha256(repr((distances, ends)).encode()).hexdigest()
    assert digest == GEODESY_DIGEST
