import hashlib
import importlib.util
import math
import random
import statistics
from pathlib import Path

import pytest

import tvgeo.robust_stats as robust_stats
from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.robust_stats import (
    WeightedPointSet,
    _medoid,
    dispersion,
    geodesic_l1_median,
    weighted_distance_sum,
)

from oracles import grid_search_median


def points_at_ranges(center: GeoPoint, ranges_km, bearing=73.0):
    """Self-checking fixture: points at the requested geodesic ranges."""
    out = []
    for r in ranges_km:
        p = destination(center, bearing, r) if r > 0 else center
        assert abs(geodesic_distance(center, p) - r) < 1e-6
        out.append(p)
    return out


class TestWeightedPointSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedPointSet((), ())

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            WeightedPointSet((GeoPoint(0, 0),), (1.0, 2.0))

    def test_rejects_nonpositive_or_nonfinite_weights(self):
        for w in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                WeightedPointSet((GeoPoint(0, 0),), (w,))

    def test_unweighted_constructor(self):
        s = WeightedPointSet.unweighted([GeoPoint(0, 0), GeoPoint(1, 1)])
        assert s.weights == (1.0, 1.0)
        assert len(s) == 2
        assert s.weight_sum == 2.0


class TestGeodesicL1Median:
    def test_single_point_returned_exactly(self):
        p = GeoPoint(10.0, 10.0)
        assert geodesic_l1_median(WeightedPointSet((p,), (1.0,))) is p

    def test_coincident_points_returned_exactly(self):
        p = GeoPoint(-33.4, 151.2)
        s = WeightedPointSet((p, GeoPoint(-33.4, 151.2), p), (1.0, 2.0, 0.5))
        assert geodesic_l1_median(s) == p

    def test_symmetric_square_centers(self):
        corners = [GeoPoint(0.1, 0.1), GeoPoint(0.1, -0.1), GeoPoint(-0.1, 0.1), GeoPoint(-0.1, -0.1)]
        m = geodesic_l1_median(WeightedPointSet.unweighted(corners))
        assert geodesic_distance(m, GeoPoint(0.0, 0.0)) < 0.02

    def test_two_points_heavier_wins(self):
        a, b = GeoPoint(10.0, 10.0), GeoPoint(11.0, 10.0)
        assert geodesic_l1_median(WeightedPointSet((a, b), (1.0, 2.0))) == b
        assert geodesic_l1_median(WeightedPointSet((a, b), (2.0, 1.0))) == a

    def test_two_points_tie_takes_first(self):
        a, b = GeoPoint(10.0, 10.0), GeoPoint(11.0, 10.0)
        assert geodesic_l1_median(WeightedPointSet((a, b), (3.0, 3.0))) == a

    def test_triangle_fermat_point_matches_grid_search(self):
        # Small triangle well inside a 500 km disc.
        points = (GeoPoint(40.0, -3.0), GeoPoint(40.4, -2.5), GeoPoint(39.9, -2.2))
        weights = (1.0, 1.0, 1.0)
        s = WeightedPointSet(points, weights)
        ours = geodesic_l1_median(s)
        oracle_point, oracle_obj = grid_search_median(points, weights)
        assert weighted_distance_sum(ours, s) <= oracle_obj + 1.0 * s.weight_sum
        assert geodesic_distance(ours, oracle_point) < 0.3

    def test_majority_weight_point_is_returned_exactly(self):
        anchor = GeoPoint(10.0, 10.0)
        others = [destination(anchor, 0.0, 5.0), destination(anchor, 90.0, 5.0)]
        s = WeightedPointSet((anchor, *others), (5.0, 1.0, 1.0))
        assert geodesic_l1_median(s) == anchor

    def test_collinear_middle_point(self):
        center = GeoPoint(45.0, 7.0)
        a = destination(center, 90.0, 10.0)
        b = destination(center, 270.0, 10.0)
        m = geodesic_l1_median(WeightedPointSet((a, center, b), (1.0, 1.0, 1.0)))
        assert geodesic_distance(m, center) < 0.02

    def test_permutation_invariance(self):
        rng = random.Random(201)
        center = GeoPoint(35.0, 25.0)
        for _ in range(20):
            n = rng.randint(3, 7)
            pts = [
                destination(center, rng.uniform(0, 360), rng.uniform(0, 400))
                for _ in range(n)
            ]
            wts = [rng.uniform(0.5, 5.0) for _ in range(n)]
            m1 = geodesic_l1_median(WeightedPointSet(tuple(pts), tuple(wts)))
            order = list(range(n))
            rng.shuffle(order)
            m2 = geodesic_l1_median(
                WeightedPointSet(tuple(pts[i] for i in order), tuple(wts[i] for i in order))
            )
            assert geodesic_distance(m1, m2) < 0.01

    def test_weight_scaling_invariance(self):
        rng = random.Random(202)
        center = GeoPoint(-20.0, 130.0)
        pts = tuple(destination(center, rng.uniform(0, 360), rng.uniform(0, 300)) for _ in range(6))
        wts = tuple(rng.uniform(0.5, 4.0) for _ in range(6))
        m1 = geodesic_l1_median(WeightedPointSet(pts, wts))
        m2 = geodesic_l1_median(WeightedPointSet(pts, tuple(7.3 * w for w in wts)))
        assert geodesic_distance(m1, m2) < 0.01

    def test_random_sets_against_grid_oracle(self):
        # Mini version of the acceptance criterion (10 sets here).
        rng = random.Random(203)
        for _ in range(10):
            center = GeoPoint(rng.uniform(-55, 55), rng.uniform(-150, 150))
            n = rng.randint(2, 7)
            pts = tuple(
                destination(center, rng.uniform(0, 360), 250.0 * math.sqrt(rng.random()))
                for _ in range(n)
            )
            wts = tuple(rng.uniform(0.5, 5.0) for _ in range(n))
            s = WeightedPointSet(pts, wts)
            ours = weighted_distance_sum(geodesic_l1_median(s), s)
            _, oracle_obj = grid_search_median(pts, wts)
            assert ours <= oracle_obj + 1.0 * s.weight_sum

    def test_hemisphere_spanning_set_falls_back_to_medoid(self):
        pts = (GeoPoint(10.0, 0.0), GeoPoint(-5.0, 150.0), GeoPoint(20.0, -140.0))
        wts = (1.0, 1.0, 3.0)
        s = WeightedPointSet(pts, wts)
        result = geodesic_l1_median(s)
        objectives = [weighted_distance_sum(p, s) for p in pts]
        expected = pts[objectives.index(min(objectives))]
        assert result == expected


class TestDispersion:
    def test_single_point_is_zero(self):
        center = GeoPoint(0.0, 0.0)
        assert dispersion(center, WeightedPointSet.unweighted([center])) == 0.0

    def test_median_of_three_ranges(self):
        center = GeoPoint(0.0, 0.0)
        pts = points_at_ranges(center, [1.0, 5.0, 100.0])
        got = dispersion(center, WeightedPointSet.unweighted(pts))
        assert abs(got - 5.0) < 1e-6

    def test_even_count_takes_mean_of_middle_pair(self):
        center = GeoPoint(0.0, 0.0)
        pts = points_at_ranges(center, [2.0, 4.0, 6.0, 1000.0])
        got = dispersion(center, WeightedPointSet.unweighted(pts))
        assert abs(got - 5.0) < 1e-6

    def test_weights_are_ignored(self):
        center = GeoPoint(12.0, -7.0)
        pts = points_at_ranges(center, [3.0, 8.0, 50.0])
        unweighted = dispersion(center, WeightedPointSet.unweighted(pts))
        weighted = dispersion(center, WeightedPointSet(tuple(pts), (100.0, 0.1, 7.0)))
        assert unweighted == weighted

    @pytest.mark.parametrize("kind", ["local", "worldwide", "tied"])
    def test_matches_statistics_median_bit_for_bit(self, kind):
        rng = random.Random(f"dispersion:{kind}")
        for n in list(range(1, 31)) * 8:  # odd and even sizes
            center = _worldwide_point(rng)
            if kind == "local":
                pts = [
                    destination(center, rng.uniform(0.0, 360.0), rng.expovariate(0.2))
                    for _ in range(n)
                ]
            elif kind == "worldwide":
                pts = [_worldwide_point(rng) for _ in range(n)]
            else:
                # Repeated points, the center itself, and a ring of points
                # at one range on different bearings: distances equal or
                # equal to well inside the bracket's 10 m.
                ring = [destination(center, bearing, 5.0) for bearing in (0.0, 90.0, 180.0, 270.0)]
                pool = [center, destination(center, 30.0, 2.0)] + ring
                pts = [rng.choice(pool) for _ in range(n)]
            got = dispersion(center, WeightedPointSet.unweighted(pts))
            want = statistics.median([geodesic_distance(center, p) for p in pts])
            assert got.hex() == want.hex(), (center, pts)


def _worldwide_point(rng: random.Random) -> GeoPoint:
    return GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180.0, 180.0))


def _cluster(rng: random.Random, n: int, radius_deg: float) -> list[GeoPoint]:
    clat, clon = rng.uniform(-75.0, 75.0), rng.uniform(-180.0, 180.0)
    return [
        GeoPoint(
            max(-90.0, min(90.0, clat + rng.uniform(-radius_deg, radius_deg))),
            clon + rng.uniform(-radius_deg, radius_deg),
        )
        for _ in range(n)
    ]


def _kernel_sets() -> list[WeightedPointSet]:
    """~200 seeded point sets that reach every branch of the median: local
    Weiszfeld, broad sets, hemisphere-spanning medoids, one and two points,
    coincident and repeated points, optima on or next to a data point, and
    an iterate that starts exactly on a non-optimal data point, and a set
    that stops at MAX_ITER."""
    rng = random.Random(7001)
    sets = []
    for i in range(196):
        kind = i % 7
        if kind == 0:  # local
            points = _cluster(rng, rng.randint(3, 12), 0.5)
        elif kind == 1:  # up to a few thousand km, some past the 88 degree test
            points = _cluster(rng, rng.randint(3, 10), rng.choice((5.0, 20.0, 40.0)))
        elif kind == 2:  # worldwide
            points = [_worldwide_point(rng) for _ in range(rng.randint(3, 25))]
        elif kind == 3:  # one or two points, or one point repeated
            points = _cluster(rng, i % 2 + 1, 0.2)
            if i % 4 == 3:
                points = [points[0]] * rng.randint(2, 4)
        elif kind == 4:  # repeated points within a cluster
            points = _cluster(rng, rng.randint(3, 6), 0.3)
            points += [rng.choice(points) for _ in range(rng.randint(1, 3))]
        elif kind == 5:  # a data point at or next to the optimum
            points = _cluster(rng, rng.randint(3, 8), 0.2)
            lat = math.fsum(p.lat for p in points) / len(points)
            lon = math.fsum(p.lon for p in points) / len(points)
            points.append(GeoPoint(lat, lon))
        else:  # within ~10 m, so the iterate keeps meeting data points
            points = _cluster(rng, rng.randint(3, 8), 0.0001)
        if rng.random() < 0.5:
            weights = [float(rng.randint(1, 5)) for _ in points]
        else:
            weights = [rng.uniform(0.5, 5.0) for _ in points]
        if kind == 5 and rng.random() < 0.5:
            weights[-1] = math.fsum(weights)  # majority weight: snap to it
        sets.append(WeightedPointSet(tuple(points), tuple(weights)))
    # The centroid of these cancels exactly onto (0, 0), a light data point
    # that the other three pull away from: the 1 m nudge.
    for lat, dlon in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.7)):
        c = math.cos(math.radians(lat))
        points = (GeoPoint(0.0, 0.0), GeoPoint(0.0, dlon), GeoPoint(lat, -dlon), GeoPoint(-lat, -dlon))
        sets.append(WeightedPointSet(points, (0.1, 2.0 * c, 1.0, 1.0)))
    # Oscillates within 10 m of non-optimal data points until MAX_ITER.
    stalled = (
        (-32.27266212201046, 17.521064449812542),
        (-32.272789305230305, 17.52097869377934),
        (-32.27269086240675, 17.520821066774744),
        (-32.272554992881275, 17.52136821559452),
        (-32.27268057484278, 17.520916904075307),
        (-32.27291252783571, 17.521344762441572),
    )
    sets.append(
        WeightedPointSet(
            tuple(GeoPoint(lat, lon) for lat, lon in stalled),
            (4.0, 3.0, 4.0, 2.5283929607050193, 2.1013361208766304, 3.0),
        )
    )
    # An octahedron's centroid is degenerate: the medoid.
    octahedron = (GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0), GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0))
    sets.append(WeightedPointSet.unweighted(octahedron))
    return sets


# SHA-256 of repr(geodesic_l1_median(s)) over _kernel_sets(), recorded from
# the indexing Weiszfeld loop that the float-level one replaced. Like
# GOLDEN_DIGEST it is libm-sensitive: it pins this platform's floats.
KERNEL_DIGEST = "eee23fb84943abfc6e5fc2792bbfb49f73536b0874a9ebe1a811bdec6dea64c2"


def test_median_kernel_is_bit_identical():
    medians = [geodesic_l1_median(s) for s in _kernel_sets()]
    assert hashlib.sha256(repr(medians).encode()).hexdigest() == KERNEL_DIGEST


def _medoid_sets() -> list[WeightedPointSet]:
    """Seeded worldwide sets of 3-60 points, some with repeated points."""
    rng = random.Random(7002)
    sets = []
    for n in list(range(3, 13)) + [20, 33, 47, 60]:
        points = [_worldwide_point(rng) for _ in range(n)]
        if n % 2:
            points[-1] = points[0]
        weights = [float(rng.randint(1, 4)) for _ in points]
        sets.append(WeightedPointSet(tuple(points), tuple(weights)))
    return sets


class TestMedoid:
    def test_medoid_is_the_first_argmin_of_the_objective(self):
        for s in _medoid_sets():
            objectives = [weighted_distance_sum(p, s) for p in s.points]
            assert _medoid(s) is s.points[objectives.index(min(objectives))]

    def test_exact_tie_goes_to_the_first_index(self):
        rng = random.Random(7003)
        a, b = _worldwide_point(rng), GeoPoint(0.0, 0.0)
        others = tuple(_worldwide_point(rng) for _ in range(5))
        # Equal copies of a heavy point tie bit for bit; the first one wins.
        first, second = GeoPoint(a.lat, a.lon), GeoPoint(a.lat, a.lon)
        s = WeightedPointSet((b, first, *others, second), (1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0))
        objectives = [weighted_distance_sum(p, s) for p in s.points]
        assert objectives[1] == objectives[-1] == min(objectives)
        assert _medoid(s) is first

    def test_medoid_is_the_first_argmin_on_adversarial_sets(self):
        for s in _adversarial_medoid_sets():
            objectives = [weighted_distance_sum(p, s) for p in s.points]
            assert _medoid(s) is s.points[objectives.index(min(objectives))], s

    def test_no_pair_is_measured_twice(self, monkeypatch):
        index: dict[int, int] = {}
        pairs = []

        def recording(a, b):
            pairs.append(frozenset((index[id(a)], index[id(b)])))
            return geodesic_distance(a, b)

        monkeypatch.setattr(robust_stats, "geodesic_distance", recording)
        sets = _medoid_sets() + _adversarial_medoid_sets()
        for s in sets:
            # Distinct objects, so a call names its two indices.
            s = WeightedPointSet(tuple(GeoPoint(p.lat, p.lon) for p in s.points), s.weights)
            index = {id(p): i for i, p in enumerate(s.points)}
            pairs.clear()
            _medoid(s)
            assert all(len(pair) == 2 for pair in pairs)
            assert len(set(pairs)) == len(pairs) <= len(s) * (len(s) - 1) // 2

    def test_city_clusters_make_few_distance_calls(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(None)
            return geodesic_distance(a, b)

        s = _city_cluster_set(random.Random(7005), 200)
        monkeypatch.setattr(robust_stats, "geodesic_distance", counting)
        _medoid(s)
        assert len(calls) <= len(s) * (len(s) - 1) // 8


def _city_cluster_set(rng: random.Random, n: int) -> WeightedPointSet:
    """n points of 15 km city clusters, about five to a city, all over the
    world, weighted like a hub's ties."""
    cities = [_worldwide_point(rng) for _ in range(n // 5)]
    points = [destination(rng.choice(cities), rng.uniform(0.0, 360.0), rng.uniform(0.0, 15.0))
              for _ in range(n)]
    return WeightedPointSet(tuple(points), tuple(1.0 + int(rng.expovariate(1.0)) for _ in points))


def _adversarial_medoid_sets() -> list[WeightedPointSet]:
    """Seeded sets built for exact and near ties of the medoid objective and
    for the pairs the chord bracket finds hardest: regular polygons on the
    equator, the octahedron, duplicated heavy points, exactly antipodal
    pairs (the spherical fallback), both poles, points on either side of the
    antimeridian, points on one meridian across the equator (a weighted
    median of a line ties along a segment, and meridian arcs there are as
    short as the bracket allows), mirror images, and n = 200 worldwide
    sets."""
    rng = random.Random(7004)
    sets = []

    def add(points, weights=None):
        points = list(points)
        if weights is None:
            weights = [1.0] * len(points)
        sets.append(WeightedPointSet(tuple(points), tuple(weights)))

    for n in range(3, 13):  # regular polygons on the equator, alone and with a pole
        start = rng.uniform(-180.0, 180.0)
        polygon = [GeoPoint(0.0, start + 360.0 * i / n) for i in range(n)]
        add(polygon)
        add(polygon + [GeoPoint(rng.choice((90.0, -90.0)), 0.0)])
        add(polygon, [float(rng.randint(1, 3)) for _ in polygon])
    octahedron = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 90.0), GeoPoint(0.0, 180.0),
                  GeoPoint(0.0, -90.0), GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)]
    add(octahedron)
    for _ in range(5):
        rng.shuffle(octahedron)
        add(octahedron, [float(rng.randint(1, 2)) for _ in octahedron])
    for _ in range(20):  # duplicated heavy points
        heavy = _worldwide_point(rng)
        points = [_worldwide_point(rng) for _ in range(rng.randint(2, 8))]
        points += [GeoPoint(heavy.lat, heavy.lon) for _ in range(rng.randint(2, 4))]
        rng.shuffle(points)
        add(points, [4.0 if p == heavy else float(rng.randint(1, 2)) for p in points])
    for _ in range(20):  # exactly antipodal pairs
        points = []
        for _ in range(rng.randint(1, 4)):
            p = _worldwide_point(rng)
            points += [p, GeoPoint(-p.lat, p.lon + 180.0)]
        rng.shuffle(points)
        add(points, [float(rng.randint(1, 2)) for _ in points])
    for _ in range(20):  # both poles, at any longitude, with points between
        points = [GeoPoint(90.0, rng.uniform(-180.0, 180.0)), GeoPoint(-90.0, rng.uniform(-180.0, 180.0))]
        points += [_worldwide_point(rng) for _ in range(rng.randint(1, 5))]
        rng.shuffle(points)
        add(points, [float(rng.randint(1, 2)) for _ in points])
    for _ in range(20):  # either side of the antimeridian, and its antipode
        points = []
        for _ in range(rng.randint(2, 4)):
            lat, dlon = rng.uniform(-80.0, 80.0), 10.0 ** rng.uniform(-9.0, 0.0)
            points += [GeoPoint(lat, 180.0 - dlon), GeoPoint(lat, -180.0 + dlon)]
        points.append(GeoPoint(rng.uniform(-10.0, 10.0), rng.uniform(-1.0, 1.0)))
        rng.shuffle(points)
        add(points)
    for _ in range(100):  # along one meridian across the equator: ties on the bracket's low edge
        lon = rng.uniform(-180.0, 180.0)
        points = [GeoPoint(rng.uniform(-30.0, 30.0), lon) for _ in range(rng.randint(3, 6))]
        add(points, [float(rng.randint(1, 5)) for _ in points])
    for _ in range(40):  # mirror images across the prime meridian: exact ties
        half = [_worldwide_point(rng) for _ in range(rng.randint(2, 5))]
        weights = [float(rng.randint(1, 3)) for _ in half]
        points = half + [GeoPoint(p.lat, -p.lon) for p in half]
        order = list(range(len(points)))
        rng.shuffle(order)
        add([points[i] for i in order], [(weights * 2)[i] for i in order])
    add(_worldwide_point(rng) for _ in range(200))
    sets.append(_city_cluster_set(rng, 200))
    return sets


def _load_bench_tracing():
    """bench/tracing.py, loaded by path: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spread_sets() -> list[WeightedPointSet]:
    """Seeded sets with one point 87.9 or 88.1 degrees from the weighted
    centroid, and a degenerate centroid. A pair mirrored across the equator
    and a counterweight west of (0, 0) that balances the far point east of
    it put the centroid at (0, 0), so the far point is its longitude away.
    The counterweight is at most a degree west, so no Weiszfeld iterate
    wanders out of the tangent plane, the medoid's other way in, which the
    tracer does not count."""
    rng = random.Random(7088)
    sets = []
    for angle in (87.9, 88.1) * 10:
        lat, west, far_weight = rng.uniform(0.1, 0.5), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
        counterweight = far_weight * math.sin(math.radians(angle)) / math.sin(math.radians(west))
        pair_weight = rng.uniform(1.0, 5.0)
        points = (GeoPoint(lat, 0.0), GeoPoint(-lat, 0.0), GeoPoint(0.0, -west), GeoPoint(0.0, angle))
        sets.append(WeightedPointSet(points, (pair_weight, pair_weight, counterweight, far_weight)))
    octahedron = (GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0), GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0))
    sets.append(WeightedPointSet.unweighted(octahedron))
    return sets


def test_bench_tracer_keeps_the_medians_hemisphere_rule(monkeypatch):
    # The benchmark's trace counts robust_stats.median.wide_calls with its
    # own copy of the 88 degree rule; it must pick the sets the median does.
    tracing = _load_bench_tracing()
    assert tracing._MAX_SPREAD_COS == robust_stats._MAX_SPREAD_COS
    sent = []
    medoid = robust_stats._medoid

    def recording(s):
        sent.append(s)
        return medoid(s)

    monkeypatch.setattr(robust_stats, "_medoid", recording)
    sets = _spread_sets()
    to_medoid = []
    for s in sets:
        del sent[:]
        geodesic_l1_median(s)
        to_medoid.append(sent == [s])
    assert to_medoid == [tracing.is_wide(s.points, s.weights) for s in sets]
    assert to_medoid == [False, True] * 10 + [True]
