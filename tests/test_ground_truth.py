import gc
import math
import random
import statistics
import tracemalloc

import pytest

from tvgeo import _workers, ground_truth, robust_stats
from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.ground_truth import (
    MAX_CLAIM_AGE_SECONDS,
    Gazetteer,
    GpsEvent,
    GroundTruthRecord,
    ProfileClaim,
    gazetteer_home,
    gazetteer_homes,
    gps_home,
    gps_homes,
    max_speed,
    merge_seeds,
    normalize_place,
    read_gps_events_file,
    read_profile_claims_file,
    read_seeds_file,
    write_seeds_file,
)

from oracles import max_speed_every_leg

HOME = GeoPoint(37.77, -122.42)
HOUR = 3600.0
DAY = 86400.0


def ev(user, point, ts):
    return GpsEvent(user, point, ts)


def _anywhere(rng):
    return GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))


def _toward(rng, start, low_km, high_km):
    return destination(start, rng.uniform(0.0, 360.0), rng.uniform(low_km, high_km))


def _adversarial_point(rng, prev):
    """A next event point that stresses the chord bracket of max_speed."""
    kind = rng.randrange(9)
    if kind == 0:
        return prev  # a zero-length leg
    if kind == 1:  # one ulp of latitude: chord and Vincenty both round
        return GeoPoint(math.nextafter(prev.lat, 0.0), prev.lon)
    if kind == 2:
        return _toward(rng, prev, 0.0, 0.001)  # sub-metre
    if kind == 3:
        return _toward(rng, prev, 0.0, 50.0)
    if kind == 4:
        return GeoPoint(-prev.lat, prev.lon + 180.0)  # antipodal
    if kind == 5:  # near-antipodal, within a few hundredths of a degree
        lat = max(-90.0, min(90.0, -prev.lat + rng.uniform(-0.05, 0.05)))
        return GeoPoint(lat, prev.lon + 180.0 + rng.uniform(-0.05, 0.05))
    if kind == 6:  # at or next to a pole
        lat = rng.choice((-1.0, 1.0)) * rng.choice((90.0, 89.9999, 89.99))
        return GeoPoint(lat, rng.uniform(-180.0, 180.0))
    if kind == 7:  # across the antimeridian
        return GeoPoint(prev.lat, rng.choice((179.9999, -179.9999, -180.0, 180.0 - 1e-9)))
    return _anywhere(rng)


def _adversarial_user(rng):
    """Sorted events with zero gaps, gaps that underflow to 0 h, legs back
    over the previous leg in the same time (exactly equal speed) and legs
    within 1% of the previous leg's speed."""
    points = [_adversarial_point(rng, _anywhere(rng))]
    times = [0.0]
    for _ in range(rng.randint(1, 11)):
        last_hours = (times[-1] - times[-2]) / 3600.0 if len(times) > 1 else 0.0
        last_speed = geodesic_distance(points[-2], points[-1]) / last_hours if last_hours else 0.0
        gap = rng.randrange(5)
        if gap == 0 and last_hours:
            points.append(points[-2])
            times.append(times[-1] + (times[-1] - times[-2]))
            continue
        point = _adversarial_point(rng, points[-1])
        if gap == 1 and rng.random() < 0.8:  # mostly a repeated fix, skipped
            point = points[-1]
        distance = geodesic_distance(points[-1], point)
        if gap == 1:
            dt = rng.choice((0.0, 5e-324))
        elif gap == 2 and last_speed and distance:
            dt = 3600.0 * distance / (last_speed * rng.uniform(0.99, 1.01))
        else:
            # 1e-300 s is a zero gap after the first event, at 0 s.
            dt = rng.choice((1e-300, 1.0, 60.0, 3600.0, 86400.0)) * rng.uniform(0.5, 2.0)
        points.append(point)
        times.append(times[-1] + dt)
    return [ev(1, p, t) for p, t in zip(points, times)]


def _seed_ingest_like_user(rng, user=1):
    """Events shaped like the seed-ingest benchmark's GPS users: clean users
    near home hours apart, travellers with a far trip days away, wanderers
    150-250 km out, and teleporters that jump 800-3000 km in minutes."""
    home = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
    times = [0.0]
    for _ in range(rng.randint(2, 11)):
        times.append(times[-1] + rng.uniform(6.0, 72.0) * HOUR)
    kind = rng.random()
    if kind < 0.6:  # clean
        points = [_toward(rng, home, 0.0, 2.0) for _ in times]
    elif kind < 0.76:  # traveller
        trip = _toward(rng, home, 300.0, 2000.0)
        points = [_toward(rng, trip if rng.random() < 0.3 else home, 0.0, 2.0) for _ in times]
        times = [4.0 * t for t in times]
    elif kind < 0.88:  # wanderer
        points = [_toward(rng, home, 150.0, 250.0) for _ in times]
    else:  # teleporter
        points = [_toward(rng, home, 0.0, 2.0) for _ in times]
        points.append(_toward(rng, home, 800.0, 3000.0))
        times.append(rng.choice(times) + rng.uniform(300.0, 1800.0))
    events = [ev(user, p, t) for p, t in zip(points, times)]
    return sorted(events, key=lambda e: (e.timestamp, e.point.lat, e.point.lon))


class TestMaxSpeed:
    def test_simple_leg(self):
        b = destination(HOME, 90.0, 100.0)
        speed = max_speed([ev(1, HOME, 0.0), ev(1, b, HOUR)])
        assert abs(speed - 100.0) < 1e-6

    def test_identical_consecutive_events(self):
        assert max_speed([ev(1, HOME, 0.0), ev(1, HOME, HOUR)]) == 0.0

    def test_max_over_legs(self):
        p1 = destination(HOME, 90.0, 10.0)
        p2 = destination(p1, 90.0, 1200.0)
        speed = max_speed([ev(1, HOME, 0.0), ev(1, p1, HOUR), ev(1, p2, 2 * HOUR)])
        assert abs(speed - 1200.0) < 1e-6

    def test_zero_gap_with_distance_is_infinite(self):
        b = destination(HOME, 0.0, 1.0)
        assert max_speed([ev(1, HOME, 0.0), ev(1, b, 0.0)]) == math.inf

    def test_zero_gap_zero_distance_is_skipped(self):
        b = destination(HOME, 0.0, 7.0)
        speed = max_speed([ev(1, HOME, 0.0), ev(1, HOME, 0.0), ev(1, b, HOUR)])
        assert abs(speed - 7.0) < 1e-6

    def test_requires_two_events(self):
        with pytest.raises(ValueError):
            max_speed([ev(1, HOME, 0.0)])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            max_speed([ev(1, HOME, HOUR), ev(1, HOME, 0.0)])

    def test_gap_that_underflows_to_zero_hours_is_infinite(self):
        # 5e-324 s is positive, but 5e-324 / 3600 is 0.0 h.
        b = destination(HOME, 0.0, 1.0)
        assert max_speed([ev(1, HOME, 0.0), ev(1, b, 5e-324), ev(1, b, HOUR)]) == math.inf
        assert max_speed([ev(1, HOME, 0.0), ev(1, HOME, 5e-324), ev(1, b, HOUR)]) == max_speed(
            [ev(1, HOME, 0.0), ev(1, b, HOUR)]
        )

    def test_adversarial_users_match_the_every_leg_oracle_bit_for_bit(self):
        rng = random.Random(20261019)
        for _ in range(3000):
            events = _adversarial_user(rng)
            assert max_speed(events).hex() == max_speed_every_leg(events).hex(), events

    def test_measures_few_legs(self, monkeypatch):
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return geodesic_distance(a, b)

        rng = random.Random(15)
        users = [_seed_ingest_like_user(rng) for _ in range(2000)]
        want = [max_speed_every_leg(events) for events in users]
        monkeypatch.setattr(ground_truth, "geodesic_distance", counted)
        assert [max_speed(events) for events in users] == want
        # The every-leg loop measures every leg. The bracket measures 16% of
        # these legs, and 17% of the seed-ingest benchmark's at seeds 17 and 4242.
        legs = sum(len(events) - 1 for events in users)
        assert calls < 0.25 * legs


class TestGpsHome:
    def test_two_events_are_not_enough(self):
        assert gps_home([ev(1, HOME, 0.0), ev(1, HOME, HOUR)]) is None

    def test_three_coincident_events_pass(self):
        record = gps_home([ev(1, HOME, 0.0), ev(1, HOME, HOUR), ev(1, HOME, 2 * HOUR)])
        assert record is not None
        assert record.home == HOME
        assert record.spread_km == 0.0
        assert record.source == "gps"

    def test_fast_traveller_rejected(self):
        # 200 km in five minutes: 2400 km/h.
        far = destination(HOME, 45.0, 200.0)
        events = [ev(1, HOME, 0.0), ev(1, HOME, HOUR), ev(1, far, HOUR + 300.0)]
        assert gps_home(events) is None

    def test_dispersed_cloud_rejected(self):
        # Points at 0/100/200 km along a line: spread 100 km > 30 km.
        p1 = destination(HOME, 90.0, 100.0)
        p2 = destination(HOME, 90.0, 200.0)
        events = [ev(1, HOME, 0.0), ev(1, p1, DAY), ev(1, p2, 2 * DAY)]
        assert gps_home(events) is None

    def test_spread_at_boundary_passes(self):
        # Distances from the median point: {29, 0, 29} -> spread 29 <= 30.
        p1 = destination(HOME, 90.0, 29.0)
        p2 = destination(HOME, 90.0, 58.0)
        events = [ev(1, HOME, 0.0), ev(1, p1, DAY), ev(1, p2, 2 * DAY)]
        record = gps_home(events)
        assert record is not None
        assert record.spread_km <= 30.0

    def test_sorts_events_internally(self):
        events = [ev(1, HOME, 2 * HOUR), ev(1, HOME, 0.0), ev(1, HOME, HOUR)]
        record = gps_home(events)
        assert record is not None and record.home == HOME

    def test_rejects_multiple_users(self):
        with pytest.raises(ValueError):
            gps_home([ev(1, HOME, 0.0), ev(2, HOME, HOUR), ev(1, HOME, 2 * HOUR)])

    def test_output_always_satisfies_the_filters(self):
        record = gps_home(
            [
                ev(1, HOME, 0.0),
                ev(1, destination(HOME, 10.0, 3.0), HOUR),
                ev(1, destination(HOME, 250.0, 8.0), 3 * HOUR),
                ev(1, HOME, 9 * HOUR),
            ]
        )
        assert record is not None
        assert record.spread_km <= 30.0


class TestGazetteerHome:
    @pytest.fixture
    def gazetteer(self):
        return Gazetteer(
            {
                "malibu, ca": GeoPoint(34.03, -118.78),
                "Springfield": GeoPoint(39.80, -89.64),
            }
        )

    def test_normalization_rules(self):
        assert normalize_place("  Malibu,   CA ") == "malibu, ca"

    def test_exact_match_after_normalization(self, gazetteer):
        claim = ProfileClaim(7, "  Malibu, CA ", observed_at=1000.0)
        record = gazetteer_home([claim], gazetteer, now=1000.0)
        assert record is not None
        assert record.home == GeoPoint(34.03, -118.78)
        assert record.source == "gazetteer"
        assert record.spread_km == 0.0

    def test_stale_claim_rejected(self, gazetteer):
        now = 1_000_000_000.0
        claim = ProfileClaim(7, "Malibu, CA", observed_at=now - 91 * DAY)
        assert gazetteer_home([claim], gazetteer, now) is None

    def test_ninety_days_exactly_is_fresh(self, gazetteer):
        now = 1_000_000_000.0
        claim = ProfileClaim(7, "Malibu, CA", observed_at=now - MAX_CLAIM_AGE_SECONDS)
        assert gazetteer_home([claim], gazetteer, now) is not None

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_non_finite_now_rejected(self, gazetteer, now):
        # A NaN age compares False against the cap, so a 1970 claim would pass.
        claim = ProfileClaim(7, "Malibu, CA", observed_at=0.0)
        with pytest.raises(ValueError, match=r"^now must be finite, got "):
            gazetteer_home([claim], gazetteer, now)

    def test_unmatched_multi_location_claim_rejected(self, gazetteer):
        claim = ProfileClaim(7, "Paris | London", observed_at=1000.0)
        assert gazetteer_home([claim], gazetteer, now=1000.0) is None

    def test_most_recent_claim_wins_and_order_does_not_matter(self, gazetteer):
        older = ProfileClaim(7, "Malibu, CA", observed_at=500.0)
        newer = ProfileClaim(7, "Springfield", observed_at=900.0)
        for claims in ([older, newer], [newer, older]):
            record = gazetteer_home(claims, gazetteer, now=1000.0)
            assert record is not None
            assert record.home == GeoPoint(39.80, -89.64)

    def test_most_recent_unmatched_claim_yields_nothing(self, gazetteer):
        # The newest claim is the one that counts, even if an older one matches.
        older = ProfileClaim(7, "Malibu, CA", observed_at=500.0)
        newer = ProfileClaim(7, "nowhere special", observed_at=900.0)
        assert gazetteer_home([older, newer], gazetteer, now=1000.0) is None

    def test_duplicate_normalized_names_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            Gazetteer({"Malibu, CA": GeoPoint(0, 0), " malibu,  ca": GeoPoint(1, 1)})


class TestMergeSeeds:
    def test_gps_only(self):
        gps = GroundTruthRecord(1, HOME, "gps", 0.0)
        merged = merge_seeds([gps], [])
        assert merged == {1: gps}

    def test_gps_wins_over_gazetteer(self):
        gps = GroundTruthRecord(1, HOME, "gps", 0.0)
        gaz = GroundTruthRecord(1, GeoPoint(0, 0), "gazetteer", 0.0)
        merged = merge_seeds([gps], [gaz])
        assert merged[1] is gps

    def test_gazetteer_only(self):
        gaz = GroundTruthRecord(2, GeoPoint(0, 0), "gazetteer", 0.0)
        assert merge_seeds([], [gaz]) == {2: gaz}

    def test_size_equals_user_union_when_deduplicated(self):
        gps = [GroundTruthRecord(u, HOME, "gps", 0.0) for u in (1, 2, 3)]
        gaz = [GroundTruthRecord(u, GeoPoint(0, 0), "gazetteer", 0.0) for u in (3, 4)]
        merged = merge_seeds(gps, gaz)
        assert set(merged) == {1, 2, 3, 4}
        assert len(merged) == len({r.user for r in gps} | {r.user for r in gaz})


class TestGroupingHelpers:
    def test_gps_homes_filters_per_user(self):
        far = destination(HOME, 45.0, 200.0)
        events = [
            ev(1, HOME, 0.0),
            ev(1, HOME, HOUR),
            ev(1, HOME, 2 * HOUR),
            ev(2, HOME, 0.0),
            ev(2, HOME, HOUR),
            ev(3, HOME, 0.0),
            ev(3, HOME, HOUR),
            ev(3, far, HOUR + 60.0),
        ]
        homes = gps_homes(events)
        assert set(homes) == {1}

    def test_gps_homes_is_the_same_at_any_worker_count(self, tmp_path, monkeypatch):
        import concurrent.futures

        pool_sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 4)  # workers on any host
        rng = random.Random(16)
        events = [e for user in range(200) for e in _seed_ingest_like_user(rng, user)]
        rng.shuffle(events)
        written = []
        for threads in (1, 2, 4):
            path = tmp_path / f"seeds-{threads}.tsv"
            with open(path, "w", encoding="utf-8") as fh:
                write_seeds_file(gps_homes(events, threads=threads), fh)
            written.append(path.read_bytes())
        assert pool_sizes == [2, 4]
        assert written[0] == written[1] == written[2]
        assert 50 < len(read_seeds_file(tmp_path / "seeds-1.tsv")) < 200

    def test_gps_homes_measures_few_spread_distances(self, monkeypatch):
        rng = random.Random(19)
        events = [e for user in range(2000) for e in _seed_ingest_like_user(rng, user)]
        spread_points = 0

        def every_distance(center, point_set):
            nonlocal spread_points
            spread_points += len(point_set)
            return statistics.median(geodesic_distance(center, p) for p in point_set.points)

        with monkeypatch.context() as patched:
            patched.setattr(ground_truth, "dispersion", every_distance)
            want = gps_homes(events)
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return geodesic_distance(a, b)

        monkeypatch.setattr(robust_stats, "geodesic_distance", counted)
        assert gps_homes(events) == want
        # The spread of the users that pass the speed filter measures 23% of
        # their events, and 24% of the seed-ingest benchmark's at seed 4242.
        assert calls < 0.35 * spread_points

    def test_gazetteer_homes_groups_per_user(self):
        gaz = Gazetteer({"malibu, ca": GeoPoint(34.03, -118.78)})
        claims = [
            ProfileClaim(1, "Malibu, CA", 100.0),
            ProfileClaim(2, "elsewhere", 100.0),
        ]
        homes = gazetteer_homes(claims, gaz, now=200.0)
        assert set(homes) == {1}


class TestFiles:
    def test_gps_events_file(self, tmp_path):
        path = tmp_path / "gps.tsv"
        path.write_text(
            "# format: v1\n1\t37.77\t-122.42\t1000\n1\t37.78\t-122.40\t2000\n",
            encoding="utf-8",
        )
        events = read_gps_events_file(path)
        assert len(events) == 2
        assert events[0].point == GeoPoint(37.77, -122.42)

    def test_profile_claims_keep_spaces_in_text(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("7\t1000\tMalibu, CA  USA\n", encoding="utf-8")
        claims = read_profile_claims_file(path)
        assert claims == [ProfileClaim(7, "Malibu, CA  USA", 1000.0)]

    def test_profile_claims_keep_tabs_in_text(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("8\t1000\tParis\tFrance\n9\t1000\t\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"claims\.tsv:2: empty profile text"):
            read_profile_claims_file(path)
        path.write_text("8\t1000\tParis\tFrance\n", encoding="utf-8")
        assert read_profile_claims_file(path) == [ProfileClaim(8, "Paris\tFrance", 1000.0)]

    def test_seeds_roundtrip(self, tmp_path):
        seeds = {
            1: GroundTruthRecord(1, HOME, "gps", 1.25),
            2: GroundTruthRecord(2, GeoPoint(34.03, -118.78), "gazetteer", 0.0),
        }
        path = tmp_path / "seeds.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            write_seeds_file(seeds, fh)
        assert read_seeds_file(path) == seeds

    def test_bad_source_rejected(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("1\t0.0\t0.0\toracle\t0.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_seeds_file(path)


class TestGpsEventMemory:
    """Bytes per event that read_gps_events_file retains, traced with
    tracemalloc on 24,000 events of 3,000 ten-digit user ids, written as the
    seed-ingest benchmark writes them. Slotted events that share one int per
    user retain 188 B per event (CPython 3.11); events with a __dict__ and
    an int object per row retained 256 B."""

    MAX_RETAINED_B_PER_EVENT = 220

    @pytest.fixture(scope="class")
    def events_file(self, tmp_path_factory):
        rng = random.Random(319)
        users = rng.sample(range(10**9, 10**10), 3000)
        path = tmp_path_factory.mktemp("memory") / "gps.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(24000):
                p = _anywhere(rng)
                ts = 1.7e9 + rng.uniform(0.0, 90.0) * DAY
                fh.write(f"{rng.choice(users)}\t{p.lat!r}\t{p.lon!r}\t{ts!r}\n")
        return path, 24000

    def test_read_retains_under_the_bound(self, events_file):
        path, n_events = events_file
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events = read_gps_events_file(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(events) == n_events
        per_event = (retained - before) / n_events
        assert per_event < self.MAX_RETAINED_B_PER_EVENT, (
            f"the events retain {per_event:.1f} B each"
        )
