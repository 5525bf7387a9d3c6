"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with `pytest tests/test_acceptance.py -s` to
see the lines as they happen).

Golden values were recorded at the first verified run of the committed
benchmark and are pinned below. The determinism criterion compares bytes
exactly; the pinned metric values are asserted at 1e-6 relative so an ulp of
libm variation on another platform reads as a real signal, not test noise.

GOLDEN_DIGEST is libm-sensitive. It hashes the estimates file, whose floats
come from sin, cos, atan2 and friends in the platform's C math library. It
holds with CPython 3.11.7 on x86-64 Linux (glibc). Another libm, or another
CPU's rounding of the transcendental functions, can move the last bit of an
estimate and so the digest, while the metric goldens still agree to 1e-6. A
digest mismatch on a new platform is a question about the platform before
it is a question about the code.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import time
from contextlib import contextmanager

import pytest

from tvgeo import _workers
from tvgeo.cli import main
from tvgeo.evaluation import city_accuracy, evaluate, gamma_sweep
from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.graph import SocialNetwork
from tvgeo.ground_truth import (
    Gazetteer,
    GpsEvent,
    GroundTruthRecord,
    ProfileClaim,
    gazetteer_homes,
    gps_homes,
    merge_seeds,
    read_seeds_file,
    seed_points,
)
from tvgeo.robust_stats import WeightedPointSet, geodesic_l1_median, weighted_distance_sum
from tvgeo.solver import SolverConfig, infer, spatial_label_propagation, write_estimates_file
from tvgeo.synth import SynthConfig, generate

from conftest import BENCHMARK_CONFIG, BENCHMARK_SOLVER
from oracles import grid_search_median, oracle_distance_km

# Golden values from the first verified benchmark run (rng_seed 17).
GOLDEN_DIGEST = "69b52e5a035b433a16d41e7308d79c42bfc0ae5168676780d19558439b8457f2"
GOLDEN_COVERAGE = 0.9842777777777778
GOLDEN_MEDIAN_KM = 5.376356815095647
GOLDEN_MEAN_KM = 99.82797332479703
GOLDEN_CITY_ACCURACY = 0.9892193938025625

CORRUPTION_FRACTION = 0.02
CORRUPTION_RNG_SEED = 99

DAY = 86400.0
NOW = 1_700_000_000.0


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL {name}")
        raise
    print(f"[ACCEPTANCE] PASS {name}")


def random_sphere_point(rng: random.Random) -> GeoPoint:
    lat = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
    return GeoPoint(lat, rng.uniform(-180.0, 180.0))


def angular_separation_deg(a: GeoPoint, b: GeoPoint) -> float:
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dot = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(
        lon2 - lon1
    )
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def estimates_text(state) -> str:
    buffer = io.StringIO()
    write_estimates_file(state, buffer)
    return buffer.getvalue()


def test_geodesic_oracle_agreement():
    """geodesic_distance within 0.5 m of the quadrature oracle on 1,000
    random non-antipodal pairs, in under 5 seconds."""
    with criterion("geodesic oracle: 1,000 pairs within 0.5 m, < 5 s"):
        rng = random.Random(20_2404)
        pairs = []
        while len(pairs) < 1000:
            a, b = random_sphere_point(rng), random_sphere_point(rng)
            if a != b and angular_separation_deg(a, b) <= 179.0:
                pairs.append((a, b))
        started = time.perf_counter()
        worst = 0.0
        for a, b in pairs:
            got = geodesic_distance(a, b)
            want = oracle_distance_km(a.lat, a.lon, b.lat, b.lon)
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - started
        assert worst < 0.0005, f"worst disagreement {worst * 1e6:.1f} mm"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_median_oracle_agreement():
    """geodesic_l1_median objective within 1 km * total weight of a 100 m
    grid search on 100 random weighted sets, in under 60 seconds."""
    with criterion("median oracle: 100 weighted sets within 1 km x weight, < 60 s"):
        rng = random.Random(40_4042)
        started = time.perf_counter()
        for _ in range(100):
            center = GeoPoint(rng.uniform(-55.0, 55.0), rng.uniform(-150.0, 150.0))
            n = rng.randint(1, 7)
            points = tuple(
                destination(center, rng.uniform(0.0, 360.0), 250.0 * math.sqrt(rng.random()))
                for _ in range(n)
            )
            weights = tuple(rng.uniform(0.5, 5.0) for _ in range(n))
            point_set = WeightedPointSet(points, weights)
            ours = weighted_distance_sum(geodesic_l1_median(point_set), point_set)
            _, oracle_objective = grid_search_median(points, weights, resolution_km=0.1)
            budget = 1.0 * point_set.weight_sum
            assert ours <= oracle_objective + budget, (points, weights)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def _filter_fixture():
    """50 users, 5 per pattern, exercising every ground-truth rule.

    Returns (gps_events, profile_claims, gazetteer, expected_seed_records).
    """
    malibu = GeoPoint(34.03, -118.78)
    springfield = GeoPoint(39.80, -89.64)
    gazetteer = Gazetteer({"malibu, ca": malibu, "springfield": springfield})

    def home_of(user: int) -> GeoPoint:
        return GeoPoint(20.0 + (user % 25), -120.0 + 2.0 * (user // 5))

    events: list[GpsEvent] = []
    claims: list[ProfileClaim] = []
    expected: dict[int, GroundTruthRecord] = {}

    for user in range(1, 6):  # stationary GPS users: pass
        home = home_of(user)
        events += [GpsEvent(user, home, k * DAY) for k in range(3)]
        expected[user] = GroundTruthRecord(user, home, "gps", 0.0)

    for user in range(6, 11):  # only two events: fail the >= 3 rule
        home = home_of(user)
        events += [GpsEvent(user, home, k * DAY) for k in range(2)]

    for user in range(11, 16):  # 200 km five minutes after: 2400 km/h, fail
        home = home_of(user)
        far = destination(home, 45.0, 200.0)
        events += [
            GpsEvent(user, home, 0.0),
            GpsEvent(user, home, DAY),
            GpsEvent(user, far, DAY + 300.0),
        ]

    for user in range(16, 21):  # 0/100/200 km spread: MAD 100 km > 30, fail
        home = home_of(user)
        events += [
            GpsEvent(user, home, 0.0),
            GpsEvent(user, destination(home, 90.0, 100.0), DAY),
            GpsEvent(user, destination(home, 90.0, 200.0), 2 * DAY),
        ]

    for user in range(21, 26):  # three home events plus one 20 km trip: pass
        home = home_of(user)
        events += [GpsEvent(user, home, k * DAY) for k in range(3)]
        events.append(GpsEvent(user, destination(home, 120.0, 20.0), 3 * DAY))
        expected[user] = GroundTruthRecord(user, home, "gps", 0.0)

    for user in range(26, 31):  # GPS and a fresh claim: GPS wins
        home = home_of(user)
        events += [GpsEvent(user, home, k * DAY) for k in range(3)]
        claims.append(ProfileClaim(user, "Malibu, CA", NOW - 10 * DAY))
        expected[user] = GroundTruthRecord(user, home, "gps", 0.0)

    for user in range(31, 36):  # fresh claim, messy formatting: pass
        claims.append(ProfileClaim(user, "  maLibu,   CA ", NOW - 10 * DAY))
        expected[user] = GroundTruthRecord(user, malibu, "gazetteer", 0.0)

    for user in range(36, 41):  # claim 91 days old: stale, fail
        claims.append(ProfileClaim(user, "Malibu, CA", NOW - 91 * DAY))

    for user in range(41, 46):  # multi-location string, no exact match: fail
        claims.append(ProfileClaim(user, "Paris | London", NOW - 10 * DAY))

    for user in range(46, 51):  # GPS too fast, but a fresh claim rescues them
        home = home_of(user)
        far = destination(home, 45.0, 200.0)
        events += [
            GpsEvent(user, home, 0.0),
            GpsEvent(user, home, DAY),
            GpsEvent(user, far, DAY + 300.0),
        ]
        claims.append(ProfileClaim(user, "Springfield", NOW - 10 * DAY))
        expected[user] = GroundTruthRecord(user, springfield, "gazetteer", 0.0)

    return events, claims, gazetteer, expected


def test_ground_truth_filter_fixture(tmp_path):
    """The 50-user fixture produces the hand-verified seed set exactly, both
    through the library pipeline and through the seed command."""
    with criterion("ground-truth filters: 50-user fixture reproduced exactly"):
        events, claims, gazetteer, expected = _filter_fixture()
        gps_records = gps_homes(events)
        gazetteer_records = gazetteer_homes(claims, gazetteer, NOW)
        merged = merge_seeds(gps_records.values(), gazetteer_records.values())
        assert merged == expected

        gps_path = tmp_path / "gps.tsv"
        with open(gps_path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(f"{e.user}\t{e.point.lat!r}\t{e.point.lon!r}\t{e.timestamp!r}\n")
        claims_path = tmp_path / "claims.tsv"
        with open(claims_path, "w", encoding="utf-8") as fh:
            for c in claims:
                fh.write(f"{c.user}\t{c.observed_at!r}\t{c.text}\n")
        gazetteer_path = tmp_path / "gazetteer.tsv"
        gazetteer_path.write_text(
            "malibu, ca\t34.03\t-118.78\nspringfield\t39.80\t-89.64\n", encoding="utf-8"
        )
        seeds_path = tmp_path / "seeds.tsv"
        code = main(
            [
                "seed",
                "--gps", str(gps_path),
                "--profiles", str(claims_path),
                "--gazetteer", str(gazetteer_path),
                "--now", str(NOW),
                "--out", str(seeds_path),
            ]
        )
        assert code == 0
        assert read_seeds_file(seeds_path) == expected


def test_solver_determinism_across_workers(tmp_path, monkeypatch, benchmark_files, benchmark_run):
    """1, 4, and 16 workers produce byte-identical estimate files on the
    committed benchmark, in under 2 minutes of total solver time."""
    import concurrent.futures

    pool_sizes: list[int] = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # fork_map caps a pool at the usable CPUs; lifting the cap makes 4 and 16
    # threads fork 4 and 16 workers on any host.
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    with criterion("determinism: 1/4/16 workers byte-identical, < 2 min"):
        _, _, reference_text, _ = benchmark_run
        elapsed = 0.0
        for threads in (1, 4, 16):
            out = tmp_path / f"estimates_t{threads}.tsv"
            pool_sizes.clear()
            started = time.perf_counter()
            code = main(
                [
                    "infer",
                    str(benchmark_files["network"]),
                    str(benchmark_files["seeds"]),
                    "--threads", str(threads),
                    "--out", str(out),
                ]
            )
            elapsed += time.perf_counter() - started
            assert code == 0
            # One pool per round, each of the requested size.
            assert pool_sizes == ([threads] * BENCHMARK_SOLVER.iterations if threads > 1 else [])
            assert out.read_text(encoding="utf-8") == reference_text, (
                f"{threads}-worker output differs from the reference run"
            )
        digest = hashlib.sha256(reference_text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST
        assert elapsed < 120.0, f"three runs took {elapsed:.1f}s"


def test_benchmark_accuracy(benchmark_run, benchmark_result, benchmark_test_points):
    """City accuracy >= 0.85 and median error below the 15 km city radius on
    the committed benchmark; golden metrics pinned at 1e-6 relative."""
    with criterion("benchmark accuracy: city accuracy >= 0.85, median < 15 km"):
        state, _, _, _ = benchmark_run
        report = evaluate(state, benchmark_test_points)
        accuracy = city_accuracy(
            state, benchmark_test_points, benchmark_result.cities, 5000
        )
        assert accuracy >= 0.85
        assert report.median_error_km < BENCHMARK_CONFIG.city_radius_km
        assert report.coverage == pytest.approx(GOLDEN_COVERAGE, rel=1e-6)
        assert report.median_error_km == pytest.approx(GOLDEN_MEDIAN_KM, rel=1e-6)
        assert report.mean_error_km == pytest.approx(GOLDEN_MEAN_KM, rel=1e-6)
        assert accuracy == pytest.approx(GOLDEN_CITY_ACCURACY, rel=1e-6)


def test_per_iteration_error_decay(benchmark_run, benchmark_test_points):
    """Median error of test users first located at iteration k is
    non-decreasing in k (one inversion of at most 10% relative allowed)."""
    with criterion("per-iteration decay: new-user median error non-decreasing"):
        state, _, _, _ = benchmark_run
        report = evaluate(state, benchmark_test_points)
        medians = [
            row.median_error_new_km
            for row in report.per_iteration
            if row.newly_located > 0
        ]
        assert len(medians) >= 4, f"too few populated iterations: {medians}"
        inversions = [
            (later - earlier) / earlier
            for earlier, later in zip(medians, medians[1:])
            if later < earlier
        ]
        assert len(inversions) <= 1, f"medians {medians}"
        assert all(abs(inv) <= 0.10 for inv in inversions), f"medians {medians}"


def test_gamma_controls_outlier_error(benchmark_result, benchmark_test_points):
    """With 2% of seeds planted in far cities, gamma=100 beats gamma=inf on
    mean error while keeping at least 80% of its coverage."""
    with criterion("gamma sweep: mean error down at gamma=100, coverage >= 80%"):
        train = seed_points(benchmark_result.seeds)
        rng = random.Random(CORRUPTION_RNG_SEED)
        corrupted = dict(train)
        for user in rng.sample(sorted(train), round(CORRUPTION_FRACTION * len(train))):
            own_city = benchmark_result.city_of[user]
            other = rng.randrange(len(benchmark_result.cities.entries) - 1)
            if other >= own_city:
                other += 1
            corrupted[user] = benchmark_result.cities.entries[other].point
        rows = gamma_sweep(
            benchmark_result.network,
            corrupted,
            benchmark_test_points,
            [10.0, 30.0, 100.0, 300.0, 1000.0, math.inf],
            iterations=5,
            threads=4,
        )
        at_100 = next(r for r in rows if r.gamma_km == 100.0)
        at_inf = next(r for r in rows if math.isinf(r.gamma_km))
        assert at_100.mean_error_km < at_inf.mean_error_km, (at_100, at_inf)
        assert at_100.coverage >= 0.80 * at_inf.coverage, (at_100, at_inf)


def test_label_propagation_equivalence():
    """spatial_label_propagation output is identical to infer with
    gamma=inf on every fixture."""
    with criterion("equivalence: label propagation == infer at gamma=inf"):
        p = GeoPoint(40.0, -3.0)
        q = destination(p, 90.0, 5000.0)
        fixtures = []

        path = SocialNetwork.from_edges([(1, 2, 1), (2, 3, 1)])
        fixtures.append((path, {1: p, 3: p}))

        split = SocialNetwork.from_edges([(1, 3, 1), (2, 3, 1)])
        fixtures.append((split, {1: p, 2: q}))

        rng = random.Random(505)
        synth_result = generate(
            SynthConfig(
                num_cities=3,
                users_per_city=40,
                city_radius_km=15.0,
                intra_edge_mean_degree=5.0,
                inter_edge_fraction=0.1,
                seed_fraction=0.25,
                rng_seed=6,
            )
        )
        fixtures.append((synth_result.network, seed_points(synth_result.seeds)))

        star_seeds = {1: p}
        fixtures.append((SocialNetwork.from_edges([(1, 2, 2), (1, 3, 1)]), star_seeds))

        for iterations in (1, 4):
            for network, seeds in fixtures:
                slp_state, slp_stats = spatial_label_propagation(
                    network, seeds, iterations=iterations
                )
                inf_state, inf_stats = infer(
                    network, seeds, SolverConfig(gamma_km=math.inf, iterations=iterations)
                )
                assert estimates_text(slp_state) == estimates_text(inf_state)
                assert slp_stats == inf_stats


def test_per_node_descent_on_benchmark(benchmark_run):
    """The instrumented debug assertion held on every accepted update across
    the full benchmark run (the fixture runs with check_descent=True and
    would have raised DescentViolation otherwise)."""
    with criterion("per-node descent: instrumented benchmark run is clean"):
        state, stats, _, _ = benchmark_run
        assert state.iteration == 5
        assert [s.iteration for s in stats] == [1, 2, 3, 4, 5]
        assert state.located
