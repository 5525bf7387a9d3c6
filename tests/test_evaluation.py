import io
import math
import re
from statistics import median

import pytest

from tvgeo import evaluation
from tvgeo.evaluation import (
    CityEntry,
    CityTable,
    city_accuracy,
    evaluate,
    gamma_sweep,
    read_truth_file,
    write_per_iteration_csv,
    write_report_csv,
    write_sweep_csv,
)
from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.ground_truth import read_seeds_file, seed_points
from tvgeo.solver import EstimateState, LocationEstimate, SolverConfig, infer, spatial_label_propagation
from tvgeo.synth import SynthConfig, generate

HOME = GeoPoint(40.0, -3.0)


def located_at(user, point, iteration=1, source="inferred"):
    return LocationEstimate(user, point, 0.0, source, iteration)


def state_with(estimates):
    return EstimateState({e.user: e for e in estimates}, max((e.first_located_iteration for e in estimates), default=0))


def small_benchmark():
    cfg = SynthConfig(
        num_cities=3,
        users_per_city=50,
        city_radius_km=15.0,
        intra_edge_mean_degree=6.0,
        inter_edge_fraction=0.05,
        seed_fraction=0.3,
        rng_seed=77,
    )
    result = generate(cfg)
    train = seed_points(result.seeds)
    test = {u: p for u, p in result.truth.items() if u not in train}
    return result, train, test


class TestEvaluate:
    def test_exact_estimates_score_perfectly(self):
        test = {1: HOME, 2: destination(HOME, 90.0, 10.0)}
        state = state_with([located_at(1, test[1]), located_at(2, test[2])])
        report = evaluate(state, test)
        assert report.coverage == 1.0
        assert report.median_error_km == 0.0
        assert report.mean_error_km == 0.0

    def test_two_errors_average(self):
        t1, t2 = HOME, destination(HOME, 180.0, 50.0)
        e1 = destination(t1, 90.0, 2.0)
        e2 = destination(t2, 90.0, 10.0)
        assert abs(geodesic_distance(t1, e1) - 2.0) < 1e-6
        assert abs(geodesic_distance(t2, e2) - 10.0) < 1e-6
        report = evaluate(state_with([located_at(1, e1), located_at(2, e2)]), {1: t1, 2: t2})
        assert abs(report.median_error_km - 6.0) < 1e-5
        assert abs(report.mean_error_km - 6.0) < 1e-5

    def test_unlocated_test_users_lower_coverage_only(self):
        test = {1: HOME, 2: HOME, 3: HOME, 4: HOME}
        state = state_with([located_at(1, HOME)])
        report = evaluate(state, test)
        assert report.coverage == 0.25
        assert report.median_error_km == 0.0

    def test_zero_located_marks_errors_undefined(self):
        report = evaluate(state_with([]), {1: HOME})
        assert report.coverage == 0.0
        assert math.isnan(report.median_error_km)
        assert math.isnan(report.mean_error_km)
        assert report.per_iteration == ()

    def test_per_iteration_rows_group_by_first_located(self):
        t = {u: HOME for u in (1, 2, 3)}
        state = state_with(
            [
                located_at(1, destination(HOME, 0.0, 1.0), iteration=1),
                located_at(2, destination(HOME, 0.0, 3.0), iteration=1),
                located_at(3, destination(HOME, 0.0, 10.0), iteration=2),
            ]
        )
        report = evaluate(state, t)
        assert len(report.per_iteration) == 2
        first, second = report.per_iteration
        assert (first.iteration, first.located, first.newly_located) == (1, 2, 2)
        assert abs(first.median_error_km - 2.0) < 1e-6
        assert abs(first.median_error_new_km - 2.0) < 1e-6
        assert (second.iteration, second.located, second.newly_located) == (2, 3, 1)
        assert abs(second.median_error_km - 3.0) < 1e-6
        assert abs(second.median_error_new_km - 10.0) < 1e-6

    def test_iteration_gaps_yield_empty_rows(self):
        # A round that locates no test user has no row, not an empty one.
        t = {1: HOME, 2: HOME}
        state = state_with(
            [located_at(1, HOME, iteration=1), located_at(2, HOME, iteration=3)]
        )
        report = evaluate(state, t)
        assert [r.iteration for r in report.per_iteration] == [1, 3]
        assert [r.newly_located for r in report.per_iteration] == [1, 1]
        assert report.per_iteration[1].located == 2

    def test_a_gap_of_rounds_takes_no_median(self, monkeypatch):
        """A round with no newly located test user has no row, so a
        10,000-round gap costs no sort."""
        calls = []

        def counting_median(values):
            calls.append(len(values))
            return median(values)

        monkeypatch.setattr(evaluation, "_scalar_median", counting_median)
        t = {u: HOME for u in range(4)}
        state = state_with(
            [located_at(u, destination(HOME, 0.0, u + 1.0)) for u in range(3)]
            + [located_at(3, destination(HOME, 0.0, 10.0), iteration=10_000)]
        )
        report = evaluate(state, t)
        assert len(calls) <= 5
        first, last = report.per_iteration
        assert (first.iteration, first.located, last.iteration, last.located) == (1, 3, 10_000, 4)
        assert abs(last.median_error_km - 2.5) < 1e-6

    def test_order_invariance(self):
        t1 = {1: HOME, 2: destination(HOME, 10.0, 5.0)}
        t2 = dict(reversed(list(t1.items())))
        state = state_with([located_at(1, HOME), located_at(2, HOME)])
        assert evaluate(state, t1) == evaluate(state, t2)

    def test_median_resists_minority_corruption(self):
        test = {u: HOME for u in range(11)}
        estimates = [located_at(u, HOME) for u in range(6)]
        estimates += [located_at(u, destination(HOME, 45.0, 9000.0)) for u in range(6, 11)]
        report = evaluate(state_with(estimates), test)
        assert report.median_error_km == 0.0
        assert report.mean_error_km > 1000.0


class TestCityAccuracy:
    @pytest.fixture
    def cities(self):
        return CityTable(
            (
                CityEntry("Alpha", GeoPoint(0.0, 0.0), 100_000),
                CityEntry("Beta", GeoPoint(0.0, 5.0), 50_000),
                CityEntry("Hamlet", GeoPoint(0.0, 2.5), 100),
            )
        )

    def test_exact_estimate_is_always_correct(self, cities):
        truth = {1: GeoPoint(0.1, 0.2)}
        state = state_with([located_at(1, truth[1])])
        assert city_accuracy(state, truth, cities) == 1.0

    def test_wrong_city_is_incorrect(self, cities):
        truth = {1: GeoPoint(0.1, 0.2)}  # nearest Alpha
        state = state_with([located_at(1, GeoPoint(0.1, 4.9))])  # nearest Beta
        assert city_accuracy(state, truth, cities) == 0.0

    def test_population_filter_removes_small_cities(self, cities):
        # Truth sits by the Hamlet; with the filter the match is decided
        # between Alpha and Beta only, and both points resolve to Beta.
        truth = {1: GeoPoint(0.0, 2.6)}
        state = state_with([located_at(1, GeoPoint(0.0, 4.0))])
        assert city_accuracy(state, truth, cities, min_population=5000) == 1.0

    def test_distance_tie_prefers_population_then_name(self):
        twins = CityTable(
            (
                CityEntry("East", GeoPoint(0.0, 1.0), 10_000),
                CityEntry("West", GeoPoint(0.0, -1.0), 20_000),
            )
        )
        truth = {1: GeoPoint(0.0, 0.0)}
        state = state_with([located_at(1, GeoPoint(0.0, 0.0))])
        assert city_accuracy(state, truth, twins) == 1.0  # both resolve to West

        named = CityTable(
            (
                CityEntry("Bravo", GeoPoint(0.0, 1.0), 10_000),
                CityEntry("Alpha", GeoPoint(0.0, -1.0), 10_000),
            )
        )
        assert city_accuracy(state, truth, named) == 1.0  # both resolve to Alpha

    def test_empty_after_filter_fails(self, cities):
        with pytest.raises(ValueError):
            city_accuracy(state_with([]), {}, cities, min_population=10**9)

    def test_duplicate_city_names_rejected(self):
        with pytest.raises(ValueError):
            CityTable(
                (
                    CityEntry("Same", GeoPoint(0, 0), 1),
                    CityEntry("Same", GeoPoint(1, 1), 2),
                )
            )


class TestGammaSweep:
    def test_single_gamma_matches_direct_evaluation(self):
        result, train, test = small_benchmark()
        cfg = SolverConfig(gamma_km=100.0, iterations=3)
        state, _ = infer(result.network, train, cfg)
        direct = evaluate(state, test)
        rows = gamma_sweep(result.network, train, test, [100.0], iterations=3)
        assert len(rows) == 1
        row = rows[0]
        assert row.gamma_km == 100.0
        assert row.coverage == direct.coverage
        assert row.median_error_km == direct.median_error_km
        assert row.mean_error_km == direct.mean_error_km

    def test_infinite_gamma_row_equals_label_propagation(self):
        result, train, test = small_benchmark()
        state, _ = spatial_label_propagation(result.network, train, iterations=3)
        direct = evaluate(state, test)
        row = gamma_sweep(result.network, train, test, [math.inf], iterations=3)[0]
        assert row.coverage == direct.coverage
        assert row.median_error_km == direct.median_error_km
        assert row.mean_error_km == direct.mean_error_km

    def test_single_iteration_coverage_monotone_in_gamma(self):
        result, train, test = small_benchmark()
        gammas = [2.0, 20.0, 100.0, math.inf]
        rows = gamma_sweep(result.network, train, test, gammas, iterations=1)
        coverages = [r.coverage for r in rows]
        assert coverages == sorted(coverages)

    def test_empty_gamma_list_rejected(self):
        result, train, test = small_benchmark()
        with pytest.raises(ValueError):
            gamma_sweep(result.network, train, test, [], iterations=1)


class TestReportFiles:
    def test_report_csv_shape(self):
        report = evaluate(state_with([located_at(1, HOME)]), {1: HOME})
        buffer = io.StringIO()
        write_report_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "coverage,median_error_km,mean_error_km,city_accuracy"
        assert lines[1].startswith("1.0,0.0,0.0,")

    def test_per_iteration_csv_mirrors_rows(self):
        t = {1: HOME, 2: HOME}
        state = state_with([located_at(1, HOME, 1), located_at(2, HOME, 2)])
        report = evaluate(state, t)
        buffer = io.StringIO()
        write_per_iteration_csv(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "iteration,located,newly_located,median_error_km,median_error_new_km"
        assert len(lines) == 1 + len(report.per_iteration)

    def test_a_distant_round_writes_no_gap_rows(self):
        # Two test users, and two rows however many rounds lie between them.
        t = {1: HOME, 2: HOME}
        state = state_with([located_at(1, HOME, 1), located_at(2, HOME, 300_000)])
        buffer = io.StringIO()
        write_per_iteration_csv(evaluate(state, t), buffer)
        header, *rows = buffer.getvalue().splitlines()
        assert [row.split(",")[:3] for row in rows] == [["1", "1", "1"], ["300000", "2", "1"]]

    def test_sweep_csv_roundtrips_infinity(self):
        result, train, test = small_benchmark()
        rows = gamma_sweep(result.network, train, test, [math.inf], iterations=1)
        buffer = io.StringIO()
        write_sweep_csv(rows, buffer)
        data_line = buffer.getvalue().splitlines()[1]
        assert data_line.startswith("inf,")
        assert float(data_line.split(",")[0]) == math.inf


class TestTruthFiles:
    def test_reads_three_column_truth(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("# format: v1\n1\t40.0\t-3.0\n", encoding="utf-8")
        assert read_truth_file(path) == {1: GeoPoint(40.0, -3.0)}

    def test_reads_five_column_seeds(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("1\t40.0\t-3.0\tgps\t0.0\n", encoding="utf-8")
        assert read_truth_file(path) == {1: GeoPoint(40.0, -3.0)}

    def test_rejects_other_widths(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("1\t40.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_truth_file(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1\t10.0\t20.0\n2\t11.0\t21.0\tgps\t0.0\n",
            "1\t10.0\t20.0\tgps\t0.0\n2\t11.0\t21.0\n",
        ],
    )
    def test_rejects_a_row_wider_or_narrower_than_the_first(self, tmp_path, text):
        path = tmp_path / "truth.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected"):
            read_truth_file(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1\t10.0\t20.0\tbogus\t0.0", "unknown seed source 'bogus'"),
            ("1\t10.0\t20.0\tgps\t-5.0", "spread must be non-negative"),
            ("1\t10.0\t20.0\tgps\twide", "bad spread_km 'wide'"),
        ],
    )
    def test_checks_seed_rows_as_the_seeds_reader_does(self, tmp_path, row, message):
        path = tmp_path / "seeds.tsv"
        path.write_text(f"{row}\n", encoding="utf-8")
        for read in (read_truth_file, read_seeds_file):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {re.escape(message)}"):
                read(path)
