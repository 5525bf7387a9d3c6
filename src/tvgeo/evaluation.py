"""Leave-many-out evaluation: error metrics over the located held-out users
(truth minus the seeds), per-iteration accuracy tables, gamma sweeps, and
nearest-city accuracy."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import fmean, median as _scalar_median
from typing import Iterator, Mapping, Sequence, TextIO

from . import _tsv
from .geodesy import GeoPoint, _unit_vector, geodesic_distance, near_ties
from .graph import SocialNetwork
from .ground_truth import _SEED_FORMAT, _keyed_points, _seed_records
from .solver import EstimateState, LocationEstimate, SolverConfig, infer

@dataclass(frozen=True)
class IterationRow:
    iteration: int
    located: int  # cumulative located test users through this iteration
    newly_located: int
    median_error_km: float  # over users located by <= iteration; NaN when none
    median_error_new_km: float  # over users first located here; NaN when none


@dataclass(frozen=True)
class EvalReport:
    coverage: float
    median_error_km: float  # NaN when no test user is located
    mean_error_km: float
    per_iteration: tuple[IterationRow, ...]
    city_accuracy: float | None = None


@dataclass(frozen=True)
class SweepRow:
    gamma_km: float
    coverage: float
    median_error_km: float
    mean_error_km: float


@dataclass(frozen=True)
class CityEntry:
    name: str
    point: GeoPoint
    population: int

    def __post_init__(self) -> None:
        if self.population < 0:
            raise ValueError(f"population must be >= 0, got {self.population}")


def _add_city_name(name: str, names: set[str]) -> None:
    if name in names:
        raise ValueError(f"duplicate city name {name!r}")
    names.add(name)


def _cities(
    names: list[str], lats: list[float], lons: list[float], populations: list[int]
) -> Iterator[tuple[str, GeoPoint, int]]:
    return zip(names, map(GeoPoint, lats, lons), populations)


_CITY_FORMAT = (("name", str), *_tsv.POINT_COLUMNS, ("population", int))


@dataclass(frozen=True)
class CityTable:
    entries: tuple[CityEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        names: set[str] = set()
        for e in entries:
            _add_city_name(e.name, names)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "CityTable":
        entries = []
        names: set[str] = set()
        with _tsv.Columns(path, _CITY_FORMAT, _cities) as rows:
            for name, point, pop in rows:
                _add_city_name(name, names)
                entries.append(CityEntry(name, point, pop))
        return cls(tuple(entries))

    def write_tsv(self, fh: TextIO) -> None:
        _tsv.write_header(fh, ("name", "lat", "lon", "population"))
        for e in self.entries:
            fh.write(f"{e.name}\t{e.point.lat!r}\t{e.point.lon!r}\t{e.population}\n")


def evaluate(estimates: EstimateState, test: Mapping[int, GeoPoint]) -> EvalReport:
    """Error metrics over located test users; coverage is reported alongside
    so the conditioning on located users stays explicit."""
    errors_by_iteration: dict[int, list[float]] = {}
    for estimate, truth in _located(estimates, test):
        error = geodesic_distance(estimate.point, truth)
        errors_by_iteration.setdefault(estimate.first_located_iteration, []).append(error)

    all_errors = [e for k in sorted(errors_by_iteration) for e in errors_by_iteration[k]]
    coverage = len(all_errors) / len(test) if test else 0.0
    median_error = float(_scalar_median(all_errors)) if all_errors else math.nan
    mean_error = fmean(all_errors) if all_errors else math.nan

    rows: list[IterationRow] = []
    if errors_by_iteration:
        cumulative: list[float] = []
        # The first round has errors; a round without any keeps the last median.
        for k in range(min(errors_by_iteration), max(errors_by_iteration) + 1):
            new = errors_by_iteration.get(k, [])
            if new:
                cumulative.extend(new)
                cumulative_median = float(_scalar_median(cumulative))
            rows.append(
                IterationRow(
                    iteration=k,
                    located=len(cumulative),
                    newly_located=len(new),
                    median_error_km=cumulative_median,
                    median_error_new_km=float(_scalar_median(new)) if new else math.nan,
                )
            )
    return EvalReport(coverage, median_error, mean_error, tuple(rows))


def city_accuracy(
    estimates: EstimateState,
    test: Mapping[int, GeoPoint],
    cities: CityTable,
    min_population: int = 5000,
) -> float:
    """Fraction of located test users whose estimate and truth share the same
    nearest city among cities with at least min_population inhabitants.
    Distance ties break toward the larger population, then name order."""
    entries = [e for e in cities.entries if e.population >= min_population]
    if not entries:
        raise ValueError("city table is empty after the population filter")
    vectors = [_unit_vector(e.point) for e in entries]
    located = 0
    correct = 0
    for estimate, truth in _located(estimates, test):
        located += 1
        if _nearest_city(entries, vectors, estimate.point) == _nearest_city(
            entries, vectors, truth
        ):
            correct += 1
    return correct / located if located else 0.0


def gamma_sweep(
    network: SocialNetwork,
    train: Mapping[int, GeoPoint],
    test: Mapping[int, GeoPoint],
    gammas: Sequence[float],
    iterations: int,
    *,
    threads: int = 1,
) -> list[SweepRow]:
    """One full solver run of the given iterations per gamma, evaluated
    against the test set."""
    if not gammas:
        raise ValueError("gamma list must not be empty")
    rows = []
    for gamma in gammas:
        cfg = SolverConfig(gamma_km=gamma, iterations=iterations)
        state, _ = infer(network, train, cfg, threads=threads)
        report = evaluate(state, test)
        rows.append(SweepRow(gamma, report.coverage, report.median_error_km, report.mean_error_km))
    return rows


def _located(
    estimates: EstimateState, test: Mapping[int, GeoPoint]
) -> Iterator[tuple[LocationEstimate, GeoPoint]]:
    """(estimate, truth) of each located test user, in user order."""
    for user in sorted(test):
        estimate = estimates.located.get(user)
        if estimate is not None:
            yield estimate, test[user]


def _nearest_city(
    entries: list[CityEntry], vectors: list[tuple[float, float, float]], point: GeoPoint
) -> str:
    # The chord bound leaves geodesic_distance only the cities that might be
    # nearest; ties break toward the larger population, then the name.
    ties = [entries[k] for k in near_ties(_unit_vector(point), vectors)]
    if len(ties) == 1:
        return ties[0].name
    best = min(ties, key=lambda e: (geodesic_distance(point, e.point), -e.population, e.name))
    return best.name


# --- report files -------------------------------------------------------------


def write_report_csv(report: EvalReport, fh: TextIO) -> None:
    columns = ("coverage", "median_error_km", "mean_error_km", "city_accuracy")
    _tsv.write_csv(fh, columns, [report])


def write_per_iteration_csv(report: EvalReport, fh: TextIO) -> None:
    _tsv.write_csv(fh, [f.name for f in fields(IterationRow)], report.per_iteration)


def write_sweep_csv(rows: Sequence[SweepRow], fh: TextIO) -> None:
    _tsv.write_csv(fh, [f.name for f in fields(SweepRow)], rows)


def read_truth_file(path: str | Path) -> dict[int, GeoPoint]:
    """Read user->location truth from a 3-column truth TSV, or the homes of a
    5-column seeds TSV parsed as read_seeds_file parses them. The first data
    row sets the width; a row of another width fails at its line."""
    first = next(_tsv.iter_rows(path), None)
    width = 3 if first is None else len(first[1])
    if width == 5:
        layout = (_SEED_FORMAT, _seed_records)
    elif width == 3:
        layout = ((("user_id", int), *_tsv.POINT_COLUMNS), _keyed_points)
    else:
        raise ValueError(f"{path}:{first[0]}: expected 3 (truth) or 5 (seeds) fields, got {width}")
    truth: dict[int, GeoPoint] = {}
    with _tsv.Columns(path, *layout) as rows:
        pairs = rows if width == 3 else ((r.user, r.home) for r in rows)
        for user, point in pairs:
            if user in truth:
                raise ValueError(f"duplicate truth for user {user}")
            truth[user] = point
    return truth
