"""Dispersion-constrained total-variation minimization by bulk-synchronous
parallel coordinate descent.

Each round, every non-seed node proposes the weighted geodesic l1-median of
its located neighbors, computed against the previous round's frozen snapshot.
The proposal is accepted only when the node's ego dispersion (median distance
from the candidate to those neighbors) stays within gamma and, for a node
that is already located, only when it does not increase the node's own
variation. A node whose proposal is rejected keeps its previous location and
dispersion, so the located set only grows and every accepted update descends.
Seeds never move. Because updates read only the snapshot, the result is
independent of visit order and worker count.

A round is one map of node_update over the candidates (_workers.fork_map),
serial or, with threads=N > 1, in forked worker processes. One pool is forked
per round, after that round's frozen snapshot is in place: the snapshot, the
network and the config reach the workers at fork, so no input is serialized,
and the parent applies the per-candidate results, which come back in
candidate order, as it does the serial results. It applies them in place,
into the dict the round's snapshot holds: fork_map returns only once every
result is back and the pool is closed (or the serial list is complete), so
no worker and no later candidate of the round can still read the snapshot,
and each candidate has at most one update, read before it is overwritten.
That holds at any worker count, and it saves a copy of the located dict per
round. Each update walks its node's neighbors once, reading the row slices
from the network's compressed rows (SocialNetwork._row), never building
(neighbor, weight) pairs in the hot loop; the descent guard's previous-point
variation reuses that walk's points and weights. The optional descent check
runs in node_update and costs one more variation sum per located node that
moved within the median tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from statistics import median
from typing import Iterable, Mapping, TextIO

from . import _tsv, _workers
from .geodesy import GeoPoint, geodesic_distance
from .graph import SocialNetwork
from .robust_stats import TOL_KM, WeightedPointSet, dispersion, geodesic_l1_median

SOURCE_SEED = "seed"
SOURCE_INFERRED = "inferred"

DEFAULT_GAMMA_KM = 100.0
DEFAULT_ITERATIONS = 5


@dataclass(frozen=True)
class SolverConfig:
    gamma_km: float = DEFAULT_GAMMA_KM
    iterations: int = DEFAULT_ITERATIONS

    def __post_init__(self) -> None:
        if not self.gamma_km > 0.0:  # +inf is allowed
            raise ValueError(f"gamma must be positive, got {self.gamma_km!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True, slots=True)
class LocationEstimate:
    user: int
    point: GeoPoint
    dispersion_km: float  # NaN when the node has no located neighbors
    source: str  # SOURCE_SEED or SOURCE_INFERRED
    first_located_iteration: int  # 0 for seeds


@dataclass(frozen=True)
class EstimateState:
    """The located users and a round number that nothing in the package
    reads. infer sets iteration to the number of rounds it ran;
    read_estimates_file sets it to the last round that located a user,
    which is lower when the last rounds located no one."""

    located: dict[int, LocationEstimate]
    iteration: int


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    newly_located: int
    located_total: int


def write_iteration_stats_csv(stats: Iterable[IterationStats], fh: TextIO) -> None:
    _tsv.write_csv(fh, [f.name for f in fields(IterationStats)], stats)


class DescentViolation(RuntimeError):
    """An accepted update increased a node's variation beyond the median
    solver tolerance (debug instrumentation)."""


def nodal_variation(
    i: int, candidate: GeoPoint, state: EstimateState, network: SocialNetwork
) -> float | None:
    """Weighted sum of distances from candidate to i's located neighbors, or
    None when no neighbor is located (distinct from a zero variation)."""
    points, weights = _located_neighbors(i, state.located, network)
    if not points:
        return None
    return _weighted_sum(weights, [geodesic_distance(candidate, p) for p in points])


def node_update(
    i: int,
    state: EstimateState,
    network: SocialNetwork,
    cfg: SolverConfig,
    check_descent: bool = False,
) -> tuple[GeoPoint, float] | None:
    """Candidate location and dispersion for non-seed node i against the
    iteration-k snapshot, or None when i has no located neighbors, the
    candidate's dispersion exceeds gamma, or the candidate would increase the
    variation of a located i. It walks i's neighbors once: the median, the
    candidate's and the previous point's variations and the descent slack
    all read that walk's points and weights. check_descent: as for infer."""
    located = state.located
    points, weights = _located_neighbors(i, located, network)
    if not points:
        return None
    neighbor_set = WeightedPointSet(points, weights)
    weights = neighbor_set.weights
    candidate = geodesic_l1_median(neighbor_set)
    distances = [geodesic_distance(candidate, p) for p in points]
    disp = median(distances)
    if disp > cfg.gamma_km:
        return None
    previous = located.get(i)
    if previous is None:
        return candidate, disp
    moved = geodesic_distance(previous.point, candidate) > TOL_KM
    if not (moved or check_descent):
        # A move within the median tolerance satisfies the descent bound by
        # the 1-Lipschitz property; check_descent verifies that claim.
        return candidate, disp
    # Both variations in nodal_variation's order, from the one walk above.
    variation = _weighted_sum(weights, distances)
    old_variation = _weighted_sum(weights, [geodesic_distance(previous.point, p) for p in points])
    if moved and variation > old_variation:
        # Hemisphere-spanning neighbor sets make the median fall back to the
        # medoid, which can regress past the refined previous location; a
        # non-improving candidate is a no-update.
        return None
    if check_descent:
        slack = TOL_KM * sum(weights)
        if variation > old_variation + slack:
            raise DescentViolation(
                f"node {i}: variation rose from {old_variation:.6f} to "
                f"{variation:.6f} km (allowed slack {slack:.6f} km)"
            )
    return candidate, disp


def infer(
    network: SocialNetwork,
    seeds: Mapping[int, GeoPoint],
    cfg: SolverConfig | None = None,
    *,
    threads: int = 1,
    check_descent: bool = False,
) -> tuple[EstimateState, list[IterationStats]]:
    """Run the bulk-synchronous solver for cfg.iterations rounds.

    Seeds are fixed for all rounds and may be absent from the network
    (isolated seeds pass through to the output unchanged). check_descent
    raises DescentViolation if an accepted re-update fails the per-node
    descent bound.
    """
    cfg = cfg or SolverConfig()
    located: dict[int, LocationEstimate] = {
        user: LocationEstimate(user, point, math.nan, SOURCE_SEED, 0)
        for user, point in sorted(seeds.items())
    }
    candidates = [u for u in network.nodes() if u not in seeds]

    reports: list[IterationStats] = []
    for k in range(1, cfg.iterations + 1):
        snapshot = EstimateState(located, k - 1)
        context = (snapshot, network, cfg, check_descent)
        results = _workers.fork_map(node_update, candidates, context, threads)

        # Every update of the round is in hand, so the snapshot is no longer
        # read and the updates go into it in place.
        newly = 0
        for user, update in zip(candidates, results):
            if update is None:
                continue
            previous = located.get(user)
            if previous is None:
                first = k
                newly += 1
            else:
                first = previous.first_located_iteration
            located[user] = LocationEstimate(user, *update, SOURCE_INFERRED, first)
        reports.append(IterationStats(k, newly, len(located)))

    _add_seed_dispersions(located, seeds, network)
    return EstimateState(located, cfg.iterations), reports


def spatial_label_propagation(
    network: SocialNetwork,
    seeds: Mapping[int, GeoPoint],
    iterations: int = DEFAULT_ITERATIONS,
    *,
    threads: int = 1,
) -> tuple[EstimateState, list[IterationStats]]:
    """The gamma-unconstrained special case: every proposal is accepted."""
    cfg = SolverConfig(gamma_km=math.inf, iterations=iterations)
    return infer(network, seeds, cfg, threads=threads)


def _located_neighbors(
    i: int, located: Mapping[int, LocationEstimate], network: SocialNetwork
) -> tuple[list[GeoPoint], list[int]]:
    """The points of i's located neighbors and their edge weights, the
    network's ints, in adjacency order."""
    points: list[GeoPoint] = []
    weights: list[int] = []
    for neighbor, weight in zip(*network._row(i)):
        est = located.get(neighbor)
        if est is not None:
            points.append(est.point)
            weights.append(weight)
    return points, weights


def _weighted_sum(weights: Iterable[float], distances: Iterable[float]) -> float:
    """The one order and rounding of every variation sum."""
    total = 0.0
    for weight, distance in zip(weights, distances):
        total += weight * distance
    return total


def _add_seed_dispersions(
    located: dict[int, LocationEstimate],
    seeds: Mapping[int, GeoPoint],
    network: SocialNetwork,
) -> None:
    # Seeds never move, but their ego dispersion against the final state is
    # still a useful confidence signal; NaN when nothing nearby is located.
    # Only dispersions change, never a point, so the walk may read the dict
    # it writes.
    for user in seeds:
        estimate = located[user]
        points, _ = _located_neighbors(user, located, network)
        if points:
            disp = dispersion(estimate.point, WeightedPointSet.unweighted(points))
        else:
            disp = math.nan
        located[user] = replace(estimate, dispersion_km=disp)


# --- file format -------------------------------------------------------------
#
# Estimate row: user_id <TAB> lat <TAB> lon <TAB> dispersion_km <TAB> source
#               <TAB> first_located_iteration


def write_estimates_file(state: EstimateState, fh: TextIO) -> None:
    columns = ("user_id", "lat", "lon", "dispersion_km", "source", "first_located_iteration")
    rows = (
        (user, e.point.lat, e.point.lon, e.dispersion_km, e.source, e.first_located_iteration)
        for user, e in _tsv.sorted_items(state.located)
    )
    _tsv.write_tsv(fh, columns, rows)


def read_estimates_file(path: str | Path) -> EstimateState:
    located: dict[int, LocationEstimate] = {}
    max_iteration = 0
    columns = (
        ("user_id", int),
        *_tsv.POINT_COLUMNS,
        ("dispersion_km", float),
        ("source", str),
        ("first_located_iteration", int),
    )
    with _tsv.Columns(path, columns, partial(map, _estimate)) as rows:
        for estimate in rows:
            if estimate.user in located:
                raise ValueError(f"duplicate estimate for user {estimate.user}")
            located[estimate.user] = estimate
            max_iteration = max(max_iteration, estimate.first_located_iteration)
    return EstimateState(located, max_iteration)


def _estimate(
    user: int, lat: float, lon: float, disp: float, source: str, first: int
) -> LocationEstimate:
    """The estimates file's record of one row's converted values
    (_tsv.Columns)."""
    point = GeoPoint(lat, lon)
    if disp < 0.0 or disp == math.inf:  # NaN is valid: no located neighbor
        raise ValueError(f"dispersion_km must be NaN or finite and >= 0, got {disp!r}")
    if source == SOURCE_SEED:
        if first != 0:
            raise ValueError(f"seed row with first_located_iteration {first}, expected 0")
    elif source != SOURCE_INFERRED:
        raise ValueError(f"unknown source {source!r}")
    elif first < 1:
        raise ValueError(f"inferred row with first_located_iteration {first}, expected >= 1")
    return LocationEstimate(user, point, disp, source, first)
