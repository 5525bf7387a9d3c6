"""Dispersion-constrained total-variation minimization by bulk-synchronous
parallel coordinate descent.

Each round, every woken non-seed node proposes the weighted geodesic
l1-median of its located neighbors, computed against the previous round's
frozen snapshot. The proposal is accepted only when the node's ego
dispersion (median distance from the candidate to those neighbors) stays
within gamma and, for a node that is already located, only when it does not
increase the node's own variation. A node whose proposal is rejected keeps
its previous location and dispersion, so the located set only grows and
every accepted update descends. Seeds never move. Because updates read only
the snapshot, the result is independent of visit order and worker count.

A node is woken in round k when at least one of its neighbors had an update
accepted in round k-1; in round 1 the seeds count as round 0's accepted
updates. Only woken nodes propose, in network order, as only the vertices
that received a message run in Pregel (Malewicz et al., SIGMOD 2010). This
is exact. node_update(i) is a deterministic function of i's neighbors'
points and i's own previous point. A node that is not woken sees the same
neighbor points as the last time it ran (if it never ran, it has no located
neighbor and would return None), so re-running it would reproduce that
run's candidate c and dispersion d. If that run was accepted, i's point is
c, and geodesic_distance(c, c) is exactly 0.0, which is not > TOL_KM (this
needs TOL_KM >= 0): the update would rewrite an equal estimate. If that
run was rejected, i's entry is unchanged and the rejection repeats.
The wake rule keys on accepted updates, not on comparing points, which
GeoPoint equality would get wrong for -0.0 == 0.0. The woken set is built
from the accepted nodes' rows and dropped before the round's map: nothing
is cached.

A round is one map of node_update over the woken nodes (_workers.fork_map),
serial or, with threads=N > 1, in forked worker processes. One pool is
forked per round, after that round's frozen snapshot is in place: the
snapshot, the network and the config reach the workers at fork, so no input
is serialized, and the parent applies the per-node results, which come back
in network order, as it does the serial results. It applies them in place,
into the dict the round's snapshot holds: fork_map returns only once every
result is back and the pool is closed (or the serial list is complete), so
no worker and no later node of the round can still read the snapshot, and
each node has at most one update, read before it is overwritten. That holds
at any worker count, and it saves a copy of the located dict per round.
Each update walks its node's neighbors once, reading the row slices from
the network's compressed rows (SocialNetwork._row), never building
(neighbor, weight) pairs in the hot loop; the descent guard's
previous-point variation reuses that walk's points and weights.
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
    proposed: int  # the woken nodes that node_update ran on this round


def write_iteration_stats_csv(stats: Iterable[IterationStats], fh: TextIO) -> None:
    _tsv.write_csv(fh, [f.name for f in fields(IterationStats)], stats)


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
) -> tuple[GeoPoint, float] | None:
    """Candidate location and dispersion for non-seed node i against the
    iteration-k snapshot, or None when i has no located neighbors, the
    candidate's dispersion exceeds gamma, or the candidate would increase the
    variation of a located i. It walks i's neighbors once: the median, the
    candidate's and the previous point's variations read that walk's points
    and weights."""
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
    if not moved:
        # A move within the median tolerance raises the variation by at most
        # TOL_KM times the located weight (each distance is 1-Lipschitz).
        return candidate, disp
    # Both variations in nodal_variation's order, from the one walk above.
    variation = _weighted_sum(weights, distances)
    old_variation = _weighted_sum(weights, [geodesic_distance(previous.point, p) for p in points])
    if variation > old_variation:
        # Hemisphere-spanning neighbor sets make the median fall back to the
        # medoid, which can regress past the refined previous location; a
        # non-improving candidate is a no-update.
        return None
    return candidate, disp


def infer(
    network: SocialNetwork,
    seeds: Mapping[int, GeoPoint],
    cfg: SolverConfig | None = None,
    *,
    threads: int = 1,
) -> tuple[EstimateState, list[IterationStats]]:
    """Run the bulk-synchronous solver for cfg.iterations rounds.

    Round k runs node_update on the non-seed nodes woken by round k-1's
    accepted updates (the seeds, for round 1), in network order; the module
    docstring shows why every other node's update would change nothing.
    Seeds are fixed for all rounds and may be absent from the network
    (isolated seeds pass through to the output unchanged).
    """
    cfg = cfg or SolverConfig()
    located: dict[int, LocationEstimate] = {
        user: LocationEstimate(user, point, math.nan, SOURCE_SEED, 0)
        for user, point in sorted(seeds.items())
    }
    candidates = [u for u in network.nodes() if u not in seeds]
    accepted: Iterable[int] = seeds

    reports: list[IterationStats] = []
    for k in range(1, cfg.iterations + 1):
        proposers = _woken(candidates, accepted, network)
        accepted = []
        snapshot = EstimateState(located, k - 1)
        context = (snapshot, network, cfg)
        results = _workers.fork_map(node_update, proposers, context, threads)

        # Every update of the round is in hand, so the snapshot is no longer
        # read and the updates go into it in place.
        newly = 0
        for user, update in zip(proposers, results):
            if update is None:
                continue
            accepted.append(user)
            previous = located.get(user)
            if previous is None:
                first = k
                newly += 1
            else:
                first = previous.first_located_iteration
            located[user] = LocationEstimate(user, *update, SOURCE_INFERRED, first)
        reports.append(IterationStats(k, newly, len(located), len(proposers)))

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


def _woken(
    candidates: list[int], accepted: Iterable[int], network: SocialNetwork
) -> list[int]:
    """The candidates with a neighbor in accepted, in candidate order. The
    woken set dies here, before the round's map: kept through the map, it
    raised the benchmark solve's traced peak by 0.7 MB (tracemalloc)."""
    woken = {v for user in accepted for v in network._row(user)[0]}
    return [u for u in candidates if u in woken]


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
