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
candidate order, as it does the serial results. The optional descent check
runs in node_update and costs one more variation sum per located node that
moved within the median tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Iterable, Mapping, Sequence, TextIO

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


@dataclass(frozen=True)
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
    variation of a located i. check_descent: as for infer."""
    located = state.located
    points, weights = _located_neighbors(i, located, network)
    if not points:
        return None
    neighbor_set = WeightedPointSet(tuple(points), tuple(weights))
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
    variation = _weighted_sum(weights, distances)
    old_variation = nodal_variation(i, previous.point, state, network)
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
        updates = _round_updates(candidates, snapshot, network, cfg, threads, check_descent)

        next_located = dict(located)
        newly = 0
        for user, point, disp in updates:
            previous = located.get(user)
            if previous is None:
                first = k
                newly += 1
            else:
                first = previous.first_located_iteration
            next_located[user] = LocationEstimate(user, point, disp, SOURCE_INFERRED, first)
        located = next_located
        reports.append(IterationStats(k, newly, len(located)))

    located = _with_seed_dispersions(located, seeds, network)
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
) -> tuple[list[GeoPoint], list[float]]:
    """The points of i's located neighbors and their edge weights as floats,
    in adjacency order."""
    points: list[GeoPoint] = []
    weights: list[float] = []
    for neighbor, weight in network.neighbors(i):
        est = located.get(neighbor)
        if est is not None:
            points.append(est.point)
            weights.append(float(weight))
    return points, weights


def _weighted_sum(weights: Iterable[float], distances: Iterable[float]) -> float:
    """The one order and rounding of every variation sum."""
    total = 0.0
    for weight, distance in zip(weights, distances):
        total += weight * distance
    return total


def _round_updates(
    candidates: Sequence[int],
    snapshot: EstimateState,
    network: SocialNetwork,
    cfg: SolverConfig,
    threads: int,
    check_descent: bool,
) -> list[tuple[int, GeoPoint, float]]:
    """(user, point, dispersion) of every accepted update, in candidate order."""
    context = (snapshot, network, cfg, check_descent)
    results = _workers.fork_map(node_update, candidates, context, threads)
    return [(node, *update) for node, update in zip(candidates, results) if update is not None]


def _with_seed_dispersions(
    located: dict[int, LocationEstimate],
    seeds: Mapping[int, GeoPoint],
    network: SocialNetwork,
) -> dict[int, LocationEstimate]:
    # Seeds never move, but their ego dispersion against the final state is
    # still a useful confidence signal; NaN when nothing nearby is located.
    out = dict(located)
    for user in seeds:
        estimate = out[user]
        points, _ = _located_neighbors(user, out, network)
        if points:
            disp = dispersion(estimate.point, WeightedPointSet.unweighted(points))
        else:
            disp = math.nan
        out[user] = replace(estimate, dispersion_km=disp)
    return out


# --- file format -------------------------------------------------------------
#
# Estimate row: user_id <TAB> lat <TAB> lon <TAB> dispersion_km <TAB> source
#               <TAB> first_located_iteration

ESTIMATE_COLUMNS = (
    "user_id",
    "lat",
    "lon",
    "dispersion_km",
    "source",
    "first_located_iteration",
)


def write_estimates_file(state: EstimateState, fh: TextIO) -> None:
    _tsv.write_header(fh, ESTIMATE_COLUMNS)
    for user in sorted(state.located):
        e = state.located[user]
        fh.write(
            f"{user}\t{e.point.lat!r}\t{e.point.lon!r}\t{e.dispersion_km!r}"
            f"\t{e.source}\t{e.first_located_iteration}\n"
        )


def read_estimates_file(path: str | Path) -> EstimateState:
    located: dict[int, LocationEstimate] = {}
    max_iteration = 0
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 6)
            user = _tsv.parse_int(fields[0], "user_id")
            point = _tsv.parse_point(fields[1], fields[2])
            disp = _tsv.parse_float(fields[3], "dispersion_km")
            source = fields[4]
            if source not in (SOURCE_SEED, SOURCE_INFERRED):
                raise ValueError(f"unknown source {source!r}")
            first = _tsv.parse_int(fields[5], "first_located_iteration")
            if source == SOURCE_SEED and first != 0:
                raise ValueError(f"seed row with first_located_iteration {first}, expected 0")
            if source == SOURCE_INFERRED and first < 1:
                raise ValueError(f"inferred row with first_located_iteration {first}, expected >= 1")
            if user in located:
                raise ValueError(f"duplicate estimate for user {user}")
            located[user] = LocationEstimate(user, point, disp, source, first)
            max_iteration = max(max_iteration, first)
    return EstimateState(located, max_iteration)
