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

With threads=N > 1 a round runs in N forked worker processes, not threads
(the median and Vincenty kernels are pure Python, so threads would serialize
on the interpreter lock). One pool is built per round, after that round's
frozen snapshot is in place: the network, the config and the snapshot sit in
a module-level round context that the workers inherit copy-on-write, so no
input is serialized. Each worker computes the updates of contiguous chunks of
candidates and sends back only (user, point, dispersion) triples, gathered in
candidate order; the acceptance bookkeeping and the optional descent check
run in the parent. The pool forks all its workers before it starts its own
manager thread, so the solver forks a process with no other threads unless
its caller started some. Where the fork start method is unavailable the
rounds run serially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from . import _tsv
from .geodesy import GeoPoint, geodesic_distance
from .graph import SocialNetwork
from .robust_stats import WeightedPointSet, dispersion, geodesic_l1_median

SOURCE_SEED = "seed"
SOURCE_INFERRED = "inferred"

DEFAULT_GAMMA_KM = 100.0
DEFAULT_ITERATIONS = 5


@dataclass(frozen=True)
class SolverConfig:
    gamma_km: float = DEFAULT_GAMMA_KM
    iterations: int = DEFAULT_ITERATIONS
    median_tol_km: float = 0.01
    median_max_iter: int = 1000

    def __post_init__(self) -> None:
        if not self.gamma_km > 0.0:  # +inf is allowed
            raise ValueError(f"gamma must be positive, got {self.gamma_km!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.median_tol_km <= 0.0 or self.median_max_iter < 1:
            raise ValueError("median solver tolerances must be positive")


@dataclass(frozen=True)
class LocationEstimate:
    user: int
    point: GeoPoint
    dispersion_km: float  # NaN when the node has no located neighbors
    source: str  # SOURCE_SEED or SOURCE_INFERRED
    first_located_iteration: int  # 0 for seeds


@dataclass(frozen=True)
class EstimateState:
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
    total = 0.0
    any_located = False
    for neighbor, weight in network.neighbors(i):
        est = state.located.get(neighbor)
        if est is None:
            continue
        any_located = True
        total += weight * geodesic_distance(candidate, est.point)
    return total if any_located else None


def node_update(
    i: int, state: EstimateState, network: SocialNetwork, cfg: SolverConfig
) -> tuple[GeoPoint, float] | None:
    """Candidate location and dispersion for non-seed node i against the
    iteration-k snapshot, or None when i has no located neighbors or the
    candidate's dispersion exceeds gamma."""
    points: list[GeoPoint] = []
    weights: list[float] = []
    located = state.located
    for neighbor, weight in network.neighbors(i):
        est = located.get(neighbor)
        if est is not None:
            points.append(est.point)
            weights.append(float(weight))
    if not points:
        return None
    neighbor_set = WeightedPointSet(tuple(points), tuple(weights))
    candidate = geodesic_l1_median(
        neighbor_set, tol_km=cfg.median_tol_km, max_iter=cfg.median_max_iter
    )
    disp = dispersion(candidate, neighbor_set)
    if disp <= cfg.gamma_km:
        return candidate, disp
    return None


def infer(
    network: SocialNetwork,
    seeds: Mapping[int, GeoPoint],
    cfg: SolverConfig | None = None,
    *,
    threads: int = 1,
    check_descent: bool = False,
    stop_when_stable: bool = False,
    _node_order: Sequence[int] | None = None,
) -> tuple[EstimateState, list[IterationStats]]:
    """Run the bulk-synchronous solver for cfg.iterations rounds.

    Seeds are fixed for all rounds and may be absent from the network
    (isolated seeds pass through to the output unchanged). check_descent
    raises DescentViolation if an accepted re-update fails the per-node
    descent bound. stop_when_stable exits early after a round that changes
    nothing; off by default, matching the fixed-round contract.
    """
    cfg = cfg or SolverConfig()
    located: dict[int, LocationEstimate] = {
        user: LocationEstimate(user, point, math.nan, SOURCE_SEED, 0)
        for user, point in sorted(seeds.items())
    }
    if _node_order is None:
        candidates = [u for u in network.nodes() if u not in seeds]
    else:
        candidates = [u for u in _node_order if u not in seeds]

    reports: list[IterationStats] = []
    iteration_done = 0
    for k in range(1, cfg.iterations + 1):
        snapshot = EstimateState(located, k - 1)
        updates = _round_updates(candidates, snapshot, network, cfg, threads)

        next_located = dict(located)
        newly = 0
        changed = False
        for user, point, disp in updates:
            previous = located.get(user)
            if previous is None:
                first = k
                newly += 1
            else:
                first = previous.first_located_iteration
                if check_descent:
                    _assert_descent(user, previous.point, point, snapshot, network, cfg)
            estimate = LocationEstimate(user, point, disp, SOURCE_INFERRED, first)
            if previous != estimate:
                changed = True
            next_located[user] = estimate
        located = next_located
        iteration_done = k
        reports.append(IterationStats(k, newly, len(located)))
        if stop_when_stable and not changed:
            break

    located = _with_seed_dispersions(located, seeds, network)
    return EstimateState(located, iteration_done), reports


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


# The round context the forked workers inherit: (candidates, snapshot,
# network, cfg) while a round's pool is alive, None otherwise. infer is
# therefore not reentrant across threads of one process when threads > 1.
_ROUND: tuple | None = None


def _round_updates(
    candidates: Sequence[int],
    snapshot: EstimateState,
    network: SocialNetwork,
    cfg: SolverConfig,
    threads: int,
) -> list[tuple[int, GeoPoint, float]]:
    if threads <= 1 or len(candidates) < 64:
        return _updates_for(candidates, snapshot, network, cfg)
    # Imported here: the process-pool modules add ~2 MB of resident memory
    # that serial runs never use.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return _updates_for(candidates, snapshot, network, cfg)
    chunk_size = max(1, (len(candidates) + threads * 8 - 1) // (threads * 8))
    starts = range(0, len(candidates), chunk_size)
    stops = [start + chunk_size for start in starts]  # slicing clamps the last
    global _ROUND
    _ROUND = (candidates, snapshot, network, cfg)
    try:
        with ProcessPoolExecutor(
            min(threads, len(starts)), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results = pool.map(_round_chunk, starts, stops)
            return [update for chunk_updates in results for update in chunk_updates]
    finally:
        _ROUND = None


def _round_chunk(start: int, stop: int) -> list[tuple[int, GeoPoint, float]]:
    """Worker entry point: the updates of candidates[start:stop] against the
    inherited round context. GeoPoint results unpickle through the dataclass
    __setstate__, so longitudes come back bit-exact, never re-normalized."""
    candidates, snapshot, network, cfg = _ROUND
    return _updates_for(candidates[start:stop], snapshot, network, cfg)


def _updates_for(
    nodes: Iterable[int],
    snapshot: EstimateState,
    network: SocialNetwork,
    cfg: SolverConfig,
) -> list[tuple[int, GeoPoint, float]]:
    located = snapshot.located
    out = []
    for node in nodes:
        update = node_update(node, snapshot, network, cfg)
        if update is None:
            continue
        point, disp = update
        previous = located.get(node)
        if previous is not None and geodesic_distance(previous.point, point) > cfg.median_tol_km:
            # Hemisphere-spanning neighbor sets make the median fall back to
            # the medoid, which can regress past the refined previous
            # location; a non-improving candidate is a no-update. Moves
            # within the median tolerance satisfy the descent bound by the
            # 1-Lipschitz property and skip the extra distance sums.
            new_var = nodal_variation(node, point, snapshot, network)
            old_var = nodal_variation(node, previous.point, snapshot, network)
            if new_var is not None and old_var is not None and new_var > old_var:
                continue
        out.append((node, point, disp))
    return out


def _assert_descent(
    user: int,
    old_point: GeoPoint,
    new_point: GeoPoint,
    snapshot: EstimateState,
    network: SocialNetwork,
    cfg: SolverConfig,
) -> None:
    new_var = nodal_variation(user, new_point, snapshot, network)
    old_var = nodal_variation(user, old_point, snapshot, network)
    if new_var is None or old_var is None:
        return
    weight_sum = sum(
        w for j, w in network.neighbors(user) if j in snapshot.located
    )
    slack = cfg.median_tol_km * weight_sum
    if new_var > old_var + slack:
        raise DescentViolation(
            f"node {user}: variation rose from {old_var:.6f} to {new_var:.6f} km "
            f"(allowed slack {slack:.6f} km)"
        )


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
        points = [
            out[j].point for j, _ in network.neighbors(user) if j in out
        ]
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
    for lineno, fields in _tsv.iter_rows(path):
        _tsv.require_fields(fields, 6, path, lineno)
        user = _tsv.parse_int(fields[0], path, lineno, "user_id")
        lat = _tsv.parse_float(fields[1], path, lineno, "latitude")
        lon = _tsv.parse_float(fields[2], path, lineno, "longitude")
        disp = _tsv.parse_float(fields[3], path, lineno, "dispersion_km")
        source = fields[4]
        if source not in (SOURCE_SEED, SOURCE_INFERRED):
            raise ValueError(f"{path}:{lineno}: unknown source {source!r}")
        first = _tsv.parse_int(fields[5], path, lineno, "first_located_iteration")
        if user in located:
            raise ValueError(f"{path}:{lineno}: duplicate estimate for user {user}")
        located[user] = LocationEstimate(user, GeoPoint(lat, lon), disp, source, first)
        max_iteration = max(max_iteration, first)
    return EstimateState(located, max_iteration)
