"""Kernel probes: per-call cost of the geodesic distance, the median and
dispersion of a small local set, and the medoid fallback on worldwide sets.

They regenerate the micro rows of the ROADMAP baseline and run untraced.
"""

from __future__ import annotations

import math
import random
from statistics import median
from time import perf_counter

from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.robust_stats import WeightedPointSet, dispersion, geodesic_l1_median

from tracing import is_wide

BATCHES = 5
LOCAL_RADIUS_KM = 15.0
MEDOID_SIZES = ((50, 5), (200, 1), (400, 1))  # (set size, repetitions)


def _local_sets(rng: random.Random, count: int, size: int) -> list[WeightedPointSet]:
    sets = []
    for _ in range(count):
        center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        points = tuple(
            destination(center, rng.uniform(0.0, 360.0), LOCAL_RADIUS_KM * math.sqrt(rng.random()))
            for _ in range(size)
        )
        sets.append(WeightedPointSet(points, tuple(float(rng.randint(1, 3)) for _ in points)))
    return sets


def _per_call(fn, items, batches: int = BATCHES) -> float:
    """Median over batches of the mean seconds per call of fn(item)."""
    size = len(items) // batches
    times = []
    for b in range(batches):
        batch = items[b * size : (b + 1) * size]
        t0 = perf_counter()
        for item in batch:
            fn(item)
        times.append((perf_counter() - t0) / len(batch))
    return median(times)


def _worldwide_set(rng: random.Random, n: int) -> WeightedPointSet:
    while True:
        points = tuple(
            GeoPoint(math.degrees(math.asin(rng.uniform(-1.0, 1.0))), rng.uniform(-180.0, 180.0))
            for _ in range(n)
        )
        weights = tuple(float(rng.randint(1, 3)) for _ in points)
        if is_wide(points, weights):
            return WeightedPointSet(points, weights)


def run_probes(seed: int) -> dict[str, float]:
    rng = random.Random(f"probes:{seed}")
    sets = _local_sets(rng, 2000, 5)
    pairs = [(s.points[0], s.points[j]) for s in sets for j in range(1, 5)]
    medians = [geodesic_l1_median(s) for s in sets]
    out = {
        "geodesy.probe.distance_us": 1e6 * _per_call(lambda ab: geodesic_distance(*ab), pairs),
        "robust_stats.probe.median5_us": 1e6 * _per_call(geodesic_l1_median, sets),
        "robust_stats.probe.dispersion5_us": 1e6
        * _per_call(lambda cs: dispersion(*cs), list(zip(medians, sets))),
    }
    for n, reps in MEDOID_SIZES:
        times = []
        for _ in range(reps):
            s = _worldwide_set(rng, n)
            t0 = perf_counter()
            geodesic_l1_median(s)
            times.append(perf_counter() - t0)
        out[f"robust_stats.probe.medoid{n}_s"] = median(times)
    return out
