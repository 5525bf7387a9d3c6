"""Planted-city synthetic networks with known ground truth.

Cities are drawn from a curated list of real coordinates, users are placed
uniformly inside each city's disc, edges are mostly intra-city with a
configurable fraction rewired across cities, and a per-city seed subset is
sampled. Generation is single-threaded and fully determined by the rng seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, TextIO

from . import _tsv
from .cities import CURATED_CITIES
from .evaluation import CityEntry, CityTable
from .geodesy import GeoPoint, _unit_vector, destination, geodesic_distance, near_ties
from .graph import SocialNetwork
from .ground_truth import SOURCE_GPS, GroundTruthRecord

# Planted city centers must be at least this many radii apart.
MIN_SEPARATION_RADII = 20.0

# Weight distribution: geometric on {1, 2, ...} with this success probability.
_WEIGHT_GEOMETRIC_P = 0.5

_REWIRE_ATTEMPTS = 50

# Intra-city partners are the nearest of this many uniform candidate draws,
# so ties form preferentially over short distances (the homophily the solver
# exploits); 8 candidates in a 15 km disc give typical tie lengths of ~4 km.
_PARTNER_CANDIDATES = 8

# A city gives up after this many draws in a row that add no edge: the
# nearest-partner rule rarely draws the last far pairs of a nearly complete
# city, so a feasible target can still take unbounded time. The benchmark
# config's longest run is 3 draws.
_MAX_IDLE_DRAWS = 100_000


@dataclass(frozen=True)
class SynthConfig:
    num_cities: int
    users_per_city: int
    city_radius_km: float
    intra_edge_mean_degree: float
    inter_edge_fraction: float
    seed_fraction: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.num_cities < 1 or self.users_per_city < 1:
            raise ValueError("city and user counts must be positive")
        if not 0.0 < self.city_radius_km < math.inf:
            raise ValueError(f"city_radius_km must be finite and > 0, got {self.city_radius_km}")
        if not 0.0 <= self.intra_edge_mean_degree < math.inf:
            degree = self.intra_edge_mean_degree
            raise ValueError(f"intra_edge_mean_degree must be finite and >= 0, got {degree}")
        if not 0.0 <= self.inter_edge_fraction < 1.0:
            raise ValueError("inter-city edge fraction must be in [0, 1)")
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ValueError("seed fraction must be in (0, 1]")


@dataclass(frozen=True)
class SynthResult:
    network: SocialNetwork
    truth: dict[int, GeoPoint]
    seeds: dict[int, GroundTruthRecord]
    city_of: dict[int, int]
    cities: CityTable  # planted centers, with synthetic populations


def generate(cfg: SynthConfig) -> SynthResult:
    """Generate a planted-city network; identical outputs for identical cfg."""
    rng = random.Random(cfg.rng_seed)
    centers = _pick_centers(cfg, rng)

    truth: dict[int, GeoPoint] = {}
    city_of: dict[int, int] = {}
    users_by_city: list[list[int]] = []
    next_user = 1
    for city_index, (_, center) in enumerate(centers):
        members = []
        for _ in range(cfg.users_per_city):
            user = next_user
            next_user += 1
            bearing = rng.uniform(0.0, 360.0)
            radius = cfg.city_radius_km * math.sqrt(rng.random())
            truth[user] = destination(center, bearing, radius)
            city_of[user] = city_index
            members.append(user)
        users_by_city.append(members)

    edge_list, edge_set = _intra_city_edges(cfg, rng, users_by_city, truth)
    _rewire_across_cities(cfg, rng, edge_list, edge_set, users_by_city, city_of)

    network = SocialNetwork.from_edges((u, v, _geometric_weight(rng)) for u, v in edge_list)

    seeds: dict[int, GroundTruthRecord] = {}
    for members in users_by_city:
        k = round(cfg.seed_fraction * len(members))
        for user in sorted(rng.sample(members, k)):
            seeds[user] = GroundTruthRecord(user, truth[user], SOURCE_GPS, 0.0)

    city_entries = tuple(
        CityEntry(name, center, 50_000 + 1_000 * idx)
        for idx, (name, center) in enumerate(centers)
    )
    return SynthResult(network, truth, dict(sorted(seeds.items())), city_of, CityTable(city_entries))


def _pick_centers(
    cfg: SynthConfig, rng: random.Random
) -> list[tuple[str, GeoPoint]]:
    min_separation = MIN_SEPARATION_RADII * cfg.city_radius_km
    candidates = list(CURATED_CITIES)
    rng.shuffle(candidates)
    chosen: list[tuple[str, GeoPoint]] = []
    for name, lat, lon in candidates:
        center = GeoPoint(lat, lon)
        if all(geodesic_distance(center, c) >= min_separation for _, c in chosen):
            chosen.append((name, center))
            if len(chosen) == cfg.num_cities:
                return chosen
    raise ValueError(
        f"cannot place {cfg.num_cities} cities at least {min_separation:.0f} km apart "
        f"from the curated list ({len(chosen)} feasible)"
    )


def _intra_city_edges(
    cfg: SynthConfig,
    rng: random.Random,
    users_by_city: list[list[int]],
    truth: Mapping[int, GeoPoint],
) -> tuple[list[tuple[int, int]], set[tuple[int, int]]]:
    edge_list: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for members in users_by_city:
        n = len(members)
        if n < 2:
            continue
        points = [truth[user] for user in members]
        vectors = [_unit_vector(p) for p in points]
        target = round(n * cfg.intra_edge_mean_degree / 2.0)
        max_edges = n * (n - 1) // 2
        if target > max_edges:
            raise ValueError(
                f"mean degree {cfg.intra_edge_mean_degree} infeasible for "
                f"{n} users per city"
            )
        added = idle = 0
        while added < target:
            if idle == _MAX_IDLE_DRAWS:
                raise ValueError(
                    f"mean degree {cfg.intra_edge_mean_degree} too dense for "
                    f"{n} users per city: {_MAX_IDLE_DRAWS} draws in a row added no edge"
                )
            idle += 1
            i = rng.randrange(n)
            draws = [rng.randrange(n) for _ in range(_PARTNER_CANDIDATES)]
            draws = [j for j in draws if j != i]
            if not draws:
                continue
            # The nearest draw, first on ties; the chord bound leaves
            # geodesic_distance only the draws that might be nearest.
            ties = [draws[k] for k in near_ties(vectors[i], [vectors[j] for j in draws])]
            partner = ties[0]
            if any(j != partner for j in ties):
                partner = min(ties, key=lambda j: geodesic_distance(points[i], points[j]))
            u, v = members[i], members[partner]
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                continue
            edge_set.add(key)
            edge_list.append(key)
            added += 1
            idle = 0
    return edge_list, edge_set


def _rewire_across_cities(
    cfg: SynthConfig,
    rng: random.Random,
    edge_list: list[tuple[int, int]],
    edge_set: set[tuple[int, int]],
    users_by_city: list[list[int]],
    city_of: Mapping[int, int],
) -> None:
    if cfg.num_cities < 2 or not edge_list:
        return
    count = round(cfg.inter_edge_fraction * len(edge_list))
    if count == 0:
        return
    for index in sorted(rng.sample(range(len(edge_list)), count)):
        u, v = edge_list[index]
        keep = u if rng.random() < 0.5 else v
        home_city = city_of[keep]
        for _ in range(_REWIRE_ATTEMPTS):
            other_city = rng.randrange(cfg.num_cities - 1)
            if other_city >= home_city:
                other_city += 1
            partner = users_by_city[other_city][rng.randrange(len(users_by_city[other_city]))]
            key = (keep, partner) if keep < partner else (partner, keep)
            if key in edge_set:
                continue
            edge_set.discard((u, v))
            edge_set.add(key)
            edge_list[index] = key
            break
        # a persistently colliding edge is left intra-city


def _geometric_weight(rng: random.Random) -> int:
    u = rng.random()
    return 1 + int(math.log(1.0 - u) / math.log(1.0 - _WEIGHT_GEOMETRIC_P))


# --- file output --------------------------------------------------------------

TRUTH_COLUMNS = ("user_id", "lat", "lon")
ASSIGNMENT_COLUMNS = ("user_id", "city_index")


def write_truth_file(truth: Mapping[int, GeoPoint], fh: TextIO) -> None:
    _tsv.write_header(fh, TRUTH_COLUMNS)
    for user in sorted(truth):
        p = truth[user]
        fh.write(f"{user}\t{p.lat!r}\t{p.lon!r}\n")


def write_assignments_file(city_of: Mapping[int, int], fh: TextIO) -> None:
    _tsv.write_header(fh, ASSIGNMENT_COLUMNS)
    for user in sorted(city_of):
        fh.write(f"{user}\t{city_of[user]}\n")


def write_synth_files(result: SynthResult, out_dir: str | Path) -> dict[str, Path]:
    """Write network/truth/seeds/cities/assignments TSVs; returns the paths."""
    from .graph import write_network_file
    from .ground_truth import write_seeds_file

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "network": out / "network.tsv",
        "truth": out / "truth.tsv",
        "seeds": out / "seeds.tsv",
        "cities": out / "cities.tsv",
        "assignments": out / "assignments.tsv",
    }
    with _tsv.atomic_write(paths["network"]) as fh:
        write_network_file(result.network, fh)
    with _tsv.atomic_write(paths["truth"]) as fh:
        write_truth_file(result.truth, fh)
    with _tsv.atomic_write(paths["seeds"]) as fh:
        write_seeds_file(result.seeds, fh)
    with _tsv.atomic_write(paths["cities"]) as fh:
        result.cities.write_tsv(fh)
    with _tsv.atomic_write(paths["assignments"]) as fh:
        write_assignments_file(result.city_of, fh)
    return paths
