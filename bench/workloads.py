"""Input generators and expected outputs for the benchmark workloads.

Everything is a pure function of the workload seed: the same seed writes the
same bytes. The program under test sees only the files written here (or, for
planted-local, the flags of its own ``synth`` stage).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from tvgeo.cities import CURATED_CITIES
from tvgeo.evaluation import CityEntry, CityTable
from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.graph import SocialNetwork, write_network_file
from tvgeo.ground_truth import SOURCE_GAZETTEER, SOURCE_GPS, GroundTruthRecord, write_seeds_file
from tvgeo.synth import SynthConfig, generate, write_truth_file

from tracing import is_wide

CITY_RADIUS_KM = 15.0

# tests/conftest.py::BENCHMARK_CONFIG without its rng seed: the committed
# acceptance benchmark, which planted-local runs through `tvgeo synth`.
PLANTED_LOCAL = dict(
    num_cities=50,
    users_per_city=400,
    city_radius_km=CITY_RADIUS_KM,
    intra_edge_mean_degree=5.0,
    inter_edge_fraction=0.05,
    seed_fraction=0.10,
)

# Pinned by tests/test_acceptance.py for planted-local at seed 17, scored on
# truth minus the seeds (test_bench.py checks the two copies agree).
GOLDEN_SEED = 17
GOLDEN_DIGEST = "69b52e5a035b433a16d41e7308d79c42bfc0ae5168676780d19558439b8457f2"
GOLDEN_COVERAGE = 0.9842777777777778
GOLDEN_MEDIAN_KM = 5.376356815095647
GOLDEN_MEAN_KM = 99.82797332479703
GOLDEN_CITY_ACCURACY = 0.9892193938025625


# Smaller inputs for the smoke test (run.py --scale tiny).
TINY = {
    "planted-local": dict(num_cities=8, users_per_city=50),
    "hub-worldwide": dict(num_cities=8, users_per_city=30, hubs=2, hub_degree=20),
    "seed-ingest": dict(num_cities=6, users_per_city=30),
}


def planted_config(seed: int, **overrides) -> SynthConfig:
    return SynthConfig(**{**PLANTED_LOCAL, **overrides}, rng_seed=seed)


def synth_args(cfg: SynthConfig, out_dir: Path) -> list[str]:
    """`tvgeo synth` arguments that generate cfg."""
    return [
        "synth",
        "--out-dir", str(out_dir),
        "--num-cities", str(cfg.num_cities),
        "--users-per-city", str(cfg.users_per_city),
        "--city-radius", repr(cfg.city_radius_km),
        "--mean-degree", repr(cfg.intra_edge_mean_degree),
        "--inter-fraction", repr(cfg.inter_edge_fraction),
        "--seed-fraction", repr(cfg.seed_fraction),
        "--rng-seed", str(cfg.rng_seed),
    ]


# --- hub-worldwide -------------------------------------------------------------


@dataclass(frozen=True)
class HubInputs:
    network: SocialNetwork
    truth: dict[int, GeoPoint]
    seeds: dict[int, GroundTruthRecord]
    cities: CityTable
    hubs: dict[int, tuple[int, ...]]  # hub user -> its neighbors


def make_hub_worldwide(
    seed: int,
    *,
    num_cities: int = 40,
    users_per_city: int = 60,
    hubs: int = 4,
    hub_degree: int = 200,
) -> HubInputs:
    """A planted graph plus hub users, each tied to hub_degree seed users
    drawn from every planted city, so each hub's neighbor set spans more than
    88 degrees and its median is the quadratic medoid. Tying hubs to seeds
    makes every hub median the same size in every round, so the medoid's
    share of the solve does not depend on how far labels have spread."""
    base = generate(planted_config(seed, num_cities=num_cities, users_per_city=users_per_city))
    rng = random.Random(f"hub-worldwide:{seed}")
    seeds = sorted(base.seeds)
    edges = {(e.u, e.v): e.weight for e in base.network.edges()}
    truth = dict(base.truth)
    hub_members: dict[int, tuple[int, ...]] = {}
    next_user = max(truth) + 1
    for h in range(hubs):
        hub = next_user + h
        while True:
            members = tuple(sorted(rng.sample(seeds, hub_degree)))
            weights = [1 + int(rng.expovariate(1.0)) for _ in members]
            if is_wide([truth[m] for m in members], weights):
                break
        for member, weight in zip(members, weights):
            edges[(member, hub)] = weight
        truth[hub] = truth[rng.choice(members)]
        hub_members[hub] = members
    return HubInputs(SocialNetwork(edges), truth, base.seeds, base.cities, hub_members)


def write_hub_worldwide(inputs: HubInputs, out_dir: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "network": out_dir / "network.tsv",
        "seeds": out_dir / "seeds.tsv",
        "heldout": out_dir / "heldout.tsv",
        "cities": out_dir / "cities.tsv",
    }
    with open(paths["network"], "w", encoding="utf-8") as fh:
        write_network_file(inputs.network, fh)
    with open(paths["seeds"], "w", encoding="utf-8") as fh:
        write_seeds_file(inputs.seeds, fh)
    with open(paths["cities"], "w", encoding="utf-8") as fh:
        inputs.cities.write_tsv(fh)
    with open(paths["heldout"], "w", encoding="utf-8") as fh:
        # Truth minus the seeds: the leave-many-out test set.
        write_truth_file({u: p for u, p in inputs.truth.items() if u not in inputs.seeds}, fh)
    return paths


# --- seed-ingest ---------------------------------------------------------------

NOW = 1_700_000_000.0
HOUR = 3600.0
DAY = 86400.0
HOME_JITTER_KM = 2.0
_MULTI_PLACE = ("Paris | London", "NYC / LA", "earth", "somewhere nice", "Tokyo, Osaka")


@dataclass(frozen=True)
class SeedIngestInputs:
    network: SocialNetwork  # the planted network: what ingest must rebuild
    truth: dict[int, GeoPoint]
    cities: CityTable
    mentions: list[tuple[int, int, int]]
    gps: list[tuple[int, float, float, float]]  # user, lat, lon, timestamp
    claims: list[tuple[int, float, str]]  # user, observed_at, text
    gazetteer: list[tuple[str, float, float]]
    expected_sources: dict[int, str]  # user -> gps | gazetteer
    expected_gazetteer: dict[int, GeoPoint]
    users_with_gps: int
    users_with_claims: int


def make_seed_ingest(
    seed: int, *, num_cities: int = 50, users_per_city: int = 200
) -> SeedIngestInputs:
    """Mention stream, GPS events, profile claims and gazetteer whose ingest
    and seed outputs are known exactly by construction.

    Every user is drawn at a clear margin from the seeding rules: clean GPS
    users have 3-12 events within 2 km of home hours apart; travellers add a
    minority of far events days apart; wanderers have pairwise >= 100 km
    apart events (median spread >= 50 km > 30 km); teleporters jump >= 800 km
    within 30 minutes (>= 1600 km/h > 1000 km/h); too-few users have 1-2
    events. Fresh claims are <= 80 days old, stale ones >= 100 days (rule:
    90 days).
    """
    rng = random.Random(f"seed-ingest:{seed}")
    base = _population(rng, num_cities, users_per_city)
    mentions = _mention_stream(base, rng)

    gps: list[tuple[int, float, float, float]] = []
    claims: list[tuple[int, float, str]] = []
    expected_sources: dict[int, str] = {}
    expected_gazetteer: dict[int, GeoPoint] = {}
    city_names = [e.name for e in base.cities.entries]
    city_points = {e.name: e.point for e in base.cities.entries}
    users_with_gps = users_with_claims = 0
    for user in sorted(base.truth):
        home = base.truth[user]
        roll = rng.random()
        if roll < 0.30:
            events, accepted = _clean_events(rng, home), True
        elif roll < 0.38:
            events, accepted = _traveller_events(rng, home), True
        elif roll < 0.44:
            events, accepted = _teleporter_events(rng, home), False
        elif roll < 0.50:
            events, accepted = _wanderer_events(rng, home), False
        elif roll < 0.54:
            events, accepted = _clean_events(rng, home, count=rng.randint(1, 2)), False
        else:
            events, accepted = [], False
        if events:
            users_with_gps += 1
            gps.extend((user, p.lat, p.lon, t) for p, t in events)
        if accepted:
            expected_sources[user] = SOURCE_GPS

        city = city_names[base.city_of[user]]
        roll = rng.random()
        if roll < 0.20:  # latest claim fresh and matching, maybe after an old one
            if rng.random() < 0.3:
                claims.append((user, NOW - rng.uniform(100, 400) * DAY, rng.choice(city_names)))
            claims.append((user, NOW - rng.uniform(1, 80) * DAY, _messy(rng, city)))
            if user not in expected_sources:
                expected_sources[user] = SOURCE_GAZETTEER
                expected_gazetteer[user] = city_points[city]
        elif roll < 0.28:  # matching but stale
            claims.append((user, NOW - rng.uniform(100, 400) * DAY, _messy(rng, city)))
        elif roll < 0.33:  # fresh, no exact gazetteer match, after an old match
            if rng.random() < 0.5:
                claims.append((user, NOW - rng.uniform(100, 400) * DAY, city))
            claims.append((user, NOW - rng.uniform(1, 80) * DAY, rng.choice(_MULTI_PLACE)))
        else:
            continue
        users_with_claims += 1

    rng.shuffle(gps)
    rng.shuffle(claims)
    gazetteer = list(CURATED_CITIES)
    return SeedIngestInputs(
        base.network, dict(base.truth), base.cities, mentions, gps, claims, gazetteer,
        dict(sorted(expected_sources.items())), expected_gazetteer,
        users_with_gps, users_with_claims,
    )


@dataclass(frozen=True)
class _Population:
    network: SocialNetwork
    truth: dict[int, GeoPoint]
    city_of: dict[int, int]
    cities: CityTable


def _population(rng: random.Random, num_cities: int, users_per_city: int) -> _Population:
    """Users placed uniformly in discs around curated cities at least 20
    radii apart, with 2.5 random intra-city ties per user. Cheaper than
    synth.generate, whose nearest-partner ties the seeding path never
    looks at."""
    names = list(CURATED_CITIES)
    rng.shuffle(names)
    centers: list[CityEntry] = []
    for name, lat, lon in names:
        point = GeoPoint(lat, lon)
        if all(geodesic_distance(point, c.point) >= 20 * CITY_RADIUS_KM for c in centers):
            centers.append(CityEntry(name, point, 50_000))
            if len(centers) == num_cities:
                break
    truth: dict[int, GeoPoint] = {}
    city_of: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    for index, city in enumerate(centers):
        first = 1 + index * users_per_city
        members = range(first, first + users_per_city)
        for user in members:
            truth[user] = destination(
                city.point, rng.uniform(0.0, 360.0), CITY_RADIUS_KM * math.sqrt(rng.random()))
            city_of[user] = index
        while len(edges) < (index + 1) * users_per_city * 5 // 2:
            u, v = sorted(rng.sample(members, 2))
            edges.setdefault((u, v), 1 + int(rng.expovariate(0.7)))
    return _Population(SocialNetwork(edges), truth, city_of, CityTable(tuple(centers)))


def _mention_stream(base: _Population, rng: random.Random) -> list[tuple[int, int, int]]:
    """Both directions of every planted edge (the smaller directed total is
    the edge weight), split over 1-3 rows, plus one-way mentions and
    self-mentions, shuffled."""
    rows: list[tuple[int, int, int]] = []
    for edge in base.network.edges():
        low, high = (edge.u, edge.v) if rng.random() < 0.5 else (edge.v, edge.u)
        rows += _split(rng, low, high, edge.weight)
        rows += _split(rng, high, low, edge.weight + rng.randrange(3))
    users = sorted(base.truth)
    planted = {(e.u, e.v) for e in base.network.edges()}
    one_way: set[tuple[int, int]] = set()
    # Lurkers outside the planted population only ever mention one way.
    lurkers = range(users[-1] + 1, users[-1] + 1 + len(users) // 10)
    while len(one_way) < len(planted) // 5:
        src = rng.choice(users) if rng.random() < 0.5 else rng.choice(lurkers)
        dst = rng.choice(users)
        if src == dst or (min(src, dst), max(src, dst)) in planted or (dst, src) in one_way:
            continue
        one_way.add((src, dst))
    for src, dst in sorted(one_way):
        rows += _split(rng, src, dst, 1 + rng.randrange(4))
    for user in rng.sample(users, len(users) // 20):
        rows.append((user, user, 1 + rng.randrange(5)))
    rng.shuffle(rows)
    return rows


def _split(rng: random.Random, src: int, dst: int, total: int) -> list[tuple[int, int, int]]:
    parts = min(total, rng.randint(1, 3))
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [(src, dst, b - a) for a, b in zip(bounds, bounds[1:])]


def _near(rng: random.Random, home: GeoPoint) -> GeoPoint:
    return destination(home, rng.uniform(0.0, 360.0), HOME_JITTER_KM * math.sqrt(rng.random()))


def _timeline(rng: random.Random, count: int, min_gap_h: float, max_gap_h: float) -> list[float]:
    t = NOW - rng.uniform(30, 300) * DAY
    out = []
    for _ in range(count):
        out.append(t)
        t += rng.uniform(min_gap_h, max_gap_h) * HOUR
    return out


def _clean_events(rng, home, count=None):
    count = rng.randint(3, 12) if count is None else count
    return [(_near(rng, home), t) for t in _timeline(rng, count, 6, 72)]


def _traveller_events(rng, home):
    # A minority of far events, at least two fewer than the home events so
    # the median distance is a home distance; legs take days.
    count = rng.randint(5, 12)
    far = rng.randint(1, (count - 1) // 2 - 1)
    trip = destination(home, rng.uniform(0.0, 360.0), rng.uniform(300, 2000))
    kinds = [True] * far + [False] * (count - far)
    rng.shuffle(kinds)
    times = _timeline(rng, count, 48, 120)
    return [
        (destination(trip, rng.uniform(0, 360), HOME_JITTER_KM) if is_far else _near(rng, home), t)
        for is_far, t in zip(kinds, times)
    ]


def _teleporter_events(rng, home):
    count = rng.randint(3, 8)
    times = _timeline(rng, count, 6, 72)
    events = [(_near(rng, home), t) for t in times]
    jump_from = rng.randrange(count)
    far = destination(home, rng.uniform(0.0, 360.0), rng.uniform(800, 3000))
    events.append((far, times[jump_from] + rng.uniform(300, 1800)))
    return events


def _wanderer_events(rng, home):
    # Events pairwise >= 100 km apart: at most one lies within 50 km of any
    # center, so the median distance from the median is >= 50 km.
    count = rng.randint(3, 6)
    points: list[GeoPoint] = []
    while len(points) < count:
        p = destination(home, rng.uniform(0.0, 360.0), rng.uniform(150, 250))
        if all(geodesic_distance(p, q) >= 100.0 for q in points):
            points.append(p)
    return list(zip(points, _timeline(rng, count, 24, 96)))


def _messy(rng: random.Random, name: str) -> str:
    """The name with random case and padded, doubled whitespace: still an
    exact match after normalisation."""
    cased = "".join(c.upper() if rng.random() < 0.3 else c.lower() for c in name)
    return " " * rng.randrange(3) + cased.replace(" ", " " * (1 + rng.randrange(2))) + " " * rng.randrange(3)


def write_seed_ingest(inputs: SeedIngestInputs, out_dir: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "mentions": out_dir / "mentions.tsv",
        "gps": out_dir / "gps.tsv",
        "claims": out_dir / "claims.tsv",
        "gazetteer": out_dir / "gazetteer.tsv",
    }
    with open(paths["mentions"], "w", encoding="utf-8") as fh:
        fh.write("# src_id\tdst_id\tcount\n")
        fh.writelines(f"{s}\t{d}\t{c}\n" for s, d, c in inputs.mentions)
    with open(paths["gps"], "w", encoding="utf-8") as fh:
        fh.write("# user_id\tlat\tlon\tunix_timestamp\n")
        fh.writelines(f"{u}\t{lat!r}\t{lon!r}\t{t!r}\n" for u, lat, lon, t in inputs.gps)
    with open(paths["claims"], "w", encoding="utf-8") as fh:
        fh.write("# user_id\tobserved_at\traw_text\n")
        fh.writelines(f"{u}\t{t!r}\t{text}\n" for u, t, text in inputs.claims)
    with open(paths["gazetteer"], "w", encoding="utf-8") as fh:
        fh.write("# name\tlat\tlon\n")
        fh.writelines(f"{n}\t{lat!r}\t{lon!r}\n" for n, lat, lon in inputs.gazetteer)
    return paths
