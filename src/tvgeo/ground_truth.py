"""Ground-truth home locations from GPS event streams and profile claims.

GPS users qualify with at least three events, a median spread of at most
30 km, and no consecutive-pair speed above 1000 km/h. Profile claims qualify
by exact gazetteer match when at most 90 days old. When both sources exist
for a user, GPS wins.

Each GPS user is judged on their own events alone, so gps_homes maps
gps_home over the users in forked worker processes (_workers.fork_map, as
the solver maps its rounds), with the same result for any worker count.

The speed filter measures only the legs that can be the fastest. A leg of h
hours whose geodesy.distance_bounds are (lo, hi) has a computed speed within
[lo / h, hi / h], the division rounding both ends the same way as the speed.
A leg whose upper bound is below the largest lower bound is slower than some
other leg, so max_speed calls geodesic_distance only for the legs whose
upper bound reaches it, and returns the same float as measuring every leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from . import _tsv, _workers
from .geodesy import GeoPoint, _unit_vector, central_angles, distance_bounds, geodesic_distance
from .robust_stats import WeightedPointSet, dispersion, geodesic_l1_median

MIN_GPS_EVENTS = 3
MAX_GPS_SPREAD_KM = 30.0
MAX_SPEED_KMH = 1000.0
MAX_CLAIM_AGE_SECONDS = 90 * 86400

SOURCE_GPS = "gps"
SOURCE_GAZETTEER = "gazetteer"


@dataclass(frozen=True, slots=True, init=False)
class GpsEvent:
    user: int
    point: GeoPoint
    timestamp: float  # seconds since epoch, UTC

    def __init__(self, user: int, point: GeoPoint, timestamp: float) -> None:
        # Each field is set once, through its slot (the class is frozen).
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite, got {timestamp!r}")
        _set_user(self, user)
        _set_point(self, point)
        _set_timestamp(self, timestamp)


_set_user = GpsEvent.__dict__["user"].__set__
_set_point = GpsEvent.__dict__["point"].__set__
_set_timestamp = GpsEvent.__dict__["timestamp"].__set__


@dataclass(frozen=True, slots=True)
class ProfileClaim:
    user: int
    text: str
    observed_at: float

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("empty profile text")
        if not math.isfinite(self.observed_at):
            raise ValueError(f"observed_at must be finite, got {self.observed_at!r}")


@dataclass(frozen=True)
class GroundTruthRecord:
    user: int
    home: GeoPoint
    source: str  # SOURCE_GPS or SOURCE_GAZETTEER
    spread_km: float

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_GPS, SOURCE_GAZETTEER):
            raise ValueError(f"unknown seed source {self.source!r}")
        if not math.isfinite(self.spread_km) or self.spread_km < 0.0:
            raise ValueError(f"spread must be non-negative, got {self.spread_km!r}")


def normalize_place(text: str) -> str:
    """Trim, case-fold, and collapse internal whitespace runs."""
    return " ".join(text.split()).casefold()


class Gazetteer:
    """Exact-match lookup of normalized place names."""

    def __init__(self, entries: Mapping[str, GeoPoint]):
        self._entries: dict[str, GeoPoint] = {}
        for name, point in entries.items():
            self._add(name, point)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "Gazetteer":
        gazetteer = cls({})
        with _tsv.Columns(path, (("name", str), *_tsv.POINT_COLUMNS), _keyed_points) as rows:
            for name, point in rows:
                gazetteer._add(name, point)
        return gazetteer

    def _add(self, name: str, point: GeoPoint) -> None:
        key = normalize_place(name)
        if not key:
            raise ValueError("gazetteer entry with empty name")
        if key in self._entries:
            raise ValueError(f"ambiguous gazetteer name {key!r}")
        self._entries[key] = point

    def lookup(self, text: str) -> GeoPoint | None:
        return self._entries.get(normalize_place(text))


def _keyed_points(keys: list, lats: list[float], lons: list[float]) -> Iterator[tuple]:
    """(key, GeoPoint) records from converted columns (_tsv.Columns); truth
    files use it too."""
    return zip(keys, map(GeoPoint, lats, lons))


def max_speed(events: Sequence[GpsEvent]) -> float:
    """Maximum geodesic speed in km/h over consecutive event pairs.

    A leg whose time gap is zero, or so small that its hours round to 0.0,
    counts as infinite speed when the points differ and is skipped when they
    coincide. Only the legs that the distance bracket (module docstring)
    cannot rule out are measured.
    """
    if len(events) < 2:
        raise ValueError("max_speed needs at least two events")
    vectors = [_unit_vector(e.point) for e in events]
    legs = []  # (upper bound, leg index, hours) of the legs with positive hours
    floor = 0.0  # the largest lower bound
    for k, sigma in enumerate(central_angles(zip(vectors, vectors[1:])), 1):
        prev, cur = events[k - 1], events[k]
        dt = cur.timestamp - prev.timestamp
        if dt < 0:
            raise ValueError("events are not sorted by timestamp")
        hours = dt / 3600.0
        if hours == 0.0:
            if geodesic_distance(prev.point, cur.point) > 0.0:
                return math.inf
            continue
        lo, hi = distance_bounds(sigma)
        floor = max(floor, lo / hours)
        legs.append((hi / hours, k, hours))
    fastest = 0.0
    for hi, k, hours in legs:
        if hi >= floor:
            fastest = max(fastest, geodesic_distance(events[k - 1].point, events[k].point) / hours)
    return fastest


def _sorted_single_user(events: Sequence[GpsEvent]) -> list[GpsEvent]:
    users = {e.user for e in events}
    if len(users) > 1:
        raise ValueError(f"events span multiple users: {sorted(users)}")
    return sorted(events, key=lambda e: (e.timestamp, e.point.lat, e.point.lon))


def gps_home(events: Sequence[GpsEvent]) -> GroundTruthRecord | None:
    """Static home for one user's GPS events, or None if a filter rejects
    the user (too few events, spread above 30 km, or speed above 1000 km/h).
    """
    if not events or len(events) < MIN_GPS_EVENTS:
        return None
    ordered = _sorted_single_user(events)
    if max_speed(ordered) > MAX_SPEED_KMH:
        return None
    point_set = WeightedPointSet.unweighted(e.point for e in ordered)
    home = geodesic_l1_median(point_set)
    spread = dispersion(home, point_set)
    if spread > MAX_GPS_SPREAD_KM:
        return None
    return GroundTruthRecord(ordered[0].user, home, SOURCE_GPS, spread)


def gazetteer_home(
    claims: Sequence[ProfileClaim], gazetteer: Gazetteer, now: float
) -> GroundTruthRecord | None:
    """Home from the user's most recent profile claim, when at most 90 days
    old and exactly matched in the gazetteer. Ties on observed_at break by
    claim text so the result is order-independent."""
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    if not claims:
        return None
    users = {c.user for c in claims}
    if len(users) > 1:
        raise ValueError(f"claims span multiple users: {sorted(users)}")
    latest = max(claims, key=lambda c: (c.observed_at, c.text))
    if now - latest.observed_at > MAX_CLAIM_AGE_SECONDS:
        return None
    point = gazetteer.lookup(latest.text)
    if point is None:
        return None
    return GroundTruthRecord(latest.user, point, SOURCE_GAZETTEER, 0.0)


def merge_seeds(
    gps_records: Iterable[GroundTruthRecord],
    gazetteer_records: Iterable[GroundTruthRecord],
) -> dict[int, GroundTruthRecord]:
    """Per-user merge of the two seed sources; GPS wins over gazetteer."""
    merged: dict[int, GroundTruthRecord] = {r.user: r for r in gazetteer_records}
    for record in gps_records:
        merged[record.user] = record
    return dict(sorted(merged.items()))


def gps_homes(
    events: Iterable[GpsEvent], *, threads: int = 1
) -> dict[int, GroundTruthRecord]:
    """Group events by user and keep those that pass gps_home. threads: as
    for solver.infer; the users are mapped over forked workers
    (_workers.fork_map), and the result is the same for any value."""
    return _homes_by_user(events, gps_home, threads)


def gazetteer_homes(
    claims: Iterable[ProfileClaim], gazetteer: Gazetteer, now: float
) -> dict[int, GroundTruthRecord]:
    """Group claims by user and keep those that pass gazetteer_home."""
    if not math.isfinite(now):
        raise ValueError(f"now must be finite, got {now}")
    return _homes_by_user(claims, lambda user_claims: gazetteer_home(user_claims, gazetteer, now))


def _homes_by_user(
    items: Iterable, home: Callable[[list], GroundTruthRecord | None], threads: int = 1
) -> dict[int, GroundTruthRecord]:
    """home() of each user's items, in user order, where it is not None."""
    by_user: dict[int, list] = {}
    for item in items:
        by_user.setdefault(item.user, []).append(item)
    users = sorted(by_user)
    records = _workers.fork_map(_user_home, users, (home, by_user), threads)
    return {user: record for user, record in zip(users, records) if record is not None}


def _user_home(
    user: int, home: Callable[[list], GroundTruthRecord | None], by_user: dict[int, list]
) -> GroundTruthRecord | None:
    return home(by_user[user])


def seed_points(seeds: Mapping[int, GroundTruthRecord]) -> dict[int, GeoPoint]:
    return {user: record.home for user, record in seeds.items()}


# --- file formats -----------------------------------------------------------
#
# GPS events:      user_id <TAB> lat <TAB> lon <TAB> unix_timestamp
# Profile claims:  user_id <TAB> observed_at <TAB> raw_text  (the text is
#                  everything after the second tab, spaces and tabs included)
# Seeds:           user_id <TAB> lat <TAB> lon <TAB> source <TAB> spread_km

SEED_COLUMNS = ("user_id", "lat", "lon", "source", "spread_km")


def read_gps_events_file(path: str | Path) -> list[GpsEvent]:
    """The events in file order. A user's events share one int object for
    the user id."""
    users: dict[int, int] = {}
    intern = users.setdefault

    def events(
        users: list[int], lats: list[float], lons: list[float], times: list[float]
    ) -> Iterator[GpsEvent]:
        return map(GpsEvent, map(intern, users, users), map(GeoPoint, lats, lons), times)

    columns = (("user_id", int), *_tsv.POINT_COLUMNS, ("timestamp", float))
    with _tsv.Columns(path, columns, events) as rows:
        return list(rows)


def read_profile_claims_file(path: str | Path) -> list[ProfileClaim]:
    claims = []
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields[:3], 3)
            user = _tsv.parse_int(fields[0], "user_id")
            observed = _tsv.parse_float(fields[1], "observed_at")
            claims.append(ProfileClaim(user, "\t".join(fields[2:]), observed))
    return claims


def write_seeds_file(seeds: Mapping[int, GroundTruthRecord], fh: TextIO) -> None:
    _tsv.write_header(fh, SEED_COLUMNS)
    for user in sorted(seeds):
        r = seeds[user]
        fh.write(f"{user}\t{r.home.lat!r}\t{r.home.lon!r}\t{r.source}\t{r.spread_km!r}\n")


def _seed_records(
    users: list[int],
    lats: list[float],
    lons: list[float],
    sources: list[str],
    spreads: list[float],
) -> Iterator[GroundTruthRecord]:
    """The seeds file's records from its converted columns (_tsv.Columns);
    read_truth_file reads seeds files with it too."""
    return map(GroundTruthRecord, users, map(GeoPoint, lats, lons), sources, spreads)


_SEED_FORMAT = (("user_id", int), *_tsv.POINT_COLUMNS, ("source", str), ("spread_km", float))


def read_seeds_file(path: str | Path) -> dict[int, GroundTruthRecord]:
    seeds: dict[int, GroundTruthRecord] = {}
    with _tsv.Columns(path, _SEED_FORMAT, _seed_records) as rows:
        for record in rows:
            if record.user in seeds:
                raise ValueError(f"duplicate seed for user {record.user}")
            seeds[record.user] = record
    return seeds
