"""Ground-truth home locations from GPS event streams and profile claims.

GPS users qualify with at least three events, a median spread of at most
30 km, and no consecutive-pair speed above 1000 km/h. Profile claims qualify
by exact gazetteer match when at most 90 days old. When both sources exist
for a user, GPS wins.

Each GPS user is judged on their own events alone, so gps_homes maps
gps_home over the users in forked worker processes (_workers.fork_map, as
the solver maps its rounds), with the same result for any worker count.

The speed filter measures only the legs that can be the fastest. A WGS84
geodesic of unit-sphere central angle sigma is between MIN_RADIUS_KM * sigma
and MAX_RADIUS_KM * sigma long (6,335 and 6,400 km times sigma;
geodesy.near_ties proves it), and a computed geodesic_distance is within
_PAIR_SLACK_KM (10 m) of that bracket, with sigma taken from the chord
between _unit_vector outputs. So a leg of h hours has a computed speed within
[MIN_RADIUS_KM * sigma - 10 m, MAX_RADIUS_KM * sigma + 10 m] / h, the
division rounding both ends the same way as the speed. A leg whose upper
bound is below the largest lower bound is slower than some other leg, so
max_speed calls geodesic_distance only for the legs whose upper bound
reaches it, and returns the same float as measuring every leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from . import _tsv, _workers
from .geodesy import (
    _PAIR_SLACK_KM,
    MAX_RADIUS_KM,
    MIN_RADIUS_KM,
    GeoPoint,
    _unit_vector,
    geodesic_distance,
)
from .robust_stats import WeightedPointSet, dispersion, geodesic_l1_median

MIN_GPS_EVENTS = 3
MAX_GPS_SPREAD_KM = 30.0
MAX_SPEED_KMH = 1000.0
MAX_CLAIM_AGE_SECONDS = 90 * 86400

SOURCE_GPS = "gps"
SOURCE_GAZETTEER = "gazetteer"


@dataclass(frozen=True, slots=True)
class GpsEvent:
    user: int
    point: GeoPoint
    timestamp: float  # seconds since epoch, UTC

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp!r}")


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
        with _tsv.Rows(path) as rows:
            for fields in rows:
                _tsv.require_fields(fields, 3)
                gazetteer._add(fields[0], _tsv.parse_point(fields[1], fields[2]))
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


def max_speed(events: Sequence[GpsEvent]) -> float:
    """Maximum geodesic speed in km/h over consecutive event pairs.

    A leg whose time gap is zero, or so small that its hours round to 0.0,
    counts as infinite speed when the points differ and is skipped when they
    coincide. Only the legs that the chord bracket (module docstring) cannot
    rule out are measured.
    """
    if len(events) < 2:
        raise ValueError("max_speed needs at least two events")
    vectors = [_unit_vector(e.point) for e in events]
    legs = []  # (upper bound, leg index, hours) of the legs with positive hours
    floor = 0.0  # the largest lower bound
    for k in range(1, len(events)):
        prev, cur = events[k - 1], events[k]
        dt = cur.timestamp - prev.timestamp
        if dt < 0:
            raise ValueError("events are not sorted by timestamp")
        hours = dt / 3600.0
        if hours == 0.0:
            if geodesic_distance(prev.point, cur.point) > 0.0:
                return math.inf
            continue
        sigma = 2.0 * math.asin(min(1.0, 0.5 * math.dist(vectors[k - 1], vectors[k])))
        floor = max(floor, (MIN_RADIUS_KM * sigma - _PAIR_SLACK_KM) / hours)
        legs.append(((MAX_RADIUS_KM * sigma + _PAIR_SLACK_KM) / hours, k, hours))
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
    events = []
    users: dict[int, int] = {}
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 4)
            user = _tsv.parse_int(fields[0], "user_id")
            user = users.setdefault(user, user)
            point = _tsv.parse_point(fields[1], fields[2])
            ts = _tsv.parse_float(fields[3], "timestamp")
            events.append(GpsEvent(user, point, ts))
    return events


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


def _seed_row(fields: list[str]) -> GroundTruthRecord:
    """The record of one seeds-file row; read_truth_file parses seeds with it
    too."""
    _tsv.require_fields(fields, 5)
    user = _tsv.parse_int(fields[0], "user_id")
    point = _tsv.parse_point(fields[1], fields[2])
    spread = _tsv.parse_float(fields[4], "spread_km")
    return GroundTruthRecord(user, point, fields[3], spread)


def read_seeds_file(path: str | Path) -> dict[int, GroundTruthRecord]:
    seeds: dict[int, GroundTruthRecord] = {}
    with _tsv.Rows(path) as rows:
        for fields in rows:
            record = _seed_row(fields)
            if record.user in seeds:
                raise ValueError(f"duplicate seed for user {record.user}")
            seeds[record.user] = record
    return seeds
