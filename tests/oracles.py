"""Independent test oracles.

oracle_distance_km solves the inverse geodesic problem on the WGS84 ellipsoid
without Vincenty's truncated series: the longitude equation is root-found on
the auxiliary sphere and both the longitude correction and the arc length are
evaluated by adaptive quadrature, so its only approximation is quadrature
tolerance (~1e-13). grid_search_median minimizes the weighted distance sum by
multi-level grid refinement down to a target resolution. Both are validated
against closed forms in the test suite and share nothing with the library's
algorithms beyond the ellipsoid constants. weighted_distance_sum is the l1
objective the medians minimize. max_speed_every_leg is the plain
every-leg loop that ground_truth.max_speed prunes. adjacency_oracle is the
network layout that SocialNetwork's compressed rows replaced: a dict of
sorted (neighbor, weight) tuples per node. The row_* readers are the
package's file readers as they were before _tsv.Columns: one _tsv.Rows loop
each, parsing every row with the parse_* helpers and parse_point. They are
the reference that the chunked readers must match in values and in error
text. infer_every_candidate is the solver's round loop before active-set
rounds: every non-seed node proposes in every round. descent_checked wraps
node_update with the per-node descent bound, recomputed from scratch.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq

A_KM = 6378.137
F = 1.0 / 298.257223563
B_KM = A_KM * (1.0 - F)
E2 = F * (2.0 - F)  # first eccentricity squared
EP2 = E2 / (1.0 - E2)  # second eccentricity squared

_QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}


def oracle_distance_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """High-precision geodesic distance for non-antipodal pairs."""
    if lat1 == lat2 and _lon_diff(lon1, lon2) == 0.0:
        return 0.0

    beta1 = math.atan((1.0 - F) * math.tan(math.radians(lat1)))
    beta2 = math.atan((1.0 - F) * math.tan(math.radians(lat2)))
    target = abs(_lon_diff(lon1, lon2))

    if beta1 == 0.0 and beta2 == 0.0:
        # Equatorial geodesic (exact for the separations we sample).
        return A_KM * target

    def longitude_mismatch(omega: float) -> float:
        predicted, _ = _sphere_solution(beta1, beta2, omega, want_distance=False)
        return predicted - target

    upper = target + F * math.pi + 1e-9
    omega = brentq(longitude_mismatch, target, upper, xtol=1e-15, rtol=8.9e-16)
    _, distance = _sphere_solution(beta1, beta2, omega, want_distance=True)
    return distance


def _lon_diff(lon1: float, lon2: float) -> float:
    d = math.radians(lon2 - lon1)
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    return d


def _sphere_solution(
    beta1: float, beta2: float, omega: float, want_distance: bool
) -> tuple[float, float]:
    """Given the auxiliary-sphere longitude gap omega, return the predicted
    ellipsoidal longitude gap, and the geodesic length when requested."""
    u1 = (math.cos(beta1), 0.0, math.sin(beta1))
    u2 = (
        math.cos(beta2) * math.cos(omega),
        math.cos(beta2) * math.sin(omega),
        math.sin(beta2),
    )
    nx = u1[1] * u2[2] - u1[2] * u2[1]
    ny = u1[2] * u2[0] - u1[0] * u2[2]
    nz = u1[0] * u2[1] - u1[1] * u2[0]
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm == 0.0:
        raise ValueError("degenerate (coincident or antipodal) configuration")
    sin_alpha0 = nz / norm
    cos_sq_alpha0 = max(0.0, 1.0 - sin_alpha0 * sin_alpha0)
    k2 = EP2 * cos_sq_alpha0

    # Arc positions along the great circle, measured from the ascending node.
    node_norm = math.hypot(-ny / norm, nx / norm)
    if node_norm < 1e-15:
        # Equatorial circle; handled by the caller's closed form.
        raise ValueError("equatorial geodesic reached the general path")
    tx, ty, tz = -ny / norm / node_norm, nx / norm / node_norm, 0.0
    # 90 degrees ahead of the node along the circle
    wx = (ny * tz - nz * ty) / norm
    wy = (nz * tx - nx * tz) / norm
    wz = (nx * ty - ny * tx) / norm
    sigma1 = math.atan2(
        u1[0] * wx + u1[1] * wy + u1[2] * wz, u1[0] * tx + u1[1] * ty + u1[2] * tz
    )
    dot = max(-1.0, min(1.0, u1[0] * u2[0] + u1[1] * u2[1] + u1[2] * u2[2]))
    sigma12 = math.atan2(norm, dot)
    sigma2 = sigma1 + sigma12

    def lon_integrand(sigma: float) -> float:
        root = math.sqrt(1.0 + k2 * math.sin(sigma) ** 2)
        return (2.0 - F) / (1.0 + (1.0 - F) * root)

    correction, _ = quad(lon_integrand, sigma1, sigma2, **_QUAD_OPTS)
    predicted = omega - F * sin_alpha0 * correction

    distance = 0.0
    if want_distance:
        arc, _ = quad(
            lambda s: math.sqrt(1.0 + k2 * math.sin(s) ** 2), sigma1, sigma2, **_QUAD_OPTS
        )
        distance = B_KM * arc
    return predicted, distance


def meridian_quadrant_km() -> float:
    """Closed-form pole-to-equator meridian arc, a * E(e^2)."""
    from scipy.special import ellipe

    return A_KM * float(ellipe(E2))


def grid_search_median(points, weights, resolution_km: float = 0.1):
    """Brute-force weighted-median oracle: refine a lat/lon grid around the
    incumbent optimum until the cell size drops below resolution_km.

    Returns (best_point_latlon, best_objective_km). Relies only on
    geodesic_distance, which is validated separately against
    oracle_distance_km.
    """
    from tvgeo.geodesy import GeoPoint, geodesic_distance

    def objective(lat: float, lon: float) -> float:
        candidate = GeoPoint(lat, lon)
        return sum(
            w * geodesic_distance(candidate, p) for p, w in zip(points, weights)
        )

    lat_min = min(p.lat for p in points)
    lat_max = max(p.lat for p in points)
    lon_min = min(p.lon for p in points)
    lon_max = max(p.lon for p in points)
    pad_lat = 0.25 * (lat_max - lat_min) + 0.01
    pad_lon = 0.25 * (lon_max - lon_min) + 0.01
    lat_lo, lat_hi = lat_min - pad_lat, lat_max + pad_lat
    lon_lo, lon_hi = lon_min - pad_lon, lon_max + pad_lon

    cells = 16
    best = (math.inf, 0.0, 0.0)
    while True:
        dlat = (lat_hi - lat_lo) / cells
        dlon = (lon_hi - lon_lo) / cells
        for i in range(cells + 1):
            lat = lat_lo + i * dlat
            for j in range(cells + 1):
                lon = lon_lo + j * dlon
                value = objective(lat, lon)
                if value < best[0]:
                    best = (value, lat, lon)
        mid_lat = 0.5 * (lat_lo + lat_hi)
        cell_km = max(
            dlat * 111.2, dlon * 111.32 * abs(math.cos(math.radians(mid_lat)))
        )
        if cell_km <= resolution_km:
            break
        # Shrink the window to +/- 2 cells around the incumbent.
        _, blat, blon = best
        lat_lo, lat_hi = blat - 2.0 * dlat, blat + 2.0 * dlat
        lon_lo, lon_hi = blon - 2.0 * dlon, blon + 2.0 * dlon
    return GeoPoint(best[1], best[2]), best[0]


def weighted_distance_sum(candidate, s) -> float:
    """The l1 objective of a WeightedPointSet: the fsum of w_j * d(candidate,
    p_j)."""
    from tvgeo.geodesy import geodesic_distance

    return math.fsum(w * geodesic_distance(candidate, p) for p, w in zip(s.points, s.weights))


def max_speed_every_leg(events) -> float:
    """ground_truth.max_speed's reference: geodesic_distance on every leg, in
    order, with the same zero-gap rule (a gap whose hours round to 0.0 is
    infinite speed when the points differ and skipped when they coincide).
    It uses the library's geodesic_distance, so the fastest leg it finds is
    the same float that max_speed must return."""
    from tvgeo.geodesy import geodesic_distance

    if len(events) < 2:
        raise ValueError("max_speed needs at least two events")
    fastest = 0.0
    for prev, cur in zip(events, events[1:]):
        dt = cur.timestamp - prev.timestamp
        if dt < 0:
            raise ValueError("events are not sorted by timestamp")
        dist = geodesic_distance(prev.point, cur.point)
        hours = dt / 3600.0
        if hours == 0.0:
            if dist > 0.0:
                return math.inf
            continue
        fastest = max(fastest, dist / hours)
    return fastest


def adjacency_oracle(edges) -> dict:
    """{node: ((neighbor, weight), ...)} for an {(u, v): weight} mapping of
    distinct, checked edges in either orientation: nodes ascending, each
    row sorted by neighbor id, every edge under both endpoints."""
    adjacency: dict = {}
    for (u, v), w in edges.items():
        adjacency.setdefault(u, {})[v] = w
        adjacency.setdefault(v, {})[u] = w
    return {node: tuple(sorted(adjacency[node].items())) for node in sorted(adjacency)}


# --- row-loop readers ---------------------------------------------------------
#
# Copies of the readers before they moved onto _tsv.Columns. read_estimates
# also has the dispersion check that came with the move.


def parse_point(lat, lon):
    from tvgeo import _tsv
    from tvgeo.geodesy import GeoPoint

    return GeoPoint(_tsv.parse_float(lat, "latitude"), _tsv.parse_float(lon, "longitude"))


def row_iter_mention_file(path):
    from tvgeo import _tsv

    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 3)
            src = _tsv.parse_int(fields[0], "src_id")
            dst = _tsv.parse_int(fields[1], "dst_id")
            count = _tsv.parse_int(fields[2], "count")
            yield src, dst, count


def row_read_network_file(path):
    from tvgeo import _tsv
    from tvgeo.graph import SocialNetwork

    def edge(fields):
        _tsv.require_fields(fields, 3)
        u = _tsv.parse_int(fields[0], "node id")
        v = _tsv.parse_int(fields[1], "node id")
        w = _tsv.parse_int(fields[2], "weight")
        return u, v, w

    with _tsv.Rows(path) as rows:
        return SocialNetwork.from_edges(map(edge, rows))


def row_read_gps_events_file(path):
    from tvgeo import _tsv
    from tvgeo.ground_truth import GpsEvent

    events = []
    users = {}
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 4)
            user = _tsv.parse_int(fields[0], "user_id")
            user = users.setdefault(user, user)
            point = parse_point(fields[1], fields[2])
            ts = _tsv.parse_float(fields[3], "timestamp")
            events.append(GpsEvent(user, point, ts))
    return events


def _row_seed(fields):
    from tvgeo import _tsv
    from tvgeo.ground_truth import GroundTruthRecord

    _tsv.require_fields(fields, 5)
    user = _tsv.parse_int(fields[0], "user_id")
    point = parse_point(fields[1], fields[2])
    spread = _tsv.parse_float(fields[4], "spread_km")
    return GroundTruthRecord(user, point, fields[3], spread)


def row_read_seeds_file(path):
    from tvgeo import _tsv

    seeds = {}
    with _tsv.Rows(path) as rows:
        for fields in rows:
            record = _row_seed(fields)
            if record.user in seeds:
                raise ValueError(f"duplicate seed for user {record.user}")
            seeds[record.user] = record
    return seeds


def row_read_truth_file(path):
    from tvgeo import _tsv

    truth = {}
    width = None
    with _tsv.Rows(path) as rows:
        for fields in rows:
            if width is None:
                width = len(fields)
            if width == 5:
                record = _row_seed(fields)
                user, point = record.user, record.home
            elif width == 3:
                _tsv.require_fields(fields, 3)
                user = _tsv.parse_int(fields[0], "user_id")
                point = parse_point(fields[1], fields[2])
            else:
                raise ValueError(f"expected 3 (truth) or 5 (seeds) fields, got {width}")
            if user in truth:
                raise ValueError(f"duplicate truth for user {user}")
            truth[user] = point
    return truth


def row_city_table(path):
    from tvgeo import _tsv
    from tvgeo.evaluation import CityEntry, CityTable

    entries = []
    names = set()
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 4)
            point = parse_point(fields[1], fields[2])
            pop = _tsv.parse_int(fields[3], "population")
            if fields[0] in names:
                raise ValueError(f"duplicate city name {fields[0]!r}")
            names.add(fields[0])
            entries.append(CityEntry(fields[0], point, pop))
    return CityTable(tuple(entries))


def row_gazetteer(path):
    from tvgeo import _tsv
    from tvgeo.ground_truth import Gazetteer

    gazetteer = Gazetteer({})
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 3)
            gazetteer._add(fields[0], parse_point(fields[1], fields[2]))
    return gazetteer


def row_read_estimates_file(path):
    from tvgeo import _tsv
    from tvgeo.solver import EstimateState, LocationEstimate

    located = {}
    max_iteration = 0
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 6)
            user = _tsv.parse_int(fields[0], "user_id")
            point = parse_point(fields[1], fields[2])
            disp = _tsv.parse_float(fields[3], "dispersion_km")
            if disp < 0.0 or disp == math.inf:
                raise ValueError(f"dispersion_km must be NaN or finite and >= 0, got {disp!r}")
            source = fields[4]
            if source not in ("seed", "inferred"):
                raise ValueError(f"unknown source {source!r}")
            first = _tsv.parse_int(fields[5], "first_located_iteration")
            if source == "seed" and first != 0:
                raise ValueError(f"seed row with first_located_iteration {first}, expected 0")
            if source == "inferred" and first < 1:
                raise ValueError(
                    f"inferred row with first_located_iteration {first}, expected >= 1"
                )
            if user in located:
                raise ValueError(f"duplicate estimate for user {user}")
            located[user] = LocationEstimate(user, point, disp, source, first)
            max_iteration = max(max_iteration, first)
    return EstimateState(located, max_iteration)


# --- every-candidate solver ---------------------------------------------------


def infer_every_candidate(network, seeds, cfg, *, threads=1):
    """solver.infer with every non-seed node proposing in every round, as it
    was before only the woken nodes proposed. Returns the final state and one
    (iteration, newly_located, located_total) triple per round."""
    from tvgeo import _workers, solver
    from tvgeo.solver import SOURCE_INFERRED, SOURCE_SEED, EstimateState, LocationEstimate

    located = {
        user: LocationEstimate(user, point, math.nan, SOURCE_SEED, 0)
        for user, point in sorted(seeds.items())
    }
    candidates = [u for u in network.nodes() if u not in seeds]

    reports = []
    for k in range(1, cfg.iterations + 1):
        snapshot = EstimateState(located, k - 1)
        context = (snapshot, network, cfg)
        results = _workers.fork_map(solver.node_update, candidates, context, threads)

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
        reports.append((k, newly, len(located)))

    solver._add_seed_dispersions(located, seeds, network)
    return EstimateState(located, cfg.iterations), reports


# --- descent verifier ---------------------------------------------------------


def descent_checked(node_update):
    """node_update, asserting the per-node descent bound on every accepted
    re-update: the candidate's variation (solver.nodal_variation) exceeds the
    previous point's by at most TOL_KM times the node's located weight, the
    bound a move within the median tolerance meets. Patched onto
    solver.node_update, it runs wherever infer runs the update, in forked
    workers too, since infer looks node_update up at call time."""
    from tvgeo import solver
    from tvgeo.robust_stats import TOL_KM

    def checked(i, state, network, cfg):
        update = node_update(i, state, network, cfg)
        previous = state.located.get(i)
        if update is not None and previous is not None:
            variation = solver.nodal_variation(i, update[0], state, network)
            old_variation = solver.nodal_variation(i, previous.point, state, network)
            slack = TOL_KM * sum(w for v, w in network.neighbors(i) if v in state.located)
            if variation > old_variation + slack:
                raise AssertionError(
                    f"node {i}: variation rose from {old_variation:.6f} to "
                    f"{variation:.6f} km (allowed slack {slack:.6f} km)"
                )
        return update

    return checked
