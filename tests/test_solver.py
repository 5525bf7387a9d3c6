import dataclasses
import io
import math
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo import _workers, robust_stats, solver
from tvgeo.graph import SocialNetwork
from tvgeo.ground_truth import seed_points
from tvgeo.robust_stats import WeightedPointSet
from tvgeo.solver import (
    EstimateState,
    LocationEstimate,
    SolverConfig,
    infer,
    nodal_variation,
    node_update,
    read_estimates_file,
    spatial_label_propagation,
    write_estimates_file,
)
from tvgeo.synth import SynthConfig, generate

from oracles import grid_search_median, infer_every_candidate, weighted_distance_sum

P = GeoPoint(40.0, -3.0)
Q = destination(P, 90.0, 5000.0)  # far across the map


def estimates_text(state: EstimateState) -> str:
    buffer = io.StringIO()
    write_estimates_file(state, buffer)
    return buffer.getvalue()


def state_of(points: dict[int, GeoPoint], iteration: int = 0) -> EstimateState:
    located = {
        u: LocationEstimate(u, p, 0.0, "seed", 0) for u, p in points.items()
    }
    return EstimateState(located, iteration)


def random_city_fixture(rng, n_users=60, n_seeds=8, radius_km=20.0):
    center = GeoPoint(52.0, 13.0)
    truth = {
        u: destination(center, rng.uniform(0, 360), radius_km * math.sqrt(rng.random()))
        for u in range(1, n_users + 1)
    }
    edges = set()
    while len(edges) < n_users * 3:
        u, v = rng.randint(1, n_users), rng.randint(1, n_users)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    net = SocialNetwork.from_edges([(u, v, rng.randint(1, 4)) for u, v in sorted(edges)])
    seeds = {u: truth[u] for u in rng.sample(sorted(truth), n_seeds)}
    return net, seeds


WORLD_CITIES = (
    GeoPoint(52.5, 13.4),
    GeoPoint(40.7, -74.0),
    GeoPoint(-33.9, 151.2),
    GeoPoint(35.7, 139.7),
    GeoPoint(-23.5, -46.6),
    GeoPoint(1.3, 103.8),
)
SEED_HUB = 0  # worldwide_fixture's hub tied only to seeds
OUTSIDE_SEED = 10**6  # worldwide_fixture's seed outside the network
CHAIN = 8  # worldwide_fixture's chain length, longer than the default rounds


def worldwide_fixture(rng, users_per_city=30, seeds_per_city=3, hubs=4):
    """Cities on five continents, hubs tied to two users in every city (sets
    that span more than a hemisphere, so their medians fall to the medoid and
    some re-updates fail the descent guard), SEED_HUB tied to one seed in
    every city, a chain of CHAIN nodes off one seed, and OUTSIDE_SEED."""
    edges = {}
    seeds = {OUTSIDE_SEED: GeoPoint(0.0, 0.0)}
    cities = []
    for center in WORLD_CITIES:
        members = range(len(cities) * users_per_city + 1, (len(cities) + 1) * users_per_city + 1)
        cities.append(members)
        for u in members[:seeds_per_city]:
            seeds[u] = destination(center, rng.uniform(0, 360), 20.0 * math.sqrt(rng.random()))
        for u in members:
            for v in rng.sample(members, 3):
                if u != v:
                    edges[min(u, v), max(u, v)] = rng.randint(1, 4)
    user = cities[-1][-1]
    for _ in range(hubs):
        user += 1
        for members in cities:
            for v in rng.sample(members, 2):
                edges[v, user] = rng.randint(1, 4)
    for members in cities:
        edges[SEED_HUB, members[0]] = rng.randint(1, 4)
    previous = cities[0][0]
    for _ in range(CHAIN):
        user += 1
        edges[previous, user] = 1
        previous = user
    net = SocialNetwork.from_edges((u, v, w) for (u, v), w in sorted(edges.items()))
    return net, seeds


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool built while the test runs."""
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestSolverConfig:
    def test_defaults_match_operating_point(self):
        cfg = SolverConfig()
        assert cfg.gamma_km == 100.0
        assert cfg.iterations == 5

    def test_accepts_infinite_gamma(self):
        assert SolverConfig(gamma_km=math.inf).gamma_km == math.inf

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma_km=0.0)
        with pytest.raises(ValueError):
            SolverConfig(iterations=0)


class TestNodalVariation:
    def test_zero_at_coincident_neighbor(self):
        net = SocialNetwork.from_edges([(1, 2, 3)])
        state = state_of({2: P})
        assert nodal_variation(1, P, state, net) == 0.0

    def test_weighted_sum_definition(self):
        n10 = destination(P, 0.0, 10.0)
        n20 = destination(P, 90.0, 20.0)
        net = SocialNetwork.from_edges([(1, 2, 1), (1, 3, 2)])
        state = state_of({2: n10, 3: n20})
        got = nodal_variation(1, P, state, net)
        assert got is not None
        assert abs(got - (1 * 10.0 + 2 * 20.0)) < 1e-5

    def test_no_located_neighbors_is_distinct_from_zero(self):
        net = SocialNetwork.from_edges([(1, 2, 3)])
        assert nodal_variation(1, P, state_of({}), net) is None


class TestNodeUpdate:
    def test_star_of_coincident_leaves(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        state = state_of({2: P, 3: P, 4: P})
        update = node_update(1, state, net, SolverConfig())
        assert update is not None
        point, disp = update
        assert point == P
        assert disp == 0.0

    def test_tight_cluster_accepted_and_optimal(self):
        rng = random.Random(401)
        cluster = [destination(P, rng.uniform(0, 360), rng.uniform(0, 5)) for _ in range(3)]
        net = SocialNetwork.from_edges([(1, 2, 2), (1, 3, 1), (1, 4, 3)])
        state = state_of(dict(zip([2, 3, 4], cluster)))
        update = node_update(1, state, net, SolverConfig(gamma_km=100.0))
        assert update is not None
        point, disp = update
        assert disp <= 5.0
        weights = (2.0, 1.0, 3.0)
        s = WeightedPointSet(tuple(cluster), weights)
        _, oracle_obj = grid_search_median(tuple(cluster), weights)
        assert weighted_distance_sum(point, s) <= oracle_obj + 0.01 * s.weight_sum

    def test_dispersed_neighbors_rejected(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (1, 3, 1)])
        state = state_of({2: P, 3: Q})
        assert node_update(1, state, net, SolverConfig(gamma_km=100.0)) is None

    def test_no_located_neighbors(self):
        net = SocialNetwork.from_edges([(1, 2, 1)])
        assert node_update(1, state_of({}), net, SolverConfig()) is None

    def test_medoid_that_raises_the_variation_is_rejected(self):
        # A square of heavy neighbors at 45N plus one light neighbor near the
        # south pole spans more than a hemisphere, so the median falls back
        # to the medoid, a square corner. The pole, node 1's previous point,
        # has the lower weighted variation.
        pole = GeoPoint(90.0, 0.0)
        square = [GeoPoint(45.0, lon) for lon in (0.0, 90.0, 180.0, -90.0)]
        net = SocialNetwork.from_edges(
            [(1, j, 3) for j in (2, 3, 4, 5)] + [(1, 6, 1)]
        )
        neighbors = {**dict(zip((2, 3, 4, 5), square)), 6: GeoPoint(-80.0, 0.0)}
        state = state_of({1: pole, **neighbors})
        cfg = SolverConfig(gamma_km=math.inf)
        medoid = solver.geodesic_l1_median(
            WeightedPointSet(tuple(neighbors.values()), (3.0, 3.0, 3.0, 3.0, 1.0))
        )
        assert medoid in square
        assert nodal_variation(1, medoid, state, net) > nodal_variation(1, pole, state, net)
        assert node_update(1, state, net, cfg) is None
        assert node_update(1, state, net, cfg, check_descent=True) is None
        # Located at the medoid itself, the node keeps it.
        assert node_update(1, state_of({1: medoid, **neighbors}), net, cfg) is not None


class TestInfer:
    def test_path_between_two_seeds(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (2, 3, 1)])
        state, stats = infer(net, {1: P, 3: P}, SolverConfig(iterations=2))
        b = state.located[2]
        assert b.point == P
        assert b.first_located_iteration == 1
        assert b.source == "inferred"
        assert stats[0].newly_located == 1
        assert stats[0].located_total == 3

    def test_chain_locates_one_hop_per_iteration(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (2, 3, 1)])
        state, stats = infer(net, {1: P}, SolverConfig(iterations=3))
        assert state.located[2].first_located_iteration == 1
        assert state.located[3].first_located_iteration == 2
        assert [s.newly_located for s in stats] == [1, 1, 0]
        assert [s.located_total for s in stats] == [2, 3, 3]

    def test_seed_fixity_is_bit_exact(self):
        rng = random.Random(402)
        net, seeds = random_city_fixture(rng)
        state, _ = infer(net, seeds, SolverConfig(iterations=4))
        for user, point in seeds.items():
            estimate = state.located[user]
            assert estimate.point is point
            assert estimate.source == "seed"
            assert estimate.first_located_iteration == 0

    def test_rejected_update_keeps_location_and_dispersion(self):
        # x first locates from seed s1; once remote y locates, x's candidate
        # disperses past gamma and x must keep its old location and dispersion.
        s1, s2, x, y = 1, 2, 3, 4
        net = SocialNetwork.from_edges([(s1, x, 1), (x, y, 1), (s2, y, 1)])
        state, _ = infer(net, {s1: P, s2: Q}, SolverConfig(gamma_km=100.0, iterations=3))
        got_x = state.located[x]
        assert got_x.point == P
        assert got_x.dispersion_km == 0.0
        assert got_x.first_located_iteration == 1
        got_y = state.located[y]
        assert got_y.point == Q
        assert got_y.first_located_iteration == 1

    def test_monotone_coverage(self):
        rng = random.Random(403)
        net, seeds = random_city_fixture(rng)
        _, stats = infer(net, seeds, SolverConfig(gamma_km=5.0, iterations=5))
        totals = [s.located_total for s in stats]
        assert totals == sorted(totals)

    def test_dispersed_seed_pair_needs_unbounded_gamma(self):
        net = SocialNetwork.from_edges([(1, 3, 1), (2, 3, 1)])
        constrained, _ = infer(net, {1: P, 2: Q}, SolverConfig(gamma_km=100.0, iterations=1))
        assert 3 not in constrained.located
        unconstrained, _ = spatial_label_propagation(net, {1: P, 2: Q}, iterations=1)
        assert 3 in unconstrained.located

    def test_visit_order_does_not_change_the_result(self, monkeypatch):
        rng = random.Random(404)
        net, seeds = random_city_fixture(rng)
        cfg = SolverConfig(iterations=3)
        reference, _ = infer(net, seeds, cfg)
        order = list(net.nodes())
        monkeypatch.setattr(SocialNetwork, "nodes", lambda self: tuple(order))
        for _ in range(3):
            rng.shuffle(order)
            permuted, _ = infer(net, seeds, cfg)
            assert estimates_text(permuted) == estimates_text(reference)

    def test_thread_count_does_not_change_the_result(self):
        rng = random.Random(405)
        net, seeds = random_city_fixture(rng, n_users=120, n_seeds=12)
        cfg = SolverConfig(iterations=3)
        reference, _ = infer(net, seeds, cfg, threads=1)
        for threads in (2, 4, 16):
            state, _ = infer(net, seeds, cfg, threads=threads)
            assert estimates_text(state) == estimates_text(reference)

    def test_gamma_coverage_monotone_over_one_iteration(self):
        rng = random.Random(406)
        net, seeds = random_city_fixture(rng)
        accepted = {}
        for gamma in (2.0, 10.0, 50.0, math.inf):
            state, _ = infer(net, seeds, SolverConfig(gamma_km=gamma, iterations=1))
            accepted[gamma] = set(state.located) - set(seeds)
        assert accepted[2.0] <= accepted[10.0] <= accepted[50.0] <= accepted[math.inf]

    def test_label_propagation_equals_unbounded_gamma(self):
        rng = random.Random(407)
        net, seeds = random_city_fixture(rng)
        slp_state, slp_stats = spatial_label_propagation(net, seeds, iterations=4)
        inf_state, inf_stats = infer(net, seeds, SolverConfig(gamma_km=math.inf, iterations=4))
        big_state, _ = infer(net, seeds, SolverConfig(gamma_km=1e18, iterations=4))
        assert estimates_text(slp_state) == estimates_text(inf_state)
        assert estimates_text(slp_state) == estimates_text(big_state)
        assert slp_stats == inf_stats

    def test_descent_assertion_passes_on_clean_fixture(self):
        rng = random.Random(408)
        net, seeds = random_city_fixture(rng)
        infer(net, seeds, SolverConfig(iterations=4), check_descent=True)

    def test_descent_assertion_passes_with_worker_processes(self, monkeypatch, pool_sizes):
        # The check runs in the workers; 120 users wake enough nodes in
        # rounds 2-4 to keep them above the serial cut-off.
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)  # workers on any host
        rng = random.Random(408)
        net, seeds = random_city_fixture(rng, n_users=120, n_seeds=12)
        infer(net, seeds, SolverConfig(iterations=4), threads=2, check_descent=True)
        assert 2 in pool_sizes

    def test_worker_pool_is_gone_after_return(self, monkeypatch):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 4)  # workers on any host
        rng = random.Random(410)
        net, seeds = random_city_fixture(rng, n_users=120, n_seeds=12)
        infer(net, seeds, SolverConfig(iterations=2), threads=4)
        assert multiprocessing.active_children() == []
        assert _workers._CONTEXT is None

    def test_worker_pool_is_capped_at_usable_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)
        rng = random.Random(410)
        # 40 seeds wake over 64 nodes in each round: neither round is serial.
        net, seeds = random_city_fixture(rng, n_users=200, n_seeds=40)
        capped, _ = infer(net, seeds, SolverConfig(iterations=2), threads=16)
        serial, _ = infer(net, seeds, SolverConfig(iterations=2))
        assert pool_sizes == [2, 2]
        assert estimates_text(capped) == estimates_text(serial)

    def test_one_usable_cpu_builds_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker pool was built")

        rng = random.Random(410)
        net, seeds = random_city_fixture(rng, n_users=120, n_seeds=12)
        serial, _ = infer(net, seeds, SolverConfig(iterations=2))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 1)
        one_cpu, _ = infer(net, seeds, SolverConfig(iterations=2), threads=4)
        assert estimates_text(one_cpu) == estimates_text(serial)

    def test_worker_pool_is_gone_after_a_worker_raises(self, monkeypatch):
        def failing_update(*args):
            raise RuntimeError(os.getpid())

        monkeypatch.setattr(solver, "node_update", failing_update)
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 4)  # workers on any host
        rng = random.Random(410)
        # 40 seeds wake over 64 nodes in round 1: it is not serial.
        net, seeds = random_city_fixture(rng, n_users=200, n_seeds=40)
        with pytest.raises(RuntimeError) as raised:
            infer(net, seeds, SolverConfig(iterations=2), threads=4)
        assert raised.value.args[0] != os.getpid()  # raised in a worker
        assert multiprocessing.active_children() == []
        assert _workers._CONTEXT is None

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc"), reason="Linux only")
    @pytest.mark.parametrize(
        "run",
        [
            # The workers sleep in node_update.
            """
            solver.node_update = record_and_sleep
            net = SocialNetwork.from_edges((1, u, 1) for u in range(2, 100))
            solver.infer(net, {1: GeoPoint(40.0, -3.0)}, threads=2)
            """,
            # The workers sleep in gps_home.
            """
            ground_truth.gps_home = record_and_sleep
            events = [GpsEvent(u, GeoPoint(40.0, -3.0), 0.0) for u in range(100)]
            ground_truth.gps_homes(events, threads=2)
            """,
        ],
        ids=["infer", "seed"],
    )
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path, run):
        # The child's workers record their pids and sleep; SIGKILL gives the
        # child no chance to shut its pool down.
        child = textwrap.dedent(
            """
            import os, sys, time
            from tvgeo import _workers, ground_truth, solver
            from tvgeo.geodesy import GeoPoint
            from tvgeo.graph import SocialNetwork
            from tvgeo.ground_truth import GpsEvent

            def record_and_sleep(*args):
                open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
                time.sleep(60)

            _workers.usable_cpus = lambda: 2
            """
        ) + textwrap.dedent(run)
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 2:
                assert time.monotonic() < deadline, "the workers never started"
                assert proc.poll() is None, "the child exited early"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        workers = [int(path.name) for path in tmp_path.iterdir()]

        def alive(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [pid for pid in workers if alive(pid)]
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        assert leaked == []

    @pytest.mark.parametrize("check_descent", [False, True])
    def test_each_update_walks_its_neighbors_once(self, monkeypatch, check_descent):
        # One walk per node_update call and one per seed for its final
        # dispersion; the descent guard reuses the update's walk.
        result = generate(SynthConfig(
            num_cities=4, users_per_city=60, city_radius_km=15.0, intra_edge_mean_degree=5.0,
            inter_edge_fraction=0.05, seed_fraction=0.1, rng_seed=17,
        ))
        seeds = seed_points(result.seeds)
        calls = dict.fromkeys(["_located_neighbors", "node_update", "nodal_variation"], 0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        infer(result.network, seeds, SolverConfig(), check_descent=check_descent)
        assert calls["node_update"] > len(seeds) > 0
        assert calls["_located_neighbors"] == calls["node_update"] + len(seeds)
        assert calls["nodal_variation"] == 0

    def test_isolated_seed_passes_through(self):
        net = SocialNetwork.from_edges([(1, 2, 1)])
        state, _ = infer(net, {1: P, 99: Q}, SolverConfig(iterations=1))
        estimate = state.located[99]
        assert estimate.point == Q
        assert estimate.source == "seed"
        assert math.isnan(estimate.dispersion_km)

    def test_empty_seed_set_locates_nothing(self):
        net = SocialNetwork.from_edges([(1, 2, 1)])
        state, stats = infer(net, {}, SolverConfig(iterations=2))
        assert state.located == {}
        assert [s.located_total for s in stats] == [0, 0]

    def test_seed_dispersion_reflects_final_state(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (2, 3, 1)])
        state, _ = infer(net, {1: P, 3: P}, SolverConfig(iterations=2))
        assert state.located[1].dispersion_km == 0.0
        assert state.located[3].dispersion_km == 0.0


def synth_fixture():
    result = generate(SynthConfig(
        num_cities=4, users_per_city=60, city_radius_km=15.0, intra_edge_mean_degree=5.0,
        inter_edge_fraction=0.05, seed_fraction=0.1, rng_seed=17,
    ))
    return result.network, seed_points(result.seeds)


ORACLE_FIXTURES = {
    "synth": synth_fixture,
    "worldwide": lambda: worldwide_fixture(random.Random(411)),
}


class TestActiveSet:
    """infer runs node_update only on the nodes that a neighbor's accepted
    update woke; infer_every_candidate (tests/oracles.py) runs it on every
    non-seed node in every round. Their outputs must not differ."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("gamma", [100.0, math.inf])
    @pytest.mark.parametrize("fixture", sorted(ORACLE_FIXTURES))
    def test_matches_the_every_candidate_oracle(self, monkeypatch, fixture, gamma, threads):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)  # workers on any host
        net, seeds = ORACLE_FIXTURES[fixture]()
        cfg = SolverConfig(gamma_km=gamma)
        state, stats = infer(net, seeds, cfg, threads=threads, check_descent=True)
        want, want_stats = infer_every_candidate(
            net, seeds, cfg, threads=threads, check_descent=True
        )
        assert estimates_text(state) == estimates_text(want)
        assert [(s.iteration, s.newly_located, s.located_total) for s in stats] == want_stats
        candidates = sum(1 for u in net.nodes() if u not in seeds)
        assert sum(s.proposed for s in stats) < cfg.iterations * candidates

    @pytest.mark.parametrize("fixture", sorted(ORACLE_FIXTURES))
    def test_oracle_fixtures_hold_every_decision(self, monkeypatch, fixture):
        # Run the oracle, which sees every decision, and sort each update.
        net, seeds = ORACLE_FIXTURES[fixture]()
        decisions = Counter()
        real_update, real_medoid = solver.node_update, robust_stats._medoid

        def sorting_update(i, state, network, cfg, check_descent=False):
            update = real_update(i, state, network, cfg, check_descent)
            if update is not None:
                decisions["accepted"] += 1
            elif not solver._located_neighbors(i, state.located, network)[0]:
                decisions["no located neighbor"] += 1
            elif real_update(i, state, network, SolverConfig(gamma_km=math.inf)) is not None:
                decisions["gamma-rejected"] += 1
            elif cfg.gamma_km == math.inf:
                decisions["guard-rejected"] += 1
            return update

        def counted_medoid(*args):
            decisions["medoid"] += 1
            return real_medoid(*args)

        monkeypatch.setattr(solver, "node_update", sorting_update)
        monkeypatch.setattr(robust_stats, "_medoid", counted_medoid)
        for gamma in (100.0, math.inf):
            infer_every_candidate(net, seeds, SolverConfig(gamma_km=gamma))
        kinds = ("accepted", "no located neighbor", "gamma-rejected", "guard-rejected", "medoid")
        assert all(decisions[kind] > 0 for kind in kinds), decisions
        if fixture == "worldwide":
            assert OUTSIDE_SEED not in net
            state, _ = infer(net, seeds, SolverConfig())
            assert max(net.nodes()) not in state.located  # the chain's far end

    @pytest.mark.parametrize("gamma", [100.0, math.inf])
    def test_a_hub_tied_only_to_seeds_proposes_once(self, monkeypatch, gamma):
        calls = Counter()
        real = solver.node_update

        def counted(i, *args):
            calls[i] += 1
            return real(i, *args)

        monkeypatch.setattr(solver, "node_update", counted)
        net, seeds = worldwide_fixture(random.Random(411))
        state, _ = infer(net, seeds, SolverConfig(gamma_km=gamma))
        assert calls[SEED_HUB] == 1
        # Accepted at gamma inf, rejected by the worldwide dispersion at 100.
        assert (SEED_HUB in state.located) == (gamma == math.inf)


class TestEstimateFiles:
    def test_roundtrip_preserves_serialized_form(self, tmp_path):
        rng = random.Random(409)
        net, seeds = random_city_fixture(rng)
        state, _ = infer(net, seeds, SolverConfig(iterations=2))
        path = tmp_path / "estimates.tsv"
        path.write_text(estimates_text(state), encoding="utf-8")
        loaded = read_estimates_file(path)
        assert estimates_text(loaded) == estimates_text(state)

    def test_nan_dispersion_roundtrips(self, tmp_path):
        net = SocialNetwork.from_edges([(1, 2, 1)])
        state, _ = infer(net, {5: P}, SolverConfig(iterations=1))
        path = tmp_path / "estimates.tsv"
        path.write_text(estimates_text(state), encoding="utf-8")
        loaded = read_estimates_file(path)
        assert math.isnan(loaded.located[5].dispersion_km)

    def test_estimates_are_slotted_values(self):
        estimate = LocationEstimate(1, P, 0.5, "seed", 0)
        assert not hasattr(estimate, "__dict__")
        assert dataclasses.replace(estimate, dispersion_km=2.0) == LocationEstimate(
            1, P, 2.0, "seed", 0
        )
        assert pickle.loads(pickle.dumps(estimate)) == estimate

    def test_unknown_source_rejected(self, tmp_path):
        path = tmp_path / "estimates.tsv"
        path.write_text("1\t0.0\t0.0\t0.0\toracle\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="source"):
            read_estimates_file(path)
