import math

import pytest

from tvgeo.geodesy import geodesic_distance
from tvgeo.graph import read_network_file
from tvgeo.ground_truth import read_seeds_file
from tvgeo.evaluation import CityTable, read_truth_file
from tvgeo.synth import SynthConfig, generate, write_synth_files


def cfg_with(**overrides):
    base = dict(
        num_cities=3,
        users_per_city=40,
        city_radius_km=15.0,
        intra_edge_mean_degree=6.0,
        inter_edge_fraction=0.05,
        seed_fraction=0.2,
        rng_seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


def component_count(net) -> int:
    # Union-find over the generated edges; independent of any graph helper.
    parent = {u: u for u in net.nodes()}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for edge in net.edges():
        ru, rv = find(edge.u), find(edge.v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for u in parent})


class TestSynthConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cfg_with(num_cities=0)
        with pytest.raises(ValueError):
            cfg_with(city_radius_km=0.0)
        with pytest.raises(ValueError):
            cfg_with(inter_edge_fraction=1.0)
        with pytest.raises(ValueError):
            cfg_with(seed_fraction=0.0)
        with pytest.raises(ValueError):
            cfg_with(seed_fraction=1.5)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^city_radius_km must be finite and > 0"):
                cfg_with(city_radius_km=value)
            with pytest.raises(ValueError, match="^intra_edge_mean_degree must be finite and >= 0"):
                cfg_with(intra_edge_mean_degree=value)


class TestGenerate:
    def test_full_seeding_makes_truth_equal_seeds(self):
        result = generate(cfg_with(num_cities=1, users_per_city=10, seed_fraction=1.0))
        assert set(result.seeds) == set(result.truth)
        for user, record in result.seeds.items():
            assert record.home == result.truth[user]

    def test_every_user_within_city_radius(self):
        cfg = cfg_with(num_cities=4, users_per_city=50, rng_seed=5)
        result = generate(cfg)
        for user, point in result.truth.items():
            center = result.cities.entries[result.city_of[user]].point
            assert geodesic_distance(center, point) <= cfg.city_radius_km + 1e-9

    def test_bit_identical_under_same_seed(self):
        cfg = cfg_with()
        a, b = generate(cfg), generate(cfg)
        assert a.network == b.network
        assert a.truth == b.truth
        assert a.seeds == b.seeds
        assert a.city_of == b.city_of
        assert a.cities == b.cities

    def test_different_seed_changes_output(self):
        a = generate(cfg_with(rng_seed=1))
        b = generate(cfg_with(rng_seed=2))
        assert a.truth != b.truth

    def test_no_rewiring_gives_one_component_per_city(self):
        cfg = cfg_with(
            num_cities=2,
            users_per_city=60,
            intra_edge_mean_degree=8.0,
            inter_edge_fraction=0.0,
            rng_seed=23,
        )
        result = generate(cfg)
        assert component_count(result.network) == 2

    def test_realized_inter_fraction_close_to_target(self):
        cfg = cfg_with(
            num_cities=4,
            users_per_city=500,
            intra_edge_mean_degree=10.0,
            inter_edge_fraction=0.10,
            rng_seed=31,
        )
        result = generate(cfg)
        edges = list(result.network.edges())
        assert len(edges) >= 10_000
        inter = sum(
            1 for e in edges if result.city_of[e.u] != result.city_of[e.v]
        )
        realized = inter / len(edges)
        assert 0.8 * cfg.inter_edge_fraction <= realized <= 1.2 * cfg.inter_edge_fraction

    def test_weights_are_small_positive_integers(self):
        result = generate(cfg_with(rng_seed=7))
        weights = [e.weight for e in result.network.edges()]
        assert min(weights) >= 1
        assert 1.5 < sum(weights) / len(weights) < 2.5  # geometric, mean 2

    def test_seed_counts_follow_fraction_per_city(self):
        cfg = cfg_with(num_cities=3, users_per_city=40, seed_fraction=0.25)
        result = generate(cfg)
        per_city = {i: 0 for i in range(cfg.num_cities)}
        for user in result.seeds:
            per_city[result.city_of[user]] += 1
        assert all(count == 10 for count in per_city.values())

    def test_infeasible_separation_fails_explicitly(self):
        with pytest.raises(ValueError, match="cannot place"):
            generate(cfg_with(num_cities=100, city_radius_km=1000.0))

    def test_city_names_are_real_and_unique(self):
        result = generate(cfg_with(num_cities=10))
        names = [e.name for e in result.cities.entries]
        assert len(set(names)) == 10
        assert all(e.population >= 5000 for e in result.cities.entries)


class TestSynthFiles:
    def test_written_files_read_back_consistently(self, tmp_path):
        cfg = cfg_with(rng_seed=3)
        result = generate(cfg)
        paths = write_synth_files(result, tmp_path)

        network = read_network_file(paths["network"])
        assert network == result.network

        truth = read_truth_file(paths["truth"])
        assert truth == result.truth

        seeds = read_seeds_file(paths["seeds"])
        assert seeds == result.seeds

        cities = CityTable.from_tsv(paths["cities"])
        assert cities == result.cities

        assignments = {}
        for line in paths["assignments"].read_text(encoding="utf-8").splitlines():
            if line.startswith("#") or not line.strip():
                continue
            user, city = line.split("\t")
            assignments[int(user)] = int(city)
        assert assignments == result.city_of
