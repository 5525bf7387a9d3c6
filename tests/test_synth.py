import hashlib
import math

import pytest

from tvgeo.geodesy import geodesic_distance
from tvgeo.graph import read_network_file
from tvgeo.ground_truth import read_seeds_file
from tvgeo.evaluation import CityTable, read_truth_file
from tvgeo import synth
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

    def test_city_too_dense_to_fill_fails_explicitly(self, monkeypatch):
        # 45 of 45 pairs is feasible, but nearest-of-8 partners almost never
        # draw the last far pairs; the bound is lowered to keep the test fast.
        monkeypatch.setattr(synth, "_MAX_IDLE_DRAWS", 2_000)
        with pytest.raises(ValueError) as raised:
            generate(cfg_with(num_cities=1, users_per_city=10, intra_edge_mean_degree=9.0))
        assert str(raised.value) == (
            "mean degree 9.0 too dense for 10 users per city: "
            "2000 draws in a row added no edge"
        )

    def test_dense_city_that_fills_still_generates(self):
        # The longest run of draws that add no edge here is 5,425.
        cfg = cfg_with(num_cities=1, users_per_city=10, intra_edge_mean_degree=8.0, rng_seed=1)
        assert generate(cfg).network.num_edges == 40

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


# SHA-256 over the written network, truth and seeds files, recorded before
# partner draws were ranked by the chord bound. Radii of 1 m and 1 mm put
# whole cities inside the bound's 1 m slack; the 30-user city is dense.
SYNTH_DIGESTS = [
    ({}, "794026b1c65e3ae764c2938cbb46514a24e8fc1b2eb0b771404f9a4ac353ca03"),
    (dict(num_cities=2, users_per_city=80, city_radius_km=0.001, rng_seed=12),
     "5635d964669ed276687990e2640e5f150ff6d622f0047da67df79f365c44ca31"),
    (dict(num_cities=2, users_per_city=80, city_radius_km=1e-6, rng_seed=13),
     "f973de8977c2910ffd2a5308dff1bd9851aa09bc77da8bbe5c640b8dc8478fbd"),
    (dict(num_cities=1, users_per_city=200, city_radius_km=0.01, rng_seed=14),
     "8bc919f3f09594d4784b8c792039a8cb412869d2fe9e9898e3daad104eb2fcf8"),
    (dict(num_cities=1, users_per_city=30, intra_edge_mean_degree=16.0,
          inter_edge_fraction=0.0, rng_seed=15),
     "de8b96d428959a7d6d2de2d4b8c68b629c3498753316c333efc62084030fb83c"),
    (dict(num_cities=3, users_per_city=60, city_radius_km=300.0, rng_seed=16),
     "b887c255bfab9472f916a136bcc1457efeeb7d08e76dc80fa78d6d02b1c0a497"),
    (dict(num_cities=6, users_per_city=150, intra_edge_mean_degree=5.0,
          seed_fraction=0.1, rng_seed=17),
     "db3a6627d4d56b2cb66b2e00be241547528c3964144e0047a2a4c7b440ac6b6c"),
]


@pytest.mark.parametrize("overrides, expected", SYNTH_DIGESTS)
def test_written_files_are_pinned(tmp_path, overrides, expected):
    paths = write_synth_files(generate(cfg_with(**overrides)), tmp_path)
    digest = hashlib.sha256()
    for name in ("network", "truth", "seeds"):
        digest.update(paths[name].read_bytes())
    assert digest.hexdigest() == expected


def test_partner_ranking_calls_vincenty_on_few_draws(monkeypatch):
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return geodesic_distance(a, b)

    monkeypatch.setattr(synth, "geodesic_distance", counted)
    cfg = cfg_with(num_cities=10, users_per_city=200, intra_edge_mean_degree=5.0)
    generate(cfg)
    # Every intra-city edge costs at least one draw of _PARTNER_CANDIDATES
    # candidates, each of which took one call before the chord bound.
    draws = cfg.num_cities * round(cfg.users_per_city * cfg.intra_edge_mean_degree / 2.0)
    assert calls < 0.05 * draws * synth._PARTNER_CANDIDATES
