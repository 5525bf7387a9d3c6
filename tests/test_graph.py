import gc
import math
import random
import re
import sys
import tracemalloc

import pytest

from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.graph import (
    _MAX_WEIGHT,
    SocialNetwork,
    WeightedEdge,
    build_reciprocal_network,
    iter_mention_file,
    read_network_file,
    total_variation,
    write_network_file,
)

from oracles import adjacency_oracle


class TestBuildReciprocalNetwork:
    def test_min_of_reciprocated_counts(self):
        net, _ = build_reciprocal_network([(1, 2, 5), (2, 1, 2)])
        assert list(net.edges()) == [WeightedEdge(1, 2, 2)]

    def test_unreciprocated_mentions_make_no_edge(self):
        net, _ = build_reciprocal_network([(1, 2, 5)])
        assert net.num_edges == 0
        assert net.num_nodes == 0

    def test_isolated_users_are_absent(self):
        net, _ = build_reciprocal_network([(1, 2, 3), (2, 1, 3), (1, 3, 1)])
        assert list(net.edges()) == [WeightedEdge(1, 2, 3)]
        assert 3 not in net

    def test_repeated_directed_pairs_are_summed(self):
        net, _ = build_reciprocal_network([(1, 2, 2), (1, 2, 3), (2, 1, 4)])
        assert list(net.edges()) == [WeightedEdge(1, 2, 4)]

    def test_invalid_records_dropped_and_tallied(self):
        net, report = build_reciprocal_network(
            [(1, 1, 5), (1, 2, 0), (1, 2, 2), (2, 1, 1)]
        )
        assert report.records_in == 4
        assert report.dropped_self_mentions == 1
        assert report.dropped_nonpositive == 1
        assert report.dropped == 2
        assert report.edges_out == net.num_edges == 1
        assert report.users_out == 2

    def test_order_invariance(self):
        rng = random.Random(301)
        records = []
        for _ in range(200):
            u, v = rng.randint(1, 20), rng.randint(1, 20)
            records.append((u, v, rng.randint(1, 5)))
        reference, _ = build_reciprocal_network(records)
        for _ in range(5):
            rng.shuffle(records)
            shuffled, _ = build_reciprocal_network(records)
            assert shuffled == reference


class TestSocialNetwork:
    @pytest.fixture
    def star(self):
        return SocialNetwork.from_edges([(1, 2, 1), (1, 3, 2), (1, 4, 3)])

    def test_absent_node_degree_zero_with_flag(self, star):
        assert star.neighbors(99) == ()
        assert 99 not in star
        assert 1 in star

    def test_adjacency_is_symmetric(self):
        rng = random.Random(302)
        edges = {}
        for _ in range(100):
            u, v = rng.randint(1, 30), rng.randint(1, 30)
            if u != v:
                edges[(min(u, v), max(u, v))] = rng.randint(1, 9)
        net = SocialNetwork(edges)
        for u in net.nodes():
            for v, w in net.neighbors(u):
                assert (u, w) in net.neighbors(v)

    def test_counts_and_nodes(self, star):
        assert star.num_nodes == 4
        assert star.num_edges == 3
        assert star.nodes() == (1, 2, 3, 4)

    def test_rejects_duplicate_and_self_edges(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            SocialNetwork({(1, 2): 1, (2, 1): 2})
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 7\)$"):
            SocialNetwork({(1, 5): 1, (7, 2): 1, (5, 9): 1, (2, 7): 3})
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            SocialNetwork.from_edges([(1, 2, 1), (1, 2, 3)])
        # The first repeat in input order is named, not the lowest pair.
        with pytest.raises(ValueError, match=r"^duplicate edge \(5, 9\)$"):
            SocialNetwork.from_edges([(5, 9, 1), (1, 2, 1), (9, 5, 1), (2, 1, 1)])
        with pytest.raises(ValueError, match=r"^self-loop on node 3$"):
            SocialNetwork({(3, 3): 1})
        with pytest.raises(ValueError, match=r"^edge \(1, 4\) has non-positive weight 0$"):
            SocialNetwork({(4, 1): 0})

    def test_unsorted_mixed_orientation_input(self):
        shuffled = {(9, 4): 2, (1, 7): 1, (7, 4): 5, (3, 1): 4, (4, 1): 3, (9, 7): 1}
        net = SocialNetwork(shuffled)
        assert [(e.u, e.v, e.weight) for e in net.edges()] == [
            (1, 3, 4), (1, 4, 3), (1, 7, 1), (4, 7, 5), (4, 9, 2), (7, 9, 1),
        ]
        assert net.nodes() == (1, 3, 4, 7, 9)
        assert net.num_edges == 6
        assert net.neighbors(4) == ((1, 3), (7, 5), (9, 2))
        ordered = {(1, 3): 4, (1, 4): 3, (1, 7): 1, (4, 7): 5, (4, 9): 2, (7, 9): 1}
        assert net == SocialNetwork(ordered)
        assert net != SocialNetwork.from_edges([(1, 3, 4)])


def random_edges(rng, ids, weights, n_edges):
    """{(u, v): weight} with n_edges distinct pairs over ids, each pair in a
    random orientation."""
    edges = {}
    while len(edges) < n_edges:
        u, v = rng.sample(ids, 2)
        if (v, u) not in edges:
            edges[(u, v)] = rng.choice(weights)
    return edges


def flipped(edges):
    return {(v, u): w for (u, v), w in edges.items()}


def assert_matches_oracle(net, edges):
    oracle = adjacency_oracle(edges)
    assert net.nodes() == tuple(oracle)
    assert net.num_nodes == len(oracle)
    assert net.num_edges == len(edges)
    for u, row in oracle.items():
        assert u in net
        assert net.neighbors(u) == row
    assert [tuple(e) for e in net.edges()] == [
        (u, v, w) for u, row in oracle.items() for v, w in row if v > u
    ]
    absent = max(oracle, default=0) + 1
    assert absent not in net
    assert net.neighbors(absent) == ()


ID_POOLS = {
    "small": (list(range(1, 60)), list(range(1, 10))),
    "beyond-int64": (
        [2**63 + k for k in range(30)] + [-(2**63) - k for k in range(30)] + list(range(-5, 5)),
        [1, 2, 2**63, 2**64 + 7],
    ),
}


class TestCompressedRows:
    """SocialNetwork's compressed rows against the dict-of-tuples layout they
    replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("pool", sorted(ID_POOLS))
    def test_random_networks_match_the_oracle(self, pool):
        ids, weights = ID_POOLS[pool]
        rng = random.Random(311)
        for n_edges in (1, 5, 40, 150):
            edges = random_edges(rng, ids, weights, n_edges)
            net = SocialNetwork(edges)
            assert_matches_oracle(net, edges)
            # Either orientation, and the triples in any order, build the
            # same network.
            triples = [(u, v, w) for (u, v), w in edges.items()]
            rng.shuffle(triples)
            assert net == SocialNetwork(flipped(edges))
            assert net == SocialNetwork.from_edges(triples)

    @pytest.mark.parametrize("pool", sorted(ID_POOLS))
    def test_any_difference_breaks_equality(self, pool):
        ids, weights = ID_POOLS[pool]
        rng = random.Random(312)
        edges = random_edges(rng, ids, weights, 40)
        net = SocialNetwork(edges)
        (u, v), w = next(iter(edges.items()))
        reweighted = {**edges, (u, v): w + 1}
        assert net != SocialNetwork(reweighted)
        dropped = {pair: weight for pair, weight in edges.items() if pair != (u, v)}
        assert net != SocialNetwork(dropped)
        unused = next(x for x in ids if x not in net)
        rewired = {**dropped, (u, unused): w}
        assert net != SocialNetwork(rewired)
        assert net.num_edges == SocialNetwork(rewired).num_edges

    def test_empty_network(self):
        for net in (SocialNetwork({}), SocialNetwork.from_edges([])):
            assert_matches_oracle(net, {})
            assert net.nodes() == ()
            assert net.num_nodes == net.num_edges == 0
            assert net == SocialNetwork({})
            assert repr(net) == "SocialNetwork(nodes=0, edges=0)"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((2**63 + 4, 2**63 + 4, 1), r"self-loop on node 9223372036854775812"),
            ((-3, 7, 0), r"edge \(-3, 7\) has non-positive weight 0"),
            ((9, -2, -5), r"edge \(-2, 9\) has non-positive weight -5"),
            ((12, 11, 1), r"duplicate edge \(11, 12\)"),
            ((9, 4, 10**400), r"edge \(4, 9\) has a weight too large for a float"),
        ],
        ids=["self-loop", "zero-weight", "negative-weight", "duplicate", "weight-past-float"],
    )
    def test_errors_fire_at_the_first_offending_edge(self, tmp_path, bad, message):
        rng = random.Random(313)
        good = [(u, v, w) for (u, v), w in random_edges(rng, list(range(20, 60)), [1, 3], 30).items()]
        # Every kind of error follows the first one, so only the first can be
        # the one named.
        later = [(5, 5, 1), (6, 7, 0), (12, 11, 2)]
        for at in (0, 13, 30):
            edges = good[:at] + [(11, 12, 1)] + good[at:] + [bad] + later
            with pytest.raises(ValueError, match=f"^{message}$"):
                SocialNetwork.from_edges(edges)
            path = tmp_path / "net.tsv"
            path.write_text("".join(f"{u}\t{v}\t{w}\n" for u, v, w in edges), encoding="utf-8")
            line = edges.index(bad) + 1
            with pytest.raises(ValueError, match=rf"net\.tsv:{line}: {message}$"):
                read_network_file(path)


class TestWeightRange:
    def test_the_largest_accepted_weight_is_the_largest_float(self):
        assert float(_MAX_WEIGHT) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(_MAX_WEIGHT + 1)
        net = SocialNetwork.from_edges([(1, 2, _MAX_WEIGHT)])
        assert net.neighbors(1) == ((2, _MAX_WEIGHT),)
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) has a weight too large for a float$"):
            SocialNetwork.from_edges([(2, 1, _MAX_WEIGHT + 1)])

    @pytest.mark.parametrize(
        "weight, shown",
        [(2.7, "2.7"), (0.5, "0.5"), (math.nan, "nan"), (math.inf, "inf"), ("3", "'3'")],
    )
    def test_a_non_integer_weight_is_rejected_by_both_constructors(self, weight, shown):
        message = rf"^edge \(1, 2\) has a non-integer weight {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            SocialNetwork({(2, 1): weight})
        with pytest.raises(ValueError, match=message):
            SocialNetwork.from_edges([(2, 1, weight)])
        # At its place in input order: after a good edge, before a bad one.
        with pytest.raises(ValueError, match=message):
            SocialNetwork.from_edges([(3, 4, 1), (1, 2, weight), (5, 5, 1)])

    def test_total_variation_takes_the_largest_accepted_weight(self):
        a = GeoPoint(0.0, 0.0)
        near, far = destination(a, 90.0, 0.5), destination(a, 90.0, 2.0)
        net = SocialNetwork.from_edges([(1, 2, _MAX_WEIGHT), (1, 3, _MAX_WEIGHT)])
        tv, skipped = total_variation(net, {1: a, 2: near})
        assert (tv, skipped) == (sys.float_info.max * geodesic_distance(a, near), 1)
        assert math.isfinite(tv)
        tv, _ = total_variation(net, {1: a, 2: near, 3: far})
        assert tv == math.inf

    def test_ingest_names_the_pair_whose_minimum_is_past_float(self):
        big = 2 * _MAX_WEIGHT
        records = [(1, 2, 3), (2, 1, 4), (7, 5, big), (5, 7, _MAX_WEIGHT + 1), (2, 7, big)]
        with pytest.raises(ValueError, match=r"^edge \(5, 7\) has a weight too large for a float$"):
            build_reciprocal_network(records)
        # A pair whose smaller direction fits is an edge of that weight.
        net, _ = build_reciprocal_network([(7, 5, big), (5, 7, _MAX_WEIGHT)])
        assert list(net.edges()) == [WeightedEdge(5, 7, _MAX_WEIGHT)]


class TestIngestMemory:
    """Traced peak of build_reciprocal_network(iter_mention_file(path)) per
    directed pair, on 39,175 mention records of 22,174 directed pairs among
    4,000 ten-digit user ids, 85% of the pairs reciprocated. Per-source rows
    keyed by one int object per user peak at 110 B per directed pair
    (CPython 3.11), and 88 B on the seed-ingest benchmark's stream. A dict
    keyed by (src, dst) tuples peaked at 249 B per pair here."""

    MAX_PEAK_B_PER_PAIR = 150

    @pytest.fixture(scope="class")
    def mention_file(self, tmp_path_factory):
        rng = random.Random(317)
        ids = rng.sample(range(10**9, 10**10), 4000)
        pairs = set()
        records = []
        while len(pairs) < 12000:
            u, v = rng.sample(ids, 2)
            if (v, u) in pairs or (u, v) in pairs:
                continue
            pairs.add((u, v))
            for src, dst in ((u, v), (v, u)) if rng.random() < 0.85 else ((u, v),):
                for _ in range(rng.choice([1, 1, 2, 3])):
                    records.append((src, dst, rng.choice([1, 1, 2, 5])))
        records += [(u, u, 1) for u in rng.sample(ids, 100)]
        rng.shuffle(records)
        path = tmp_path_factory.mktemp("memory") / "mentions.tsv"
        path.write_text("".join(f"{s}\t{d}\t{c}\n" for s, d, c in records), encoding="utf-8")
        return path

    def test_ingest_peaks_under_the_bound(self, mention_file):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net, report = build_reciprocal_network(iter_mention_file(mention_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.edges_out == net.num_edges > 0.4 * report.directed_pairs
        per_pair = (peak - before) / report.directed_pairs
        assert per_pair < self.MAX_PEAK_B_PER_PAIR, (
            f"ingest peaks at {per_pair:.1f} B per directed pair"
        )


class TestNetworkMemory:
    """Bytes per edge of a read network, traced with tracemalloc on 20,000
    edges among 8,000 ten-digit user ids (~0.4 nodes per edge and small
    weights, like the benchmark). The compressed rows retain 77.7 B per edge
    and the read peaks at 166 B per edge, while the check map is full
    (CPython 3.11). The layout they replaced, a tuple of (neighbor, weight)
    tuples per node that kept the int objects of every row, retained 223 B
    per edge on this network and peaked at 241 B per edge."""

    MAX_RETAINED_B_PER_EDGE = 100
    MAX_PEAK_B_PER_EDGE = 200

    @pytest.fixture(scope="class")
    def network_file(self, tmp_path_factory):
        rng = random.Random(314)
        ids = rng.sample(range(10**9, 10**10), 8000)
        edges = random_edges(rng, ids, [1, 1, 1, 2, 3, 7], 20000)
        path = tmp_path_factory.mktemp("memory") / "network.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            write_network_file(SocialNetwork(edges), fh)
        return path, len(edges)

    def test_read_retains_and_peaks_under_the_bounds(self, network_file):
        path, n_edges = network_file
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = read_network_file(path)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.num_edges == n_edges
        retained_per_edge = (retained - before) / n_edges
        peak_per_edge = (peak - before) / n_edges
        assert retained_per_edge < self.MAX_RETAINED_B_PER_EDGE, (
            f"the network retains {retained_per_edge:.1f} B per edge"
        )
        assert peak_per_edge < self.MAX_PEAK_B_PER_EDGE, (
            f"the read peaks at {peak_per_edge:.1f} B per edge"
        )


class TestTotalVariation:
    def test_coincident_nodes_have_zero_variation(self):
        net = SocialNetwork.from_edges([(1, 2, 3), (2, 3, 1)])
        p = GeoPoint(10.0, 20.0)
        tv, skipped = total_variation(net, {1: p, 2: p, 3: p})
        assert tv == 0.0
        assert skipped == 0

    def test_single_edge_definition(self):
        a = GeoPoint(0.0, 0.0)
        b = destination(a, 90.0, 10.0)
        assert abs(geodesic_distance(a, b) - 10.0) < 1e-6
        net = SocialNetwork.from_edges([(1, 2, 2)])
        tv, _ = total_variation(net, {1: a, 2: b})
        assert abs(tv - 20.0) < 1e-5

    def test_right_triangle_sums_pairwise_distances(self):
        # 3-4-5 right triangle: curvature shifts the hypotenuse by < 1e-6 km.
        a = GeoPoint(0.0, 0.0)
        b = destination(a, 90.0, 3.0)
        c = destination(a, 0.0, 4.0)
        net = SocialNetwork.from_edges([(1, 2, 1), (1, 3, 1), (2, 3, 1)])
        tv, _ = total_variation(net, {1: a, 2: b, 3: c})
        assert abs(tv - 12.0) < 1e-4

    def test_partially_located_edges_are_skipped_and_counted(self):
        net = SocialNetwork.from_edges([(1, 2, 1), (2, 3, 5)])
        p = GeoPoint(0.0, 0.0)
        tv, skipped = total_variation(net, {1: p, 2: p})
        assert tv == 0.0
        assert skipped == 1

    def test_relabeling_invariance(self):
        a = GeoPoint(48.0, 2.0)
        b = destination(a, 45.0, 55.0)
        c = destination(a, 200.0, 20.0)
        net1 = SocialNetwork.from_edges([(1, 2, 2), (2, 3, 3)])
        net2 = SocialNetwork.from_edges([(10, 20, 2), (20, 30, 3)])
        tv1, _ = total_variation(net1, {1: a, 2: b, 3: c})
        tv2, _ = total_variation(net2, {10: a, 20: b, 30: c})
        assert tv1 == tv2


class TestNetworkFiles:
    def test_roundtrip(self, tmp_path):
        net, _ = build_reciprocal_network([(1, 2, 5), (2, 1, 2), (3, 1, 1), (1, 3, 4)])
        path = tmp_path / "net.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            write_network_file(net, fh)
        assert read_network_file(path) == net

    def test_header_comment_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("# format: v1\n\n# a comment\n1\t2\t3\n", encoding="utf-8")
        net = read_network_file(path)
        assert list(net.edges()) == [WeightedEdge(1, 2, 3)]

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("# format: v2\n1\t2\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="format version"):
            read_network_file(path)

    def test_parse_error_names_the_line(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("1\t2\t3\n1\ttwo\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"mentions\.tsv:2"):
            list(iter_mention_file(path))

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "mentions.tsv"
        path.write_text("1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":1"):
            list(iter_mention_file(path))
