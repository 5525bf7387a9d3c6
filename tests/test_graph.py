import random

import pytest

from tvgeo.geodesy import GeoPoint, destination, geodesic_distance
from tvgeo.graph import (
    SocialNetwork,
    WeightedEdge,
    build_reciprocal_network,
    iter_mention_file,
    read_network_file,
    total_variation,
    write_network_file,
)


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
