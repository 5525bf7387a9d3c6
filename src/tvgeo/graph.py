"""Reciprocated-mention social network: construction, adjacency, and the
total-variation objective."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

from . import _tsv
from .geodesy import GeoPoint, geodesic_distance


class WeightedEdge(NamedTuple):
    """An undirected reciprocated tie, canonically ordered u < v. Unchecked:
    SocialNetwork construction is the one edge check, and edges() yields only
    edges it accepted."""

    u: int
    v: int
    weight: int


@dataclass
class IngestReport:
    records_in: int = 0
    dropped_self_mentions: int = 0
    dropped_nonpositive: int = 0
    directed_pairs: int = 0
    edges_out: int = 0
    users_out: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_self_mentions + self.dropped_nonpositive


class SocialNetwork:
    """Immutable undirected weighted graph.

    The only index is the adjacency: each node maps to its (neighbor, weight)
    pairs sorted by neighbor id, and every edge is listed under both of its
    endpoints. Nodes, edges and equality are derived from it. It is built
    once at construction, so the finished network can be shared across
    workers without synchronization.

    Construction is the one edge check. Edges are read one at a time, in
    either orientation; a self-loop, a weight below 1 or a pair given twice
    raises ValueError at the first such edge in input order, so a reader
    that feeds it rows can name the line.
    """

    __slots__ = ("_adjacency", "_num_edges")

    def __init__(self, edges: Mapping[tuple[int, int], int]):
        self._build((u, v, w) for (u, v), w in edges.items())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "SocialNetwork":
        network = cls.__new__(cls)
        network._build(edges)
        return network

    def _build(self, edges: Iterable[tuple[int, int, int]]) -> None:
        adjacency: dict[int, dict[int, int]] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            w = int(w)
            if w < 1:
                raise ValueError(f"edge ({min(u, v)}, {max(u, v)}) has non-positive weight {w}")
            neighbors = adjacency.setdefault(u, {})
            if v in neighbors:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            neighbors[v] = w
            adjacency.setdefault(v, {})[u] = w
        self._adjacency: dict[int, tuple[tuple[int, int], ...]] = {}
        for node in sorted(adjacency):
            self._adjacency[node] = tuple(sorted(adjacency.pop(node).items()))
        self._num_edges = sum(map(len, self._adjacency.values())) // 2

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def nodes(self) -> tuple[int, ...]:
        """Node ids in ascending order."""
        return tuple(self._adjacency)

    def edges(self) -> Iterator[WeightedEdge]:
        """Each edge once, as u < v, in lexicographic (u, v) order."""
        for u, neighbors in self._adjacency.items():
            for v, w in neighbors:
                if v > u:
                    yield WeightedEdge(u, v, w)

    def neighbors(self, u: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, weight) pairs of u, sorted by neighbor id; empty for
        unknown nodes."""
        return self._adjacency.get(u, ())

    def __contains__(self, u: int) -> bool:
        return u in self._adjacency

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialNetwork):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return f"SocialNetwork(nodes={self.num_nodes}, edges={self.num_edges})"


def build_reciprocal_network(
    records: Iterable[tuple[int, int, int]],
) -> tuple[SocialNetwork, IngestReport]:
    """Aggregate directed mention counts and keep the reciprocated pairs.

    Edge (u, v) exists iff both directions have positive total count; its
    weight is the smaller of the two directed totals. Self-mentions and
    non-positive counts are dropped and tallied, never fatal. The result is
    invariant under permutation of the input stream.
    """
    report = IngestReport()
    totals: dict[tuple[int, int], int] = {}
    for src, dst, count in records:
        report.records_in += 1
        if src == dst:
            report.dropped_self_mentions += 1
            continue
        if count < 1:
            report.dropped_nonpositive += 1
            continue
        key = (src, dst)
        totals[key] = totals.get(key, 0) + count
    report.directed_pairs = len(totals)

    network = SocialNetwork.from_edges(
        (src, dst, min(outgoing, totals[(dst, src)]))
        for (src, dst), outgoing in totals.items()
        if src < dst and (dst, src) in totals
    )
    report.edges_out = network.num_edges
    report.users_out = network.num_nodes
    return network, report


def total_variation(
    network: SocialNetwork, locations: Mapping[int, GeoPoint]
) -> tuple[float, int]:
    """Weighted sum of geodesic edge lengths over edges with both endpoints
    located. Returns (tv_km, skipped_edge_count)."""
    total = 0.0
    skipped = 0
    for edge in network.edges():
        a = locations.get(edge.u)
        b = locations.get(edge.v)
        if a is None or b is None:
            skipped += 1
            continue
        total += edge.weight * geodesic_distance(a, b)
    return total, skipped


# --- file formats -----------------------------------------------------------
#
# Mention file row:  src_id <TAB> dst_id <TAB> count
# Network file row:  u <TAB> v <TAB> weight   (written u < v, read either way)

MENTION_COLUMNS = ("src_id", "dst_id", "count")
NETWORK_COLUMNS = ("u", "v", "weight")


def iter_mention_file(path: str | Path) -> Iterator[tuple[int, int, int]]:
    """Parse a mention TSV; parse failures raise ValueError with path:line."""
    with _tsv.Rows(path) as rows:
        for fields in rows:
            _tsv.require_fields(fields, 3)
            src = _tsv.parse_int(fields[0], "src_id")
            dst = _tsv.parse_int(fields[1], "dst_id")
            count = _tsv.parse_int(fields[2], "count")
            yield src, dst, count


def write_network_file(network: SocialNetwork, fh: TextIO) -> None:
    _tsv.write_header(fh, NETWORK_COLUMNS)
    for edge in network.edges():
        fh.write(f"{edge.u}\t{edge.v}\t{edge.weight}\n")


def read_network_file(path: str | Path) -> SocialNetwork:
    with _tsv.Rows(path) as rows:
        return SocialNetwork.from_edges(map(_network_edge, rows))


def _network_edge(fields: list[str]) -> tuple[int, int, int]:
    _tsv.require_fields(fields, 3)
    u = _tsv.parse_int(fields[0], "node id")
    v = _tsv.parse_int(fields[1], "node id")
    w = _tsv.parse_int(fields[2], "weight")
    return u, v, w
