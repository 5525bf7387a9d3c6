"""Reciprocated-mention social network: construction, adjacency, and the
total-variation objective.

SocialNetwork stores its adjacency as compressed sparse rows: flat lists of
neighbor ids and weights, cut into rows by an array of offsets. Read from a
file, the 50,000-edge benchmark network retains 74 B per edge. The solver's
neighbor walk reads a row's two slices (SocialNetwork._row), not the pairs
neighbors() builds, because it walks every row every round.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import index
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

from . import _tsv
from .geodesy import GeoPoint, geodesic_distance

# The largest int that float() holds: a larger one rounds to 2**1024 and
# overflows. The median and the variation take weights as floats, so the edge
# check rejects any weight above it.
_MAX_WEIGHT = 2**1024 - 2**970 - 1


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

    The only index is the adjacency, stored as compressed sparse rows: the
    node ids in ascending order, a dict from id to position, one array('q')
    of row offsets, and two flat lists that hold each row's neighbor ids and
    weights in neighbor order. Every edge is listed in the rows of both of
    its endpoints. The neighbor lists point at the one int object each node
    id has, and weights are mostly cached small ints, so an edge costs two
    list slots in each direction. Ids are unbounded Python ints; weights are
    ints from 1 to the largest int a float holds, since the median and the
    variation take them as floats. Read from a file, the 50,000-edge
    benchmark network retains 74 B per edge (tracemalloc). Nodes, edges and
    equality are derived from the rows. They are built once at
    construction, so the finished network can be shared across workers
    without synchronization.

    neighbors() builds the (neighbor, weight) pairs of one row for library
    callers. The solver's neighbor walk reads the two row slices through
    _row instead: it visits every row every round, and building pairs there
    costs time the flat rows save.

    Construction is the one edge check. Edges are read one at a time, in
    either orientation; a self-loop, a weight that is not an integer
    (operator.index refuses it: 2.7, nan or '3'), a weight below 1 or past
    the float range, or a pair given twice raises ValueError at the first
    such edge in input order, so a reader that feeds it rows can name the
    line. The message names the edge, never a too-large weight's digits.
    """

    __slots__ = ("_ids", "_index", "_offsets", "_neighbor_ids", "_weights")

    def __init__(self, edges: Mapping[tuple[int, int], int]):
        self._build((u, v, w) for (u, v), w in edges.items())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "SocialNetwork":
        network = cls.__new__(cls)
        network._build(edges)
        return network

    def _build(self, edges: Iterable[tuple[int, int, int]]) -> None:
        # Each node maps to the first int object read for it and to its
        # {neighbor: weight} dict, whose keys are those first objects too.
        # So the rows point at one object per node, and the int objects a
        # later row made are freed once it is checked.
        adjacency: dict[int, tuple[int, dict[int, int]]] = {}
        entry_of = adjacency.get
        max_weight = _MAX_WEIGHT
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            try:
                w = index(w)
            except TypeError:
                edge = f"edge ({min(u, v)}, {max(u, v)})"
                raise ValueError(f"{edge} has a non-integer weight {w!r}") from None
            if not 1 <= w <= max_weight:
                edge = f"edge ({min(u, v)}, {max(u, v)})"
                if w < 1:
                    raise ValueError(f"{edge} has non-positive weight {w}")
                raise ValueError(f"{edge} has a weight too large for a float")
            entry = entry_of(u)
            if entry is None:
                entry = adjacency[u] = (u, {})
            u, neighbors = entry
            if v in neighbors:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            entry = entry_of(v)
            if entry is None:
                entry = adjacency[v] = (v, {})
            v, reverse = entry
            neighbors[v] = w
            reverse[u] = w
        ids = tuple(sorted(adjacency))
        offsets = array("q", [0])
        neighbor_ids: list[int] = []
        weights: list[int] = []
        for node in ids:
            _, row = adjacency.pop(node)
            keys = sorted(row)
            neighbor_ids.extend(keys)
            weights.extend(map(row.__getitem__, keys))
            offsets.append(len(neighbor_ids))
        self._ids = ids
        self._index = {node: position for position, node in enumerate(ids)}
        self._offsets = offsets
        self._neighbor_ids = neighbor_ids
        self._weights = weights

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return len(self._neighbor_ids) // 2

    def nodes(self) -> tuple[int, ...]:
        """Node ids in ascending order."""
        return self._ids

    def edges(self) -> Iterator[WeightedEdge]:
        """Each edge once, as u < v, in lexicographic (u, v) order."""
        neighbor_ids, weights, offsets = self._neighbor_ids, self._weights, self._offsets
        for u, start, end in zip(self._ids, offsets, islice(offsets, 1, None)):
            # A row is sorted, so its neighbors above u are its tail.
            start = bisect_right(neighbor_ids, u, start, end)
            for v, w in zip(neighbor_ids[start:end], weights[start:end]):
                yield WeightedEdge(u, v, w)

    def neighbors(self, u: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, weight) pairs of u, sorted by neighbor id; empty for
        unknown nodes."""
        return tuple(zip(*self._row(u)))

    def _row(self, u: int) -> tuple[list[int], list[int]]:
        """u's neighbor ids and weights, in neighbor order; both empty for
        unknown nodes."""
        position = self._index.get(u)
        if position is None:
            return [], []
        start, end = self._offsets[position], self._offsets[position + 1]
        return self._neighbor_ids[start:end], self._weights[start:end]

    def __contains__(self, u: int) -> bool:
        return u in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialNetwork):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._offsets == other._offsets
            and self._neighbor_ids == other._neighbor_ids
            and self._weights == other._weights
        )

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
    # rows[src] is src's {dst: directed total}. Every key is the one int
    # object kept for its user id in interned, taken when the row or the
    # pair is first inserted, so a user's id costs one object however many
    # rows list it.
    rows: dict[int, dict[int, int]] = {}
    interned: dict[int, int] = {}
    intern = interned.setdefault
    row_of = rows.get
    for src, dst, count in records:
        report.records_in += 1
        if src == dst:
            report.dropped_self_mentions += 1
            continue
        if count < 1:
            report.dropped_nonpositive += 1
            continue
        row = row_of(src)
        if row is None:
            row = rows[intern(src, src)] = {}
        total = row.get(dst)
        if total is None:
            row[intern(dst, dst)] = count
        else:
            row[dst] = total + count
    del interned
    report.directed_pairs = sum(map(len, rows.values()))

    network = SocialNetwork.from_edges(_reciprocated(rows))
    report.edges_out = network.num_edges
    report.users_out = network.num_nodes
    return network, report


def _reciprocated(rows: dict[int, dict[int, int]]) -> Iterator[tuple[int, int, int]]:
    """(src, dst, weight) of each reciprocated pair, src < dst, in ascending
    src order. Each row is popped once its edges are out: every later source
    is larger, so no later pair reads it, and the network under construction
    takes its memory."""
    row_of = rows.get
    for src in sorted(rows):
        for dst, outgoing in rows.pop(src).items():
            if src < dst:
                back = row_of(dst)
                if back is not None:
                    incoming = back.get(src)
                    if incoming is not None:
                        yield src, dst, min(outgoing, incoming)


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

NETWORK_COLUMNS = ("u", "v", "weight")


def iter_mention_file(path: str | Path) -> Iterator[tuple[int, int, int]]:
    """Parse a mention TSV; parse failures raise ValueError with path:line."""
    with _tsv.Columns(path, (("src_id", int), ("dst_id", int), ("count", int)), zip) as rows:
        yield from rows


def write_network_file(network: SocialNetwork, fh: TextIO) -> None:
    _tsv.write_header(fh, NETWORK_COLUMNS)
    for edge in network.edges():
        fh.write(f"{edge.u}\t{edge.v}\t{edge.weight}\n")


def read_network_file(path: str | Path) -> SocialNetwork:
    with _tsv.Columns(path, (("node id", int), ("node id", int), ("weight", int)), zip) as rows:
        return SocialNetwork.from_edges(rows)
