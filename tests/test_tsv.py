import random
from typing import Callable, NamedTuple

import pytest

import oracles
from tvgeo import _tsv
from tvgeo._tsv import atomic_write
from tvgeo.evaluation import CityTable, read_truth_file
from tvgeo.graph import iter_mention_file, read_network_file
from tvgeo.ground_truth import (
    Gazetteer,
    read_gps_events_file,
    read_profile_claims_file,
    read_seeds_file,
)
from tvgeo.solver import read_estimates_file

OUT_OF_RANGE = "latitude 91.0 outside [-90, 90]"


@pytest.mark.parametrize(
    "reader, row, message",
    [
        (CityTable.from_tsv, "Paris\t91.0\t2.35\t100000", OUT_OF_RANGE),
        (read_truth_file, "1\t91.0\t2.35", OUT_OF_RANGE),
        (Gazetteer.from_tsv, "paris\t91.0\t2.35", OUT_OF_RANGE),
        (read_gps_events_file, "1\t91.0\t2.35\t1700000000.0", OUT_OF_RANGE),
        (read_seeds_file, "1\t91.0\t2.35\tgps\t0.0", OUT_OF_RANGE),
        (read_seeds_file, "1\t48.85\t2.35\toracle\t0.0", "unknown seed source 'oracle'"),
        (read_estimates_file, "1\t91.0\t2.35\t0.0\tseed\t0", OUT_OF_RANGE),
        (
            read_estimates_file,
            "2\t48.85\t2.35\tnan\tseed\t4",
            "seed row with first_located_iteration 4, expected 0",
        ),
        (
            read_estimates_file,
            "1\t48.85\t2.35\t0.0\tinferred\t-3",
            "inferred row with first_located_iteration -3, expected >= 1",
        ),
        (
            read_estimates_file,
            "1\t48.85\t2.35\t-5\tinferred\t1",
            "dispersion_km must be NaN or finite and >= 0, got -5.0",
        ),
        (
            read_estimates_file,
            "1\t48.85\t2.35\tinf\tinferred\t1",
            "dispersion_km must be NaN or finite and >= 0, got inf",
        ),
        (
            read_estimates_file,
            "1\t48.85\t2.35\t-inf\tseed\t0",
            "dispersion_km must be NaN or finite and >= 0, got -inf",
        ),
        (read_gps_events_file, "1\t48.85\t2.35\tnan", "timestamp must be finite, got nan"),
        # Two faults: the field that does not convert is named, before the
        # latitude's range or the dispersion's sign is checked.
        (read_gps_events_file, "1\t91\t2.35\tx", "bad timestamp 'x'"),
        (
            read_estimates_file,
            "1\t48.85\t2.35\t-5\tinferred\tx",
            "bad first_located_iteration 'x'",
        ),
        (read_profile_claims_file, "1\tinf\tParis", "observed_at must be finite, got inf"),
        (CityTable.from_tsv, "Paris\t48.85\t2.35\t-1", "population must be >= 0, got -1"),
        (Gazetteer.from_tsv, " \t48.85\t2.35", "gazetteer entry with empty name"),
        (
            CityTable.from_tsv,
            "Paris\t48.85\t2.35\t100000\nParis\t48.86\t2.35\t100000",
            "duplicate city name 'Paris'",
        ),
        (read_network_file, "1\t2\t1\n3\t3\t1", "self-loop on node 3"),
        (read_network_file, "1\t2\t1\n2\t1\t4", "duplicate edge (1, 2)"),
        (read_network_file, "1\t2\t1\n4\t1\t0", "edge (1, 4) has non-positive weight 0"),
    ],
)
def test_point_errors_carry_path_and_line(tmp_path, reader, row, message):
    text = f"# format: v1\n{row}\n"
    last_line = text.count("\n")  # every case fails on its last row
    path = tmp_path / "rows.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        reader(path)
    assert str(raised.value) == f"{path}:{last_line}: {message}"


def test_undecodable_file_names_the_path(tmp_path):
    path = tmp_path / "seeds.tsv"
    path.write_bytes(b"# format: v1\n1\t48.85\t2.35\tgps\t0.0\n2\tCr\xe9teil\n")
    with pytest.raises(ValueError) as raised:
        read_seeds_file(path)
    assert str(raised.value) == (
        f"{path}:3: 'utf-8' codec can't decode byte 0xe9 at byte 38: invalid continuation byte"
    )
    # Past the text layer's first 8 KB chunk the position is still the file's.
    head = b"# format: v1\n" + b"".join(
        b"%d\t48.85\t2.35\tgps\t0.0\n" % user for user in range(1, 1001)
    )
    assert len(head) > 20_000
    path.write_bytes(head + b"1001\tCr\xe9teil\n")
    with pytest.raises(ValueError) as raised:
        read_seeds_file(path)
    assert str(raised.value) == (
        f"{path}:1002: 'utf-8' codec can't decode byte 0xe9 "
        f"at byte {len(head) + 7}: invalid continuation byte"
    )


@pytest.mark.parametrize(
    "reader, row",
    [
        (CityTable.from_tsv, "Paris\t48.85\t2.35\t100000"),
        (read_truth_file, "1\t48.85\t2.35"),
        (Gazetteer.from_tsv, "paris\t48.85\t2.35"),
        (read_gps_events_file, "1\t48.85\t2.35\t1700000000.0"),
        (read_profile_claims_file, "1\t1700000000.0\tParis"),
        (read_seeds_file, "1\t48.85\t2.35\tgps\t0.0"),
        (read_estimates_file, "1\t48.85\t2.35\t0.0\tseed\t0"),
        (lambda path: list(iter_mention_file(path)), "1\t2\t3"),
        (read_network_file, "1\t2\t3"),
    ],
)
def test_every_reader_rejects_an_unsupported_format_version(tmp_path, reader, row):
    path = tmp_path / "rows.tsv"
    path.write_text(f"# format: v2\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        reader(path)
    assert str(raised.value) == f"{path}:1: unsupported format version v2"


def test_atomic_write_replaces_the_file_whole(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"previous\n")
    with atomic_write(path) as fh:
        assert fh.name == str(path)
        fh.write("new\n")
        assert path.read_bytes() == b"previous\n"  # untouched until the end
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_writer_raising_midway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"previous\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write("partial\n" * 10_000)
            fh.flush()
            raise OSError("disk full")
    assert path.read_bytes() == b"previous\n"
    assert list(tmp_path.iterdir()) == [path]


# --- the chunked readers against the row-loop oracles -------------------------
#
# Each case writes a valid file of 1,050 data rows as the writers write it
# (format line and column header first), puts one odd row at a line, and
# checks that the reader returns what the row-loop oracle returns or raises
# the oracle's ValueError text. The odd row is the first data row, sits
# later in the first chunk, on the first line of the second chunk, or past
# line 1,000.


class Layout(NamedTuple):
    reader: Callable
    oracle: Callable
    kinds: str  # one letter per column: i(nt), f(loat), s(tring)
    row: Callable[[random.Random, int], list[str]]  # the k-th valid row
    duplicate: Callable[[list[str]], list[str]] | None  # a row repeating a key
    lat: int | None  # the latitude column
    canon: Callable = lambda value: value


def _point(rng):
    return [repr(rng.uniform(-89.0, 89.0)), repr(rng.uniform(-179.0, 179.0))]


def _city_name(k):
    return f"City {k}"


LAYOUTS = {
    "mentions": Layout(
        lambda p: list(iter_mention_file(p)),
        lambda p: list(oracles.row_iter_mention_file(p)),
        "iii",
        lambda rng, k: [str(rng.randrange(10**9, 10**10)), str(rng.randrange(10**9, 10**10)),
                        str(rng.choice([1, 1, 2, 5]))],
        None,
        None,
    ),
    "network": Layout(
        read_network_file,
        oracles.row_read_network_file,
        "iii",
        lambda rng, k: [str(10**9 + 2 * k), str(10**9 + 2 * k + 1), str(rng.choice([1, 1, 2, 7]))],
        lambda first: [first[1], first[0], "3"],
        None,
    ),
    "gps": Layout(
        read_gps_events_file,
        oracles.row_read_gps_events_file,
        "ifff",
        lambda rng, k: [str(rng.randrange(10**9, 10**9 + 400)), *_point(rng),
                        repr(1.7e9 + rng.uniform(0.0, 1e7))],
        None,
        1,
    ),
    "seeds": Layout(
        read_seeds_file,
        oracles.row_read_seeds_file,
        "iffsf",
        lambda rng, k: [str(10**9 + k), *_point(rng), rng.choice(["gps", "gazetteer"]),
                        repr(rng.uniform(0.0, 30.0))],
        lambda first: first[:1] + ["1.0", "2.0", "gps", "0.0"],
        1,
    ),
    "truth": Layout(
        read_truth_file,
        oracles.row_read_truth_file,
        "iff",
        lambda rng, k: [str(10**9 + k), *_point(rng)],
        lambda first: first[:1] + ["1.0", "2.0"],
        1,
    ),
    "truth-from-seeds": Layout(
        read_truth_file,
        oracles.row_read_truth_file,
        "iffsf",
        lambda rng, k: [str(10**9 + k), *_point(rng), "gps", repr(rng.uniform(0.0, 30.0))],
        lambda first: first[:1] + ["1.0", "2.0", "gazetteer", "0.0"],
        1,
    ),
    "cities": Layout(
        CityTable.from_tsv,
        oracles.row_city_table,
        "sffi",
        lambda rng, k: [_city_name(k), *_point(rng), str(rng.randrange(0, 10**7))],
        lambda first: first[:1] + ["1.0", "2.0", "5000"],
        1,
    ),
    "gazetteer": Layout(
        Gazetteer.from_tsv,
        oracles.row_gazetteer,
        "sff",
        lambda rng, k: [_city_name(k), *_point(rng)],
        lambda first: [first[0].upper(), "1.0", "2.0"],
        1,
        lambda gazetteer: gazetteer._entries,
    ),
    "estimates": Layout(
        read_estimates_file,
        oracles.row_read_estimates_file,
        "ifffsi",
        lambda rng, k: (
            [str(10**9 + k), *_point(rng), rng.choice([repr(rng.uniform(0.0, 50.0)), "nan"])]
            + rng.choice([["seed", "0"], ["inferred", str(rng.randrange(1, 6))]])
        ),
        lambda first: first[:1] + ["1.0", "2.0", "0.0", "seed", "0"],
        1,
        # NaN dispersions compare unequal, so compare their reprs.
        lambda state: (
            state.iteration,
            [(e.user, e.point, repr(e.dispersion_km), e.source, e.first_located_iteration)
             for e in state.located.values()],
        ),
    ),
}


def _odd_rows(layout: Layout, row: list[str], first: list[str]) -> dict[str, list[str]]:
    """Named lines (several, for a row split in two) to put into a file whose
    first data row is first; row is a valid row not in the file."""
    n = len(layout.kinds)
    ints = [k for k, kind in enumerate(layout.kinds) if kind == "i"]
    floats = [k for k, kind in enumerate(layout.kinds) if kind == "f"]

    def replaced(k, value):
        return "\t".join(row[:k] + [value] + row[k + 1:])

    odd = {
        "too few fields": ["\t".join(row[:-1])],
        "too many fields": ["\t".join(row + ["1"])],
        # As many fields as two rows, but the first holds one of the second's.
        "a field on the wrong row": ["\t".join(row + row[:1]), "\t".join(row[1:])],
        "blank": [""],
        "whitespace": ["   "],
        "tabs only": ["\t" * (n - 1)],
        "spaces and tabs": [" \t" * (n - 1) + " "],
        "comment": ["# a note"],
        "comment with the row's tabs": ["#" + "\t".join(row)],
        "format v2": ["# format: v2"],
        "format v1": ["# format: v1"],
        "crlf": ["\t".join(row) + "\r"],
        "a carriage return splits the row": ["\t".join(row[:1]) + "\r" + "\t".join(row[1:])],
        "non-utf-8 byte": ["\t".join(row[:-1] + [row[-1] + "\udce9"])],
        "row": ["\t".join(row)],
    }
    if ints:
        k = ints[0]
        odd["bad int"] = [replaced(k, row[k] + "x")]
        odd["padded int"] = [replaced(k, f" {row[k]} ")]
        odd["signed int"] = [replaced(k, "+" + row[k])]
        odd["underscored int"] = [replaced(k, row[k][:1] + "_" + row[k][1:])]
        odd["empty int"] = [replaced(k, "")]
    if floats:
        k = floats[-1]
        odd["bad float"] = [replaced(k, "1.5.5")]
        odd["padded float"] = [replaced(k, f" {row[k]} ")]
        odd["float inf"] = [replaced(k, "inf")]
    if layout.lat is not None:
        odd["latitude 91"] = [replaced(layout.lat, "91")]
        odd["latitude nan"] = [replaced(layout.lat, "nan")]
    if layout.duplicate is not None:
        odd["duplicate"] = ["\t".join(layout.duplicate(first))]
    if layout.kinds.startswith("s"):
        odd["blank name"] = [replaced(0, " ")]
    if layout.kinds == "ifffsi":  # estimates
        for value in ("-5", "inf", "-inf", "nan", "-0.0"):
            odd[f"dispersion {value}"] = [replaced(3, value)]
        odd["unknown source"] = [replaced(4, "oracle")]
        odd["seed at iteration 3"] = ["\t".join(row[:4] + ["seed", "3"])]
    return odd


def _chunk_starts(path) -> list[int]:
    """The line number of the first line of each chunk Columns reads."""
    starts, line = [], 1
    with open(path, encoding="utf-8", errors="replace") as fh:
        while lines := fh.readlines(_tsv._CHUNK_BYTES):
            starts.append(line)
            line += len(lines)
    return starts


def _write(path, header: list[str], lines: list[str], end: str = "\n") -> None:
    text = "".join(line + "\n" for line in header + lines)
    if end != "\n":
        text = text[:-1] + end
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _outcome(fn, path, canon):
    try:
        return "value", canon(fn(path))
    except ValueError as exc:
        return "error", str(exc)


def _base(name: str, rows: int = 1050) -> tuple[Layout, list[str], list[list[str]]]:
    layout = LAYOUTS[name]
    rng = random.Random(sum(map(ord, name)))
    data = [layout.row(rng, k) for k in range(rows + 1)]
    header = ["# format: v1", "# " + "\t".join(f"c{k}" for k in range(len(layout.kinds)))]
    return layout, header, data


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_chunked_readers_match_the_row_loop(tmp_path, name):
    layout, header, data = _base(name)
    spare, data = data[-1], data[:-1]
    lines = ["\t".join(row) for row in data]
    path = tmp_path / "rows.tsv"
    _write(path, header, lines)
    starts = _chunk_starts(path)
    assert len(starts) >= 2
    positions = {
        "first data row": len(header) + 1,
        "first chunk": 10,
        "first line of the second chunk": starts[1],
        "past line 1,000": next(line for line in range(1001, 1050) if line not in starts),
    }
    assert layout.canon(layout.reader(path)) == layout.canon(layout.oracle(path))
    mismatches = []
    cases = 0
    for what, odd in _odd_rows(layout, spare, data[0]).items():
        for where, line in positions.items():
            text = lines[: line - len(header) - 1] + odd + lines[line - len(header) - 1:]
            _write(path, header, text)
            cases += 1
            want = _outcome(layout.oracle, path, layout.canon)
            got = _outcome(layout.reader, path, layout.canon)
            if got != want:
                mismatches.append(f"{what} at line {line} ({where}): {got} != {want}")
    # The file-level oddities: CRLF throughout, and no newline after the
    # last line, valid or cut short.
    for what, text, end in [
        ("crlf file", lines, "\r\n"),
        ("no final newline", lines, ""),
        ("short last line, no final newline", lines + ["\t".join(spare[:-1])], ""),
    ]:
        _write(path, header, text, end)
        if end == "\r\n":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        cases += 1
        want = _outcome(layout.oracle, path, layout.canon)
        got = _outcome(layout.reader, path, layout.canon)
        if got != want:
            mismatches.append(f"{what}: {got} != {want}")
    assert not mismatches, f"{len(mismatches)} of {cases} cases differ:\n" + "\n".join(
        m[:300] for m in mismatches
    )


def test_a_bad_row_fails_before_a_later_bad_byte_of_its_chunk(tmp_path):
    # The row loop decodes 8 KB at a time, so it reaches the bad row in the
    # first 8 KB before it decodes the bad byte, which lies in the same chunk.
    layout, header, data = _base("network")
    lines = ["\t".join(row) for row in data]
    lines[10 - len(header) - 1] = "1\tx\t1"
    lines[500 - len(header) - 1] += "\udce9"
    path = tmp_path / "network.tsv"
    _write(path, header, lines)
    assert _chunk_starts(path)[1] > 500
    assert len("".join(line + "\n" for line in header + lines[:497]).encode()) > 8192
    want = f"{path}:10: bad node id 'x'"
    for reader in (read_network_file, oracles.row_read_network_file):
        with pytest.raises(ValueError) as raised:
            reader(path)
        assert str(raised.value) == want


# --- how many rows go through the row loop -------------------------------------


@pytest.fixture
def row_loop_lines(monkeypatch):
    """The line numbers of the rows _tsv's row loop yields while the test
    runs."""
    seen: list[int] = []
    loop = _tsv._rows

    def counted(lines, lineno, path):
        for row in loop(lines, lineno, path):
            seen.append(row[0])
            yield row

    monkeypatch.setattr(_tsv, "_rows", counted)
    return seen


def test_benchmark_network_takes_the_column_path(benchmark_files, row_loop_lines):
    network = read_network_file(benchmark_files["network"])
    assert network.num_edges == 50_000
    assert row_loop_lines == []


@pytest.mark.parametrize("ending", ["\n", "\r\n", "no final newline"])
def test_seed_ingest_mentions_take_the_column_path(tmp_path, row_loop_lines, ending):
    # Written as the seed-ingest benchmark writes its stream: a column
    # header and no format line, ten-digit ids, small counts.
    rng = random.Random(23)
    ids = rng.sample(range(10**9, 10**10), 3000)
    rows = [(*rng.sample(ids, 2), rng.choice([1, 1, 2, 3])) for _ in range(40_000)]
    text = "# src_id\tdst_id\tcount\n" + "".join(f"{s}\t{d}\t{c}\n" for s, d, c in rows)
    if ending == "no final newline":
        text = text[:-1]
    path = tmp_path / "mentions.tsv"
    path.write_bytes(text.replace("\n", ending if ending == "\r\n" else "\n").encode())
    assert list(iter_mention_file(path)) == rows
    assert row_loop_lines == []


def test_a_bad_row_sends_only_its_chunk_through_the_row_loop(tmp_path, row_loop_lines):
    layout, header, data = _base("network", rows=3000)
    lines = ["\t".join(row) for row in data]
    bad = 2500
    lines[bad - len(header) - 1] = "1\tx\t1"
    path = tmp_path / "network.tsv"
    _write(path, header, lines)
    chunk = max(start for start in _chunk_starts(path) if start <= bad)
    assert chunk > 1000
    with pytest.raises(ValueError) as raised:
        read_network_file(path)
    assert str(raised.value) == f"{path}:{bad}: bad node id 'x'"
    assert row_loop_lines == list(range(chunk, bad + 1))


def test_a_valid_odd_chunk_rejoins_the_column_path(tmp_path, row_loop_lines):
    layout, header, data = _base("network", rows=3000)
    lines = ["\t".join(row) for row in data]
    comment = 500
    lines.insert(comment - len(header) - 1, "# a comment inside the data")
    path = tmp_path / "network.tsv"
    _write(path, header, lines)
    starts = _chunk_starts(path)
    k = max(k for k, start in enumerate(starts) if start <= comment)
    network = read_network_file(path)
    rows = [line for line in range(starts[k], starts[k + 1]) if line > 2 and line != comment]
    assert row_loop_lines == rows
    assert network == oracles.row_read_network_file(path)
