import pytest

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
        (read_gps_events_file, "1\t48.85\t2.35\tnan", "timestamp must be finite, got nan"),
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
