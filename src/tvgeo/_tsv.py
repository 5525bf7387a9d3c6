"""Shared helpers for the tab-separated file formats.

Files are UTF-8; `#`-prefixed lines are comments. Writers stamp a
`# format: v1` header and readers reject files declaring any other version.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .geodesy import GeoPoint

FORMAT_VERSION = 1

_FORMAT_RE = re.compile(r"#\s*format:\s*v(\d+)\s*$")


def write_header(fh: TextIO, columns: Sequence[str]) -> None:
    fh.write(f"# format: v{FORMAT_VERSION}\n")
    fh.write("# " + "\t".join(columns) + "\n")


def iter_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for each data row, skipping comments and
    blank lines. Raises ValueError on an unsupported format declaration."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                match = _FORMAT_RE.match(line)
                if match and int(match.group(1)) != FORMAT_VERSION:
                    raise ValueError(
                        f"{path}:{lineno}: unsupported format version v{match.group(1)}"
                    )
                continue
            yield lineno, line.split("\t")


def parse_int(value: str, path: str | Path, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad {what} {value!r}") from None


def parse_float(value: str, path: str | Path, lineno: int, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad {what} {value!r}") from None


def parse_point(lat: str, lon: str, path: str | Path, lineno: int) -> GeoPoint:
    point_lat = parse_float(lat, path, lineno, "latitude")
    point_lon = parse_float(lon, path, lineno, "longitude")
    try:
        return GeoPoint(point_lat, point_lon)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def require_fields(
    fields: list[str], n: int, path: str | Path, lineno: int
) -> None:
    if len(fields) != n:
        raise ValueError(
            f"{path}:{lineno}: expected {n} tab-separated fields, got {len(fields)}"
        )
