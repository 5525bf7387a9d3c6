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
    blank lines. Raises ValueError on an unsupported format declaration or
    on bytes that are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError as exc:
            # The file is decoded in chunks, so the failing line is unknown.
            raise ValueError(f"{path}: {exc}") from None


class Rows:
    """The data rows of one TSV file, as lists of fields.

    Use as `with Rows(path) as rows: for fields in rows: ...`. A ValueError
    raised in the block while a row is current leaves the block as
    `path:line: message`, so parsers and domain types never name the file.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.lineno: int | None = None

    def __enter__(self) -> "Rows":
        return self

    def __iter__(self) -> Iterator[list[str]]:
        # Looked up at call time, so a wrapper patched onto the module sees
        # every row.
        for self.lineno, fields in iter_rows(self.path):
            yield fields
            self.lineno = None

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.lineno is not None and isinstance(exc, ValueError):
            raise ValueError(f"{self.path}:{self.lineno}: {exc}") from None


def parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"bad {what} {value!r}") from None


def parse_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"bad {what} {value!r}") from None


def parse_point(lat: str, lon: str) -> GeoPoint:
    return GeoPoint(parse_float(lat, "latitude"), parse_float(lon, "longitude"))


def require_fields(fields: list[str], n: int) -> None:
    if len(fields) != n:
        raise ValueError(f"expected {n} tab-separated fields, got {len(fields)}")
