"""Shared helpers for the tab-separated file formats, and the atomic writer
every output file goes through.

Files are UTF-8; `#`-prefixed lines are comments. Writers stamp a
`# format: v1` header and readers reject files declaring any other version.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .geodesy import GeoPoint

FORMAT_VERSION = 1

_FORMAT_RE = re.compile(r"#\s*format:\s*v(\d+)\s*$")


def write_header(fh: TextIO, columns: Sequence[str]) -> None:
    fh.write(f"# format: v{FORMAT_VERSION}\n")
    fh.write("# " + "\t".join(columns) + "\n")


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open path for writing UTF-8 text that replaces it whole or not at all.

    The text goes to a temporary file in the same directory, which replaces
    path (os.replace) when the block ends. If the block raises, the temporary
    file is removed and path keeps its previous bytes. There is no fsync:
    this guards against a failed or killed writer, not against power loss.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            # The handle carries its destination's name, as open(path)'s would.
            fh.buffer.raw.name = path
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
            raise ValueError(_undecodable(path, exc)) from None


def _undecodable(path: str | Path, exc: UnicodeDecodeError) -> str:
    """`path:line: ... at byte N` for the file's first byte that is not UTF-8.

    The text layer decodes in chunks, so exc's position counts from the start
    of a chunk; a binary pass finds the line and the offset in the file. No
    multi-byte sequence contains a newline byte, so decoding line by line
    fails where decoding the whole file does.
    """
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                return (
                    f"{path}:{lineno}: 'utf-8' codec can't decode byte "
                    f"0x{raw[err.start]:02x} at byte {offset + err.start}: {err.reason}"
                )
            offset += len(raw)
    return f"{path}: {exc}"  # the file changed since it was read


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
