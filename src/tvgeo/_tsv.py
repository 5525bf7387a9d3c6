"""Shared helpers for the tab-separated file formats, the one CSV report
writer, and the atomic writer every output file goes through.

Files are UTF-8; `#`-prefixed lines are comments. Writers stamp a
`# format: v1` header and readers reject files declaring any other version.

Two readers share one row loop (_rows). Rows yields the fields of each data
row of any file. Columns reads a fixed-width file about _CHUNK_BYTES of
lines at a time and converts a chunk whose lines are all plain data rows a
column at a time; any other chunk goes through the row loop, one row at a
time, so every error message comes from the row path.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from itertools import chain, dropwhile
from operator import attrgetter, length_hint
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

FORMAT_VERSION = 1

_FORMAT_RE = re.compile(r"#\s*format:\s*v(\d+)\s*$")

# About 16 KB of lines per chunk, ~1,000 rows of a network file. Larger chunks
# raise a read's transient peak (see tests/test_graph.py TestNetworkMemory).
_CHUNK_BYTES = 16384

# A point's two columns for Columns, named as their messages name them.
POINT_COLUMNS = (("latitude", float), ("longitude", float))


def write_header(fh: TextIO, columns: Sequence[str]) -> None:
    fh.write(f"# format: v{FORMAT_VERSION}\n")
    fh.write("# " + "\t".join(columns) + "\n")


def write_csv(fh: TextIO, columns: Sequence[str], rows: Iterable[Any]) -> None:
    """Write a header of attribute names, then each row's attributes: a
    value's repr, or an empty cell for None."""
    fh.write(",".join(columns) + "\n")
    cells = attrgetter(*columns) if len(columns) > 1 else lambda row: (getattr(row, columns[0]),)
    for row in rows:
        fh.write(",".join(["" if cell is None else repr(cell) for cell in cells(row)]) + "\n")


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
            yield from _rows(fh, 1, path)
        except UnicodeDecodeError as exc:
            raise ValueError(_undecodable(path, exc)) from None


def _rows(lines: Iterable[str], lineno: int, path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The row loop: (line_number, fields) of each data row of lines, the
    first of which is line lineno of path."""
    for lineno, raw in enumerate(lines, lineno):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            _check_comment(line, lineno, path)
            continue
        yield lineno, line.split("\t")


def _check_comment(line: str, lineno: int, path: str | Path) -> None:
    match = _FORMAT_RE.match(line)
    if match and int(match.group(1)) != FORMAT_VERSION:
        raise ValueError(f"{path}:{lineno}: unsupported format version v{match.group(1)}")


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
        # iter_rows is looked up at call time, so a wrapper patched onto the
        # module sees every row.
        return self._track(iter_rows(self.path))

    def _track(self, rows: Iterable[tuple[int, list[str]]]) -> Iterator[list[str]]:
        """The fields of rows, with lineno naming the row being handled."""
        for self.lineno, fields in rows:
            yield fields
            self.lineno = None

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.lineno is not None and isinstance(exc, ValueError):
            raise ValueError(f"{self.path}:{self.lineno}: {exc}") from None


class Columns(Rows):
    """The records of one fixed-width TSV file, its format given once.

    Use as `with Columns(path, columns, records) as rows: ...`; a ValueError
    raised in the block names the current row's line, as for Rows. columns
    holds a (name, convert) pair per field: convert is int, float or str.
    records(*columns) is the format's one record builder: from the converted
    columns of some rows it returns their records in order (zip for tuples,
    or map over a record type), and raises a messaged ValueError for a bad
    value.

    The file is read about _CHUNK_BYTES of lines at a time. Comment lines at
    the head of a chunk (the file's header block) are checked as the row loop
    checks them. When every other line of the chunk has len(columns) - 1
    tabs, and none is a comment, the chunk is split once, each column is
    converted by map(convert, ...), and records(*columns) makes the chunk's
    records. Any other chunk, or one whose conversion or records raises, goes
    through the row loop: per row, the field count is checked, each field is
    converted in column order (`bad <name> <value!r>`), and records is called
    with one-row columns. So a row's message names its first field that does
    not convert, and otherwise comes from records.

    A blank line of len(columns) - 1 tabs reaches the column path; int and
    float reject its fields, so columns must hold at least one of them.
    """

    def __init__(
        self,
        path: str | Path,
        columns: Sequence[tuple[str, Callable[[str], Any]]],
        records: Callable[..., Iterable[Any]],
    ):
        super().__init__(path)
        self.columns = tuple(columns)
        self.records = records
        # The iterator over the records of the chunk being yielded, and the
        # line of the chunk's last record.
        self._chunk: Iterator[Any] | None = None
        self._last = 0

    def __iter__(self) -> Iterator[Any]:
        # The rows pass through chain and the chunk's iterator, both in C;
        # _chunks runs once per chunk.
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[Iterator[Any]]:
        """An iterator over the records of each chunk, in file order."""
        path = self.path
        start = 1  # the line number of the chunk's first line
        with open(path, encoding="utf-8") as fh:
            while True:
                try:
                    lines = fh.readlines(_CHUNK_BYTES)
                except UnicodeDecodeError:
                    # The row path reads on from the chunk's first line and
                    # fails where it always fails.
                    rows = dropwhile(lambda row: row[0] < start, iter_rows(path))
                    yield map(self._record, self._track(rows))
                    return
                if not lines:
                    return
                head = 0
                while head < len(lines) and lines[head].startswith("#"):
                    _check_comment(lines[head].rstrip("\r\n"), start + head, path)
                    head += 1
                records = self._convert(lines[head:])
                if records is None:
                    yield map(self._record, self._track(_rows(lines, start, path)))
                else:
                    self._last = start + head + len(records) - 1
                    self._chunk = iter(records)
                    yield self._chunk
                    self._chunk = None
                start += len(lines)

    def _convert(self, data: list[str]) -> list | None:
        """The records of data lines, converted a column at a time; None when
        they need the row loop."""
        if not data:
            return []
        if not data[-1].endswith("\n"):
            data[-1] += "\n"  # the file's last line
        n = len(self.columns)
        text = "\t".join(data)
        tokens = text.split("\t")
        if len(tokens) != n * len(data) or "\n\t#" in text:
            return None
        # Every line ends in the one newline of its text, so the lines hold
        # n fields each exactly when the last column holds every newline.
        last = "".join(tokens[n - 1 :: n]).split("\n")
        if len(last) != len(data) + 1:
            return None
        del last[-1]
        columns = [tokens[k::n] for k in range(n - 1)] + [last]
        del text, tokens, last  # each numeric column's text goes once converted
        try:
            for k, (_, convert) in enumerate(self.columns):
                if convert is not str:
                    columns[k] = list(map(convert, columns[k]))
            return list(self.records(*columns))
        except ValueError:
            return None

    def _record(self, fields: list[str]) -> Any:
        """The record of one row of the row loop."""
        require_fields(fields, len(self.columns))
        values = []
        for (name, convert), value in zip(self.columns, fields):
            try:
                values.append((convert(value),))
            except ValueError:
                raise ValueError(f"bad {name} {value!r}") from None
        [record] = self.records(*values)
        return record

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.lineno is None and self._chunk is not None:
            # The current record is the last one the chunk's iterator gave.
            self.lineno = self._last - length_hint(self._chunk)
        super().__exit__(exc_type, exc, tb)


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


def require_fields(fields: list[str], n: int) -> None:
    if len(fields) != n:
        raise ValueError(f"expected {n} tab-separated fields, got {len(fields)}")
