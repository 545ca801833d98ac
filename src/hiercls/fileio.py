"""Small shared helpers for byte-stable text artifacts, and the one reader
of the files hiercls writes: ``meta_header`` lines, a header row, rows."""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from pathlib import Path

__all__ = ["DataError", "float_or_nan", "fmt", "meta_header", "read_header",
           "read_rows", "sha16", "write_text"]


class DataError(Exception):
    """Malformed dataset or run file, or an infeasible split."""


def fmt(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def float_or_nan(text: str) -> float:
    """``float(text)``, or NaN for text that is no number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def meta_header(meta: dict) -> str:
    """Deterministic ``# key=value`` comment block (sorted keys)."""
    return "".join(f"# {k}={meta[k]}\n" for k in sorted(meta))


# About how many characters of a text ``_lines`` splits, and ``sha16``
# encodes, at a time.
_CHUNK = 1 << 16


def read_header(lines: Iterable[str]) -> tuple[dict[str, str], int]:
    """The ``# key=value`` dict of the blank and ``#`` lines that open
    ``lines``, and the index of the first line after them."""
    meta, count = {}, 0
    for count, line in enumerate(lines, 1):
        if line and not line.startswith("#"):
            return meta, count - 1
        key, eq, value = line[2:].partition("=")
        if line.startswith("# ") and eq:
            meta[key] = value
    return meta, count


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split one chunk of about
    ``_CHUNK`` characters at a time. Each chunk but the last ends just after
    a ``"\n"``, where every line ends (a ``"\r\n"`` stays whole)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def read_rows(text: str, source: str,
              header: list[str] | Callable[[int], list[str]] | None = None,
              ints: tuple[int, ...] = (), need_rows: bool = False
              ) -> tuple[dict[str, str], Iterator[tuple[int, list]]]:
    """The ``read_header`` dict of ``text``, and an iterator that reads its
    ``(line number, cells)`` one row at a time, the header row first,
    skipping blank and ``#`` lines. ``header`` is the expected header row,
    or a function of its width that gives it; the rows' ``ints`` columns
    are read as integers. No header row, another header, a row of another
    width, a bad integer or, with ``need_rows``, no row after the header
    raises ``DataError`` naming ``source`` (option or key, file) and line."""
    meta, start = read_header(_lines(text))
    body = ((lineno, line.split(",")) for lineno, line
            in enumerate(islice(_lines(text), start, None), start + 1)
            if line and not line.startswith("#"))
    header_no, names = next(body, (None, None))
    if names is None:
        raise DataError(f"{source}: no header row")
    expected = header(len(names)) if callable(header) else header
    if expected not in (None, names):
        raise DataError(f"{source} line {header_no}: expected header "
                        f"{','.join(expected)!r}")

    def rows():
        yield header_no, names
        lineno = header_no
        for lineno, cells in body:
            if len(cells) != len(names):
                raise DataError(f"{source} line {lineno}: {len(cells)} cells, "
                                f"but the header has {len(names)}")
            for col in ints:
                try:
                    cells[col] = int(cells[col])
                except ValueError:
                    raise DataError(f"{source} line {lineno}: {cells[col]!r} "
                                    "is not an integer") from None
            yield lineno, cells
        if need_rows and lineno == header_no:
            raise DataError(f"{source} line {header_no}: no rows after the header")

    return meta, rows()


def sha16(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text`` in UTF-8, encoded
    one slice at a time."""
    digest = hashlib.sha256()
    for start in range(0, len(text), _CHUNK):
        digest.update(text[start:start + _CHUNK].encode("utf-8"))
    return digest.hexdigest()[:16]


def write_text(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")
