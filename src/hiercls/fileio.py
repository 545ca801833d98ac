"""Small shared helpers for byte-stable text artifacts, and the one reader
of the files hiercls writes: ``meta_header`` lines, a header row, rows."""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from itertools import islice
from pathlib import Path

__all__ = ["DataError", "fmt", "meta_header", "read_header", "read_rows",
           "sha16", "write_text"]


class DataError(Exception):
    """Malformed dataset or run file, or an infeasible split."""


def fmt(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def meta_header(meta: dict) -> str:
    """Deterministic ``# key=value`` comment block (sorted keys)."""
    return "".join(f"# {k}={meta[k]}\n" for k in sorted(meta))


def read_header(lines: list[str]) -> tuple[dict[str, str], int]:
    """The ``# key=value`` dict of the blank and ``#`` lines that open
    ``lines``, and the index of the first line after them."""
    meta = {}
    for i, line in enumerate(lines):
        if line and not line.startswith("#"):
            return meta, i
        key, eq, value = line[2:].partition("=")
        if line.startswith("# ") and eq:
            meta[key] = value
    return meta, len(lines)


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
    lines = text.splitlines()
    meta, start = read_header(lines)
    body = ((lineno, line.split(",")) for lineno, line
            in enumerate(islice(lines, start, None), start + 1)
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


def sha16(payload: str | bytes) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def write_text(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")
