"""Each run file's writer beside the reader of what it wrote: for every
file, write -> read -> write gives the same bytes, and every float comes
back bit for bit (``repr`` tells -0.0 from 0.0 and names each float once).
"""

import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREMES
from hiercls.fileio import read_rows
from hiercls.model import CheckpointRecord
from hiercls.sweep import (MEAN_ID_COLUMNS, POINT_ID_COLUMNS, read_histogram,
                           read_selected, write_report_csv, write_run_files,
                           write_table_csv)

META = {"taxonomy_hash": "0123abcd", "seed": 3}
FLOATS = st.sampled_from(EXTREMES) | st.floats(allow_nan=False,
                                               allow_infinity=False)
# Id cells as the sweep writes them: no comma, and no leading '#'.
IDS = st.text("abcz019.-_", max_size=6)


@st.composite
def metric_names(draw) -> list[str]:
    """The ``scalars()`` names of a report at some cutoffs."""
    ks = sorted(draw(st.sets(st.integers(1, 99), min_size=1, max_size=3)))
    return [*(f"top{k}_error" for k in ks), "hier_dist_mistake",
            *(f"avg_hier_dist_at_{k}" for k in ks)]


def averages(names):
    """``average_reports`` values: a (mean, half-width) per name, in order."""
    pair = st.tuples(FLOATS, FLOATS)
    return st.tuples(*[pair] * len(names)).map(lambda v: dict(zip(names, v)))


def body(path: Path):
    """The header row and the other rows of a file, by the shared reader."""
    _, rows = read_rows(path.read_text(), str(path))
    header = next(rows)[1]
    return header, [cells for _, cells in rows]


# --- trace.csv, selected.csv and histogram.csv: one writer, three files ----

@st.composite
def run_values(draw):
    """Trace rows ``(step, train_loss, val_loss, scalars)``, the selected
    indices into them and their summed severity histogram."""
    names = draw(metric_names())
    steps = sorted(draw(st.sets(st.integers(0, 10**9), min_size=1, max_size=6)))
    rows = [(step, draw(FLOATS), draw(FLOATS),
             {n: draw(FLOATS) for n in names}) for step in steps]
    selected = sorted(draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
    histogram = draw(st.dictionaries(st.integers(0, 99), st.integers(1, 10**6),
                                     max_size=5))
    return rows, selected, dict(sorted(histogram.items()))


def write_run(out: Path, value) -> None:
    rows, selected, histogram = value
    records = [CheckpointRecord(step, train_loss, val_loss, SimpleNamespace(
        scalars=partial(dict, scalars), severity_histogram={}), params=None)
               for step, train_loss, val_loss, scalars in rows]
    # The histogram file sums the selected reports' histograms.
    records[selected[0]].report.severity_histogram = histogram
    write_run_files(out, META, records, selected)


def read_run(out: Path):
    header, cells = body(out / "trace.csv")
    rows = [(int(c[0]), float(c[1]), float(c[2]),
             {n: float(v) for n, v in zip(header[3:], c[3:])}) for c in cells]
    _, steps = read_selected(out, "--run")
    selected = [[row[0] for row in rows].index(step) for step in steps]
    _, counts = read_histogram(out / "histogram.csv", "--histogram")
    return rows, selected, dict(counts)


# --- report.csv ------------------------------------------------------------

REPORT_NAMES = {"top_k_error": "top{}_error",
                "avg_hier_dist_topk": "avg_hier_dist_at_{}"}


def write_report(out: Path, value) -> None:
    write_report_csv(out / "report.csv", META, value)


def read_report(out: Path):
    header, cells = body(out / "report.csv")
    assert header == ["metric", "k", "mean", "half_width"]
    return {REPORT_NAMES.get(metric, metric).format(k): (float(m), float(h))
            for metric, k, m, h in cells}


# --- tradeoff.csv and tradeoff_mean.csv: one table writer ------------------

def table_values(id_columns):
    return metric_names().flatmap(lambda names: st.lists(st.tuples(
        st.tuples(*[IDS] * len(id_columns)), averages(names)), min_size=1,
        max_size=4))


def table_format(name, id_columns):
    def write(out: Path, value) -> None:
        write_table_csv(out / name, META, id_columns, value)

    def read(out: Path):
        header, cells = body(out / name)
        n = len(id_columns)
        assert tuple(header[:n]) == id_columns
        assert header[n + 1::2] == [c + "_hw" for c in header[n::2]]
        return [(tuple(c[:n]), {col: (float(m), float(h)) for col, m, h
                                in zip(header[n::2], c[n::2], c[n + 1::2])})
                for c in cells]

    return (name,), write, read, table_values(id_columns)


# Each run-file writer: the files it writes, the writer, the reader of those
# files, and the values hypothesis draws for it.
FORMATS = {
    "trace_selected_histogram": (
        ("trace.csv", "selected.csv", "histogram.csv"), write_run, read_run,
        run_values()),
    "report": (("report.csv",), write_report, read_report, metric_names().map(
        lambda names: names + ["mistake_count", "num_examples"]).flatmap(
            averages)),
    "tradeoff": table_format("tradeoff.csv", POINT_ID_COLUMNS),
    "tradeoff_mean": table_format("tradeoff_mean.csv", MEAN_ID_COLUMNS),
}


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_write_read_write_is_identity(name, data):
    files, write, read, values = FORMATS[name]
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        write(first, value)
        again = read(first)
        assert repr(again) == repr(value)
        write(second, again)
        for file in files:
            assert (second / file).read_bytes() == (first / file).read_bytes()
