"""Each run file's writer beside the reader of what it wrote: for every
file, write -> read -> write gives the same bytes, and every float comes
back bit for bit (``repr`` tells -0.0 from 0.0 and names each float once).
The sweep config that a run's header records and the class list read back
the same way, and a malformed value in either names its file and line. A
taxonomy file rebuilds to its own bytes, and an edits file reads back as
written.
"""

import tempfile
from dataclasses import fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREMES
from hiercls.cli import main
from hiercls.data import DataError
from hiercls.fileio import read_rows, sha16
from hiercls.model import HEADS, CheckpointRecord
from hiercls.sweep import (MEAN_ID_COLUMNS, POINT_ID_COLUMNS, SPLIT_NAMES,
                           SweepConfig, parse_sweep_config, read_classes,
                           read_histogram, read_selected, run_meta, table_lines,
                           write_csv, write_report_csv, write_run_files)
from hiercls.taxonomy import Taxonomy, parse_pairs

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
    _, steps = read_selected(out, "--run", META["taxonomy_hash"])
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
        write_csv(out / name, META, table_lines(id_columns, value))

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


# --- the sweep config, as a run's header records it ------------------------

PATH_KEYS = ("data", "taxonomy", "classes")
SETTING_KEYS = tuple(f.name for f in fields(SweepConfig) if f.name not in PATH_KEYS)
TREE = Taxonomy("R", {"R": ["A", "B"]}, ["A", "B"])


@st.composite
def sweep_configs(draw) -> SweepConfig:
    """A valid config with every setting drawn."""
    loss = draw(st.sampled_from(["ce", "hxe", "soft"]))
    every, discard = draw(st.integers(1, 50)), draw(st.integers(0, 500))
    train, val = draw(st.floats(0.01, 0.49)), draw(st.floats(0.01, 0.49))
    seeds = st.lists(st.integers(0, 10**6), min_size=1, max_size=3, unique=True)
    return SweepConfig(
        loss, "d.csv", "t.tsv", "c.txt",
        grid=None if loss == "ce" else draw(st.lists(FLOATS, min_size=1,
                                                     max_size=3, unique=True)),
        head="class" if loss == "soft" else draw(st.sampled_from(HEADS)),
        taxonomy_source=draw(st.sampled_from(["true", "randomized", "both"])
                             .map(lambda kind: kind if kind == "true"
                                  else f"{kind}:{draw(st.integers(0, 99))}")),
        split=(train, val, 1.0 - train - val),
        split_seed=draw(st.integers(0, 10**6)), seeds=draw(seeds),
        steps=discard + every * draw(st.integers(5, 20)),
        batch_size=draw(st.integers(1, 512)), checkpoint_every=every,
        discard_before=discard,
        lr=draw(st.floats(1e-9, 1e3)),
        ks=tuple(draw(st.lists(st.integers(1, 99), min_size=1, max_size=3,
                               unique=True))),
        eval_split=draw(st.sampled_from(SPLIT_NAMES)),
        hidden_dim=draw(st.none() | st.integers(1, 256)),
        workers=draw(st.integers(0, 8)))


def config_text(meta: dict) -> str:
    """A config document of the settings in ``meta``, then the paths."""
    keys = [k for k in SETTING_KEYS if k in meta]
    return "".join([*(f"{k} = {meta[k]}\n" for k in keys),
                    "data = d.csv\ntaxonomy = t.tsv\nclasses = c.txt\n"])


@settings(max_examples=200, deadline=None)
@given(sweep_configs())
def test_config_meta_text_config_is_identity(cfg):
    meta = run_meta(cfg, TREE, sha16(""), SETTING_KEYS)
    back = parse_sweep_config(config_text(meta))
    assert back == cfg
    assert run_meta(back, TREE, sha16(""), SETTING_KEYS) == meta


def test_malformed_config_value_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("loss = hxe\n# a comment\nsteps = 1e3\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert (f"--config {cfg} line 3: steps: invalid literal for int()"
            in capsys.readouterr().err)


# --- the class list ---------------------------------------------------------

# Ids as ``read_classes`` takes them: no line break, tab or comma, no
# surrounding whitespace, and no leading '#'.
CLASS_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                  blacklist_characters=",\t"),
                    min_size=1, max_size=8).filter(
    lambda s: s == s.strip() and not s.startswith("#"))


@settings(max_examples=100, deadline=None)
@given(st.lists(CLASS_IDS, min_size=1, max_size=6))
def test_class_list_reads_back(ids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "classes.txt")
        path.write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
        assert read_classes(path, "--classes") == ids


def test_malformed_class_id_names_file_and_line(tmp_path):
    path = tmp_path / "classes.txt"
    path.write_text("A\n\n# comment\nB,C\n")
    with pytest.raises(DataError, match="^--classes .*classes.txt line 4: "
                                        "class id 'B,C' contains a comma$"):
        read_classes(path, "--classes")


# --- the taxonomy file and the edits file ----------------------------------

# Node ids as ``parse_pairs`` takes them; a class id also has no comma.
NODE_IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                 blacklist_characters="\t"),
                   min_size=1, max_size=8).filter(
    lambda s: s == s.strip() and not s.startswith("#"))


@st.composite
def trees(draw) -> tuple[str, list[str]]:
    """The edge list of a random tree over free-text ids, its edges in a
    drawn order, and its leaves in a drawn class order."""
    n = draw(st.integers(2, 12))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    ids: list[str] = []
    for i in range(n):
        strategy = NODE_IDS if i in parents else CLASS_IDS
        ids.append(draw(strategy.filter(lambda s: s not in ids)))
    edges = draw(st.permutations([f"{ids[p]}\t{ids[i]}\n"
                                  for i, p in enumerate(parents, start=1)]))
    leaves = [ids[i] for i in range(n) if i not in parents]
    return "".join(edges), draw(st.permutations(leaves))


@settings(max_examples=100, deadline=None)
@given(trees())
def test_tree_file_rebuilds_to_its_bytes(tree):
    edges, classes = tree
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in
                 ("edges.tsv", "classes.txt", "tree.tsv", "again.tsv")}
        paths["edges.tsv"].write_text(edges, encoding="utf-8")
        paths["classes.txt"].write_text("".join(f"{c}\n" for c in classes),
                                        encoding="utf-8")
        for source, out in (("edges.tsv", "tree.tsv"), ("tree.tsv", "again.tsv")):
            assert main(["hierarchy", "build", "--edges", str(paths[source]),
                         "--classes", str(paths["classes.txt"]),
                         "--out", str(paths[out])]) == 0
        assert paths["again.tsv"].read_bytes() == paths["tree.tsv"].read_bytes()
        written = parse_pairs(paths["tree.tsv"].read_text(encoding="utf-8"),
                              "parent<TAB>child")
        assert set(classes) <= {child for _, child in written}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(NODE_IDS, NODE_IDS), max_size=6))
def test_edits_file_reads_back(edits):
    text = "".join(f"{node}\t{parent}\n" for node, parent in edits)
    assert parse_pairs(text, "node<TAB>new_parent", "--edits") == edits
