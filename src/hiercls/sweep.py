"""Grid sweeps over the loss hyperparameter, with optional paired runs on a
label-randomized taxonomy, emitting tradeoff tables and per-point severity
histograms as CSV.

Each sweep point is an isolated deterministic job (train, select
checkpoints, average their reports); points run in a worker pool and the
merge is single-threaded, so results do not depend on pool size. A point
whose inputs or numerics fail is recorded and skipped rather than aborting
the grid.

The ``train`` and ``evaluate`` commands share this module's run settings,
input loader, ``run_point`` pipeline and run files: each file's layout is
spelled once here, its writer beside its reader.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, SplitSpec, dataset_from_csv, split
from .fileio import fmt, meta_header, read_rows, sha16, write_text
from .metrics import MetricReport
from .model import (HEADS, LOSS_PARAMETERS, AdamOptimizer, CheckpointRecord,
                    SettingError, TrainingDivergedError, TrainSchedule,
                    build_objective, init_model, select_checkpoints, train)
from .taxonomy import Taxonomy, load_taxonomy, randomize_leaves

__all__ = ["SweepConfig", "RUN_SETTINGS", "parse_sweep_config", "run_sweep",
           "run_point", "run_meta", "load_inputs", "DEFAULT_ALPHA_GRID",
           "DEFAULT_BETA_GRID"]

DEFAULT_ALPHA_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
DEFAULT_BETA_GRID = [4.0, 5.0, 10.0, 15.0, 20.0, 30.0]
SPLIT_NAMES = ("train", "val", "test")


# The settings of every run; ``train`` takes them as flags (``--batch-size``).
RUN_SETTINGS = ("head", "hidden_dim", "steps", "batch_size", "checkpoint_every",
                "discard_before", "lr", "split", "split_seed", "ks", "eval_split")


@dataclass
class SweepConfig:
    """A run's settings, each defined once: its default here, its text
    converter in ``_CONVERTERS`` and its check in ``__post_init__``. A sweep
    trains a model per (taxonomy variant, ``grid`` value, seed)."""

    loss: str
    data: str
    taxonomy: str
    classes: str
    grid: list | None = None
    head: str = "class"
    taxonomy_source: str = "true"
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    split_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0])
    steps: int = 20_000
    batch_size: int = 64
    checkpoint_every: int = 500
    discard_before: int = 5_000
    lr: float = 1e-5
    ks: tuple[int, ...] = (1, 5, 20)
    eval_split: str = "val"
    hidden_dim: int | None = None
    workers: int = 0

    def __post_init__(self):
        if self.grid is None:
            self.grid = {"hxe": DEFAULT_ALPHA_GRID,
                         "soft": DEFAULT_BETA_GRID}.get(self.loss, [None])[:]
        # Every point builds these; building them first rejects a bad
        # schedule or learning rate before any point runs, and before the
        # checks below divide by checkpoint_every.
        TrainSchedule(self.steps, self.batch_size, self.checkpoint_every, seed=0)
        AdamOptimizer(self.lr)
        kept = (self.steps // self.checkpoint_every
                - min(self.discard_before, self.steps) // self.checkpoint_every)
        kind, _, seed = self.taxonomy_source.partition(":")
        # Grid values are checked per point: a bad one fails only its point.
        for key, ok, message in (
                ("loss", self.loss in LOSS_PARAMETERS,
                 f"loss must be one of {tuple(LOSS_PARAMETERS)}"),
                ("grid", bool(self.grid), "grid must list at least one value"),
                ("grid", self.loss != "ce" or self.grid == [None],
                 "loss ce takes no grid"),
                ("grid", len(set(self.grid)) == len(self.grid),
                 "grid must not repeat a value"),
                ("head", self.head in HEADS, f"head must be one of {HEADS}"),
                ("head", self.loss != "soft" or self.head == "class",
                 "loss = soft requires head = class"),
                ("taxonomy_source", self.taxonomy_source == "true"
                 or kind in ("randomized", "both") and seed.isdecimal(),
                 "taxonomy_source must be 'true', 'randomized:<seed>' or "
                 "'both:<seed>'"),
                ("seeds", bool(self.seeds), "seeds must list at least one seed"),
                ("seeds", min(self.seeds, default=0) >= 0, "seeds must be >= 0"),
                ("seeds", len(set(self.seeds)) == len(self.seeds),
                 "seeds must not repeat a seed"),
                ("split_seed", self.split_seed >= 0, "split_seed must be >= 0"),
                ("ks", len(set(self.ks)) == len(self.ks),
                 "ks must not repeat a cutoff"),
                ("hidden_dim", self.hidden_dim is None or self.hidden_dim >= 1,
                 "hidden_dim must be >= 1"),
                ("discard_before", self.discard_before >= 0,
                 "discard_before must be >= 0"),
                ("discard_before", kept >= 5, "discard_before must leave the 5 "
                 f"checkpoints that selection needs, but steps={self.steps} and "
                 f"checkpoint_every={self.checkpoint_every} leave {kept}"),
                ("eval_split", self.eval_split in SPLIT_NAMES,
                 f"eval_split must be one of {SPLIT_NAMES}"),
                ("workers", self.workers >= 0, "workers must be >= 0")):
            if not ok:
                raise SettingError(key, f"{message}, got {getattr(self, key)!r}")
        try:
            SplitSpec(self.split, self.split_seed)
        except DataError as exc:
            raise SettingError("split", str(exc)) from None


# ---------------------------------------------------------------------------
# Input values and files (shared with the CLI)
# ---------------------------------------------------------------------------


def parse_split(text: str) -> tuple[float, float, float]:
    """``train,val,test`` split probabilities."""
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"needs three comma-separated values, got {text!r}")
    return parts[0], parts[1], parts[2]


def parse_ks(text: str) -> tuple[int, ...]:
    """Comma-separated top-k cutoffs; ``load_inputs`` bounds them."""
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"needs comma-separated integers, got {text!r}") from None


# Config key -> value parser, then the numeric flags of ``gen-data`` and
# ``hierarchy randomize``; keys not listed keep their text.
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "grid": lambda text: [float(v) for v in text.split(",") if v],
    "seeds": lambda text: [int(v) for v in text.split(",") if v],
    "split": parse_split, "ks": parse_ks, "lr": float,
    **dict.fromkeys(("split_seed", "steps", "batch_size", "checkpoint_every",
                     "discard_before", "hidden_dim", "workers"), int),
    **dict.fromkeys(("per_class", "dim", "seed"), int),
    **dict.fromkeys(("step_scale", "noise_scale", "level_decay"), float),
}


def read_setting(key: str, text: str, name: str):
    """The value of config key ``key`` written as ``text``; a
    ``ValueError`` is re-raised naming ``name`` (the option, or the config
    line and key)."""
    try:
        return _CONVERTERS.get(key, str)(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def setting_text(value) -> str:
    """A config value as ``read_setting`` reads it back: a list or tuple
    comma-separated, floats in round-trip form."""
    if isinstance(value, (list, tuple)):
        return ",".join(setting_text(v) for v in value)
    return fmt(value) if isinstance(value, float) else str(value)


def parse_sweep_config(text: str, base_dir: str | Path = ".",
                       source: str = "config") -> SweepConfig:
    """Parse a ``key = value`` config document; paths resolve against
    ``base_dir``. A bad value's error names ``source`` (the option and the
    file), its line and key."""
    known = {f.name for f in fields(SweepConfig)}
    kwargs: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source} line {lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{where}: key {key!r} is already "
                             f"set on line {lines[key]}")
        lines[key] = lineno
        kwargs[key] = read_setting(key, val, f"{where}: {key}")
    for key in ("loss", "data", "taxonomy", "classes"):
        if key not in kwargs:
            raise ValueError(f"sweep config is missing the {key!r} key")
        if key != "loss":
            kwargs[key] = str(Path(base_dir) / kwargs[key])
    return SweepConfig(**kwargs)


def read_input(path: str | Path, name: str) -> str:
    """Text of an input file; ``name`` (its option or key) is in errors,
    and for a file that is not UTF-8, the offset of its first bad byte."""
    if not Path(path).exists():
        raise DataError(f"{name}: file not found: {path}")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{name} {path}: byte {exc.start} is not UTF-8 "
                        f"({exc.reason})") from None


def read_classes(path: str | Path, name: str) -> list[str]:
    """Class ids, one a line, taken verbatim; blank lines and ``#`` comments
    are skipped. Surrounding whitespace, a tab (no edge-list node has one)
    or a comma (no dataset label has one) is rejected."""
    classes = []
    for lineno, line in enumerate(read_input(path, name).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        problem = ("has surrounding whitespace" if line != line.strip()
                   else "contains a tab" if "\t" in line
                   else "contains a comma" if "," in line else None)
        if problem:
            raise DataError(f"{name} {path} line {lineno}: class id {line!r} "
                            + problem)
        classes.append(line)
    if not classes:
        raise DataError(f"{name}: no class ids in {path}")
    return classes


def load_tax(taxonomy: str, classes: str, prefix: str = "--") -> Taxonomy:
    """The taxonomy file pruned to the class list; ``prefix`` + key names
    the option (``--taxonomy``) or config key (``taxonomy``) in errors."""
    return load_taxonomy(read_input(taxonomy, prefix + "taxonomy"),
                         read_classes(classes, prefix + "classes"),
                         f"{prefix}taxonomy {taxonomy}",
                         f"{prefix}classes {classes}")


def load_inputs(cfg: SweepConfig, prefix: str = "--"
                ) -> tuple[Taxonomy, str, tuple[Dataset, Dataset, Dataset]]:
    """Load a run's taxonomy and dataset and split the dataset.

    Rejects ``ks`` cutoffs outside 1 to the number of classes, then a
    dataset whose ``taxonomy_hash`` header names another taxonomy. Returns
    the taxonomy, the data's ``sha16`` and its (train, val, test) split.
    """
    tax = load_tax(cfg.taxonomy, cfg.classes, prefix)
    if not cfg.ks or min(cfg.ks) < 1 or max(cfg.ks) > tax.num_leaves:
        raise ValueError(f"{prefix}ks: needs cutoffs from 1 to the "
                         f"{tax.num_leaves} classes, got {list(cfg.ks)}")
    text = read_input(cfg.data, prefix + "data")
    source = f"{prefix}data {cfg.data}"
    meta, _ = read_rows(text, source)  # the header lines alone
    embedded = meta.get("taxonomy_hash", tax.hash_hex()).strip()
    if embedded != tax.hash_hex():
        raise DataError(f"{source}: dataset taxonomy hash {embedded} does not "
                        f"match {prefix}taxonomy hash {tax.hash_hex()}")
    parts = split(dataset_from_csv(text, tax, source),
                  SplitSpec(cfg.split, cfg.split_seed))
    return tax, sha16(text), parts


# ---------------------------------------------------------------------------
# Run files (shared with the CLI)
# ---------------------------------------------------------------------------

_SELECTED_CSV, _SELECTED_HEADER = "selected.csv", "trace_index,step"
_HISTOGRAM_HEADER = "height,count"
# The values ``report.csv`` has after the ``scalars()`` names; the tradeoff
# tables leave them out.
_COUNTS = ("mistake_count", "num_examples")
# The id columns of ``tradeoff.csv`` and ``tradeoff_mean.csv``; each
# metric column after them has its half-width ``<metric>_hw`` beside it.
POINT_ID_COLUMNS = ("method", "head", "parameter", "taxonomy", "seed")
MEAN_ID_COLUMNS = POINT_ID_COLUMNS[:-1] + ("num_seeds",)


def write_csv(path: str | Path, meta: dict, lines: list[str]) -> None:
    write_text(path, meta_header(meta) + "\n".join(lines) + "\n")


def checkpoint_path(run: str | Path, step: int) -> Path:
    """The checkpoint file of step ``step`` in run directory ``run``."""
    return Path(run) / "checkpoints" / f"step_{step:06d}.txt"


def mean_half_width(values) -> tuple[float, float]:
    """The mean of ``values`` and its normal-approximation 95% half-width,
    1.96 * sample std / sqrt(n) (0 for a single value)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float(values.mean()), 0.0
    return (float(values.mean()),
            float(1.96 * values.std(ddof=1) / np.sqrt(values.size)))


def average_reports(reports: list[MetricReport]) -> dict[str, tuple[float, float]]:
    """``mean_half_width`` of each ``report.csv`` value over ``reports``, in
    file order: each ``scalars()`` name, then ``mistake_count`` and
    ``num_examples``."""
    series = [{**r.scalars(), **{c: getattr(r, c) for c in _COUNTS}}
              for r in reports]
    return {name: mean_half_width([s[name] for s in series])
            for name in series[0]}


def write_report_csv(path: str | Path, meta: dict, averages: dict) -> None:
    """``report.csv``: a ``metric,k,mean,half_width`` row per
    ``average_reports`` value; a per-cutoff name is written as its metric
    and cutoff (``top5_error`` as ``top_k_error,5``)."""
    lines = ["metric,k,mean,half_width"]
    for name, (mean, half) in averages.items():
        if name.startswith("top") and name.endswith("_error"):
            metric, k = "top_k_error", name[3:-6]
        elif name.startswith("avg_hier_dist_at_"):
            metric, k = "avg_hier_dist_topk", name.rsplit("_", 1)[1]
        else:
            metric, k = name, ""
        lines.append(f"{metric},{k},{fmt(mean)},{fmt(half)}")
    write_csv(path, meta, lines)


def table_lines(id_columns: tuple[str, ...],
                rows: list[tuple[tuple[str, ...], dict]]) -> list[str]:
    """A tradeoff table: per ``(id cells, average_reports values)`` row, the
    id cells, then each ``scalars()`` mean and half-width."""
    cols = [c for c in rows[0][1] if c not in _COUNTS]
    lines = [",".join([*id_columns, *(f"{c},{c}_hw" for c in cols)])]
    return lines + [",".join([*ids, *(fmt(x) for c in cols for x in averages[c])])
                    for ids, averages in rows]


def write_histogram_csv(path: str | Path, meta: dict,
                        reports: list[MetricReport]) -> None:
    """The severity histogram summed over ``reports``, in height order."""
    hist = sum((Counter(r.severity_histogram) for r in reports), Counter())
    write_csv(path, meta, [_HISTOGRAM_HEADER]
              + [f"{h},{c}" for h, c in sorted(hist.items())])


def read_histogram(path: str | Path, name: str
                   ) -> tuple[dict[str, str], list[tuple[int, int]]]:
    """The header dict and ``(height, count)`` rows of a histogram file; a
    height or count that is not an integer >= 0, or a height already given,
    raises ``DataError`` naming ``name`` (its option), the file and the
    line."""
    source = f"{name} {path}"
    meta, rows = read_rows(read_input(path, name), source,
                           _HISTOGRAM_HEADER.split(","), ints=(0, 1))
    next(rows)  # the header row
    counts = {}
    for lineno, (height, count) in rows:
        if min(height, count) < 0:
            raise DataError(f"{source} line {lineno}: height and count must be "
                            f">= 0, got {height},{count}")
        if height in counts:
            raise DataError(f"{source} line {lineno}: height {height} is "
                            "already given")
        counts[height] = count
    return meta, list(counts.items())


def write_run_files(out: Path, meta: dict, records: list[CheckpointRecord],
                    selected: list[int]) -> None:
    """A run's ``trace.csv`` (``step,train_loss,val_loss`` and the report's
    ``scalars()`` per checkpoint), ``selected.csv`` (the trace index and
    step of each ``selected`` checkpoint) and ``histogram.csv`` (summed over
    the selected reports), each under the same metadata header."""
    names = list(records[0].report.scalars())
    trace = [",".join(["step", "train_loss", "val_loss", *names])]
    for r in records:
        scalars = r.report.scalars()
        trace.append(",".join([str(r.step), fmt(r.train_loss), fmt(r.val_loss),
                               *(fmt(scalars[n]) for n in names)]))
    write_csv(out / "trace.csv", meta, trace)
    write_csv(out / _SELECTED_CSV, meta, [_SELECTED_HEADER]
              + [f"{i},{records[i].step}" for i in selected])
    write_histogram_csv(out / "histogram.csv", meta,
                        [records[i].report for i in selected])


def read_selected(run: str | Path, name: str, taxonomy_hash: str
                  ) -> tuple[dict, list[int]]:
    """The ``split`` and ``split_seed`` that run directory ``run`` recorded
    (as ``read_setting`` reads them; a key it lacks is left out), and the
    steps of its selected checkpoints. A bad file, a step given twice, or a
    ``taxonomy_hash`` header key that is missing or is not
    ``taxonomy_hash`` (that of ``--taxonomy``) raises ``DataError`` naming
    ``name`` (its option), the file and the line or key."""
    path = Path(run) / _SELECTED_CSV
    source = f"{name} {path}"
    meta, rows = read_rows(read_input(path, name), source,
                           _SELECTED_HEADER.split(","), ints=(1,), need_rows=True)
    if "taxonomy_hash" not in meta:
        raise DataError(f"{source}: missing header key 'taxonomy_hash'")
    if meta["taxonomy_hash"] != taxonomy_hash:
        raise DataError(f"{source}: taxonomy_hash {meta['taxonomy_hash']} does "
                        f"not match --taxonomy hash {taxonomy_hash}")
    next(rows)  # the header row
    steps = []
    for lineno, (_, step) in rows:
        if step in steps:
            raise DataError(f"{source} line {lineno}: step {step} is already given")
        steps.append(step)
    return {key: read_setting(key, meta[key], source)
            for key in ("split", "split_seed") if key in meta}, steps


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------

def run_point(tax: Taxonomy, splits: tuple[Dataset, Dataset, Dataset],
              cfg: SweepConfig, param, seed: int):
    """The paper's protocol for one model, used by ``train`` and by every
    sweep point. Train under the run's one objective (loss ``cfg.loss``
    with parameter ``param``, ``None`` for ce) with seed ``seed`` on
    ``splits[0]``; each checkpoint records the ``splits[1]`` loss and its
    report on the ``cfg.eval_split`` part. Select 5 checkpoints on the
    quartic fit of that loss alone. Returns the trained model, the
    checkpoint records and the selected indices into them; the run's
    report averages the selected records' reports."""
    schedule = TrainSchedule(steps=cfg.steps, batch_size=cfg.batch_size,
                             checkpoint_every=cfg.checkpoint_every, seed=seed)
    model = init_model(tax, cfg.head, splits[0].feature_dim, seed=seed,
                       hidden_dim=cfg.hidden_dim)
    obj = build_objective(tax, cfg.loss, param, cfg.head)
    records = train(tax, model, splits[0], splits[1],
                    splits[SPLIT_NAMES.index(cfg.eval_split)], obj,
                    AdamOptimizer(lr=cfg.lr), schedule, cfg.ks)
    return model, records, select_checkpoints(records, cfg.discard_before)


def run_meta(cfg: SweepConfig, tax: Taxonomy, data_sha: str,
             keys: tuple[str, ...] = ("loss", *RUN_SETTINGS)) -> dict:
    """The header of a run's files: the config ``keys`` (an unset
    ``hidden_dim`` and a ce run's ``grid`` left out), each as the text
    ``read_setting`` reads back, the taxonomy hash and ``data_sha``."""
    meta = {key: setting_text(getattr(cfg, key)) for key in keys
            if getattr(cfg, key) not in (None, [None])}
    return dict(meta, taxonomy_hash=tax.hash_hex(), data_sha=data_sha)


def _job(cfg: SweepConfig, tax: Taxonomy,
         splits: tuple[Dataset, Dataset, Dataset], param, seed: int):
    """One sweep point's checkpoint records, without their parameter
    snapshots, and selected indices; or, if it failed, its error text."""
    try:
        _, records, selected = run_point(tax, splits, cfg, param, seed)
    except (ValueError, TrainingDivergedError) as exc:
        # A point's bad parameter or diverged numerics fail only that point
        # (``ValueError`` includes ``LinAlgError``); any other error is a
        # bug and propagates with its traceback.
        return f"{type(exc).__name__}: {exc}"
    return [replace(r, params=None) for r in records], selected


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def run_sweep(config: SweepConfig, out_dir: str | Path) -> int:
    """Run the grid; write tables and per-point files under ``out_dir``.

    Returns the number of failed points (0 means a fully successful sweep).
    """
    out = Path(out_dir)
    tax, data_sha, splits = load_inputs(config, prefix="")
    header_meta = run_meta(config, tax, data_sha, (
        "loss", *RUN_SETTINGS, "grid", "seeds", "taxonomy_source"))
    kind, _, tax_seed = config.taxonomy_source.partition(":")
    variants = [] if kind == "randomized" else [("true", tax)]
    if kind != "true":
        variants.append(("randomized", randomize_leaves(tax, int(tax_seed))))
    # Each point once, in file order: its ``tradeoff.csv`` id cells, the
    # header of its files (naming its tag) and its job.
    points = []
    for label, variant in variants:
        point_hash = variant.hash_hex()
        for param in config.grid:
            parameter = "" if param is None else str(param)
            for seed in config.seeds:
                tag = f"{config.loss}_{parameter or 'none'}_{label}_seed{seed}"
                meta = dict(header_meta, point=tag, seed=seed, parameter=parameter,
                            point_taxonomy_hash=point_hash)
                ids = (config.loss, config.head, parameter, label, str(seed))
                points.append((ids, meta, (config, variant, splits, param, seed)))
    jobs = [job for *_, job in points]
    # The CPUs this process may run on: a cpuset or taskset can leave fewer
    # than the host has.
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(config.workers or usable, len(jobs))
    if workers > 1:
        # Imported here, not at the top: only the pool needs it, and its
        # import would cost every other command about 8 ms.
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.starmap(_job, jobs)
    else:
        results = [_job(*job) for job in jobs]

    # The parent writes every file: perfbench's tracer keeps a worker's
    # spans only up to the end of its last ``run_point``.
    rows, groups, failures = [], {}, []
    for (ids, meta, _), result in zip(points, results):
        if isinstance(result, str):
            failures.append([meta["point"], result])
            continue
        records, selected = result
        write_run_files(out / "points" / meta["point"], meta, records, selected)
        averages = average_reports([records[i].report for i in selected])
        rows.append((ids, averages))
        groups.setdefault(ids[:-1], []).append(averages)
    # One row a (method, head, parameter, taxonomy): the mean and
    # half-width of its points' means over their seeds.
    means = [(key + (str(len(group)),),
              {c: mean_half_width([a[c][0] for a in group]) for c in group[0]})
             for key, group in groups.items()]
    # Error text may hold commas, quotes or newlines: quote it as CSV, in
    # one block less the last line break, which ``write_csv`` adds.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(failures)
    # A sweep-level file is written when this sweep has rows for it, else
    # removed: one that an earlier sweep left in ``out`` is not this one's.
    for name, lines in (
            ("tradeoff.csv", rows and table_lines(POINT_ID_COLUMNS, rows)),
            ("tradeoff_mean.csv", means and table_lines(MEAN_ID_COLUMNS, means)),
            ("failures.csv", failures and ["point,error", buf.getvalue()[:-1]])):
        if lines:
            write_csv(out / name, header_meta, lines)
        else:
            (out / name).unlink(missing_ok=True)
    return len(failures)
