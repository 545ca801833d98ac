"""Grid sweeps over the loss hyperparameter, with optional paired runs on a
label-randomized taxonomy, emitting tradeoff tables and per-point severity
histograms as CSV.

Each sweep point is an isolated deterministic job (train, select
checkpoints, evaluate the selection); points run in a worker pool and the
merge is single-threaded, so results do not depend on pool size. A failed
point is recorded and skipped rather than aborting the grid.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import Dataset, SplitSpec, dataset_from_csv, split
from .fileio import fmt, meta_header, sha16, write_text
from .model import (HEADS, AdamOptimizer, LossSpec, TrainSchedule,
                    evaluate_checkpoints, init_model, select_checkpoints,
                    trace_to_csv, train)
from .taxonomy import Taxonomy, load_taxonomy, randomize_leaves

__all__ = ["SweepConfig", "parse_sweep_config", "run_sweep", "DEFAULT_ALPHA_GRID",
           "DEFAULT_BETA_GRID"]

DEFAULT_ALPHA_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
DEFAULT_BETA_GRID = [4.0, 5.0, 10.0, 15.0, 20.0, 30.0]


@dataclass
class SweepConfig:
    loss: str
    data: str
    taxonomy: str
    classes: str
    grid: list = field(default_factory=list)
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
        if self.loss not in ("ce", "hxe", "soft"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if not self.grid:
            if self.loss == "hxe":
                self.grid = list(DEFAULT_ALPHA_GRID)
            elif self.loss == "soft":
                self.grid = list(DEFAULT_BETA_GRID)
            else:
                self.grid = [None]
        if self.eval_split not in ("train", "val", "test"):
            raise ValueError(f"unknown eval_split {self.eval_split!r}")
        src = self.taxonomy_source
        if not (src == "true" or src.startswith("randomized:")
                or src.startswith("both:")):
            raise ValueError(
                "taxonomy_source must be 'true', 'randomized:<seed>' or 'both:<seed>'"
            )
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.loss == "soft" and self.head == "conditional":
            raise ValueError("loss = soft requires head = class")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        # Every point builds these; building them once here rejects a bad
        # schedule or learning rate before any point runs.
        TrainSchedule(steps=self.steps, batch_size=self.batch_size,
                      checkpoint_every=self.checkpoint_every,
                      discard_before=self.discard_before)
        AdamOptimizer(lr=self.lr)


def parse_sweep_config(text: str, base_dir: str | Path = ".") -> SweepConfig:
    """Parse a ``key = value`` config document; paths resolve against
    ``base_dir``."""
    known = {f.name for f in fields(SweepConfig)}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        raw[key] = val.strip()
    for required in ("loss", "data", "taxonomy", "classes"):
        if required not in raw:
            raise ValueError(f"sweep config is missing the {required!r} key")
    base = Path(base_dir)

    def path_of(key):
        return str(base / raw[key])

    def floats(key):
        return [float(v) for v in raw[key].split(",") if v]

    def ints(key):
        return [int(v) for v in raw[key].split(",") if v]

    kwargs: dict = dict(loss=raw["loss"], data=path_of("data"),
                        taxonomy=path_of("taxonomy"), classes=path_of("classes"))
    if "grid" in raw:
        kwargs["grid"] = floats("grid")
    if "head" in raw:
        kwargs["head"] = raw["head"]
    if "taxonomy_source" in raw:
        kwargs["taxonomy_source"] = raw["taxonomy_source"]
    if "split" in raw:
        p = floats("split")
        kwargs["split"] = (p[0], p[1], p[2])
    for int_key in ("split_seed", "steps", "batch_size", "checkpoint_every",
                    "discard_before", "hidden_dim", "workers"):
        if int_key in raw:
            kwargs[int_key] = int(raw[int_key])
    if "seeds" in raw:
        kwargs["seeds"] = ints("seeds")
    if "lr" in raw:
        kwargs["lr"] = float(raw["lr"])
    if "ks" in raw:
        kwargs["ks"] = tuple(ints("ks"))
    if "eval_split" in raw:
        kwargs["eval_split"] = raw["eval_split"]
    return SweepConfig(**kwargs)


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------

# Populated before the fork so workers inherit the heavy objects read-only.
_CTX: dict = {}


def _taxonomy_variants(tax: Taxonomy, source: str) -> list[tuple[str, Taxonomy]]:
    if source == "true":
        return [("true", tax)]
    kind, _, seed = source.partition(":")
    randomized = randomize_leaves(tax, int(seed))
    if kind == "randomized":
        return [("randomized", randomized)]
    return [("true", tax), ("randomized", randomized)]


def run_point(tax: Taxonomy, train_ds: Dataset, val_ds: Dataset, eval_ds: Dataset,
              spec: LossSpec, head: str, schedule: TrainSchedule, lr: float,
              ks: tuple[int, ...], hidden_dim: int | None):
    """One deterministic sweep point: train, select 5 checkpoints on the
    quartic validation-loss fit, evaluate their average."""
    model = init_model(tax, head, train_ds.feature_dim, seed=schedule.seed,
                       hidden_dim=hidden_dim)
    opt = AdamOptimizer(lr=lr)
    trace = train(tax, model, train_ds, val_ds, spec, opt, schedule, ks=ks)
    selected = select_checkpoints(trace, schedule.discard_before)
    averaged = evaluate_checkpoints(tax, model, trace, selected, eval_ds, ks=ks)
    return trace, selected, averaged


def _point_tag(loss: str, param, tax_label: str, seed: int) -> str:
    p = "none" if param is None else str(param)
    return f"{loss}_{p}_{tax_label}_seed{seed}"


def _job(args):
    tax_label, param, seed = args
    cfg: SweepConfig = _CTX["config"]
    tax: Taxonomy = _CTX["taxonomies"][tax_label]
    splits = _CTX["splits"]
    tag = _point_tag(cfg.loss, param, tax_label, seed)
    try:
        spec = LossSpec(cfg.loss,
                        alpha=param if cfg.loss == "hxe" else None,
                        beta=param if cfg.loss == "soft" else None)
        schedule = TrainSchedule(steps=cfg.steps, batch_size=cfg.batch_size,
                                 checkpoint_every=cfg.checkpoint_every,
                                 seed=seed, discard_before=cfg.discard_before)
        eval_ds = splits[{"train": 0, "val": 1, "test": 2}[cfg.eval_split]]
        trace, selected, averaged = run_point(
            tax, splits[0], splits[1], eval_ds, spec, cfg.head, schedule,
            cfg.lr, cfg.ks, cfg.hidden_dim)
        return {
            "ok": True,
            "tag": tag,
            "method": cfg.loss,
            "head": cfg.head,
            "parameter": "" if param is None else str(param),
            "taxonomy": tax_label,
            "taxonomy_hash": tax.hash_hex(),
            "seed": seed,
            "means": averaged.means,
            "half_widths": averaged.half_widths,
            "histogram": averaged.severity_histogram,
            "trace_csv": trace_to_csv(trace),
            "selected": [(i, trace.records[i].step) for i in selected],
        }
    except Exception as exc:  # the grid must survive one bad point
        return {"ok": False, "tag": tag, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def _read(path: str, flag: str) -> str:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{flag}: file not found: {path}")
    return p.read_text(encoding="utf-8")


def _metric_columns(means: dict) -> list[str]:
    return list(means.keys())


def _table_csv(rows: list[dict], header_meta: dict) -> str:
    cols = _metric_columns(rows[0]["means"])
    head_cells = ["method", "head", "parameter", "taxonomy", "seed"]
    for c in cols:
        head_cells += [c, c + "_hw"]
    lines = [",".join(head_cells)]
    for r in rows:
        cells = [r["method"], r["head"], r["parameter"], r["taxonomy"], str(r["seed"])]
        for c in cols:
            cells += [fmt(r["means"][c]), fmt(r["half_widths"][c])]
        lines.append(",".join(cells))
    return meta_header(header_meta) + "\n".join(lines) + "\n"


def _mean_table_csv(rows: list[dict], header_meta: dict) -> str:
    from .model import confidence_half_width
    cols = _metric_columns(rows[0]["means"])
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for r in rows:
        key = (r["method"], r["head"], r["parameter"], r["taxonomy"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    head_cells = ["method", "head", "parameter", "taxonomy", "num_seeds"]
    for c in cols:
        head_cells += [c, c + "_hw"]
    lines = [",".join(head_cells)]
    for key in order:
        members = groups[key]
        cells = list(key) + [str(len(members))]
        for c in cols:
            vals = [m["means"][c] for m in members]
            cells += [fmt(float(np.mean(vals))), fmt(confidence_half_width(vals))]
        lines.append(",".join(cells))
    return meta_header(header_meta) + "\n".join(lines) + "\n"


def run_sweep(config: SweepConfig, out_dir: str | Path) -> int:
    """Run the grid; write tables and per-point files under ``out_dir``.

    Returns the number of failed points (0 means a fully successful sweep).
    """
    out = Path(out_dir)
    data_text = _read(config.data, "data")
    classes = [l.strip() for l in _read(config.classes, "classes").splitlines()
               if l.strip() and not l.startswith("#")]
    tax = load_taxonomy(_read(config.taxonomy, "taxonomy"), classes)
    ds = dataset_from_csv(data_text, tax)
    splits = split(ds, SplitSpec(config.split, config.split_seed))
    variants = dict(_taxonomy_variants(tax, config.taxonomy_source))

    _CTX.clear()
    _CTX.update(config=config, taxonomies=variants, splits=splits)
    jobs = [(label, param, seed)
            for label in variants
            for param in config.grid
            for seed in config.seeds]
    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
    workers = min(workers, len(jobs))
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_job, jobs)
    else:
        results = [_job(j) for j in jobs]
    _CTX.clear()

    header_meta = {
        "loss": config.loss,
        "head": config.head,
        "grid": ",".join(str(g) for g in config.grid),
        "seeds": ",".join(str(s) for s in config.seeds),
        "taxonomy_source": config.taxonomy_source,
        "split": ",".join(fmt(p) for p in config.split),
        "split_seed": config.split_seed,
        "steps": config.steps,
        "batch_size": config.batch_size,
        "checkpoint_every": config.checkpoint_every,
        "discard_before": config.discard_before,
        "lr": fmt(config.lr),
        "ks": ",".join(str(k) for k in config.ks),
        "eval_split": config.eval_split,
        "taxonomy_hash": tax.hash_hex(),
        "data_sha": sha16(data_text),
    }

    ok_rows = [r for r in results if r["ok"]]
    failures = [r for r in results if not r["ok"]]
    for r in ok_rows:
        point_meta = dict(header_meta, point=r["tag"], seed=r["seed"],
                          parameter=r["parameter"],
                          point_taxonomy_hash=r["taxonomy_hash"])
        pdir = out / "points" / r["tag"]
        write_text(pdir / "trace.csv", meta_header(point_meta) + r["trace_csv"])
        hist_lines = ["height,count"] + [f"{h},{c}" for h, c in r["histogram"].items()]
        write_text(pdir / "histogram.csv",
                   meta_header(point_meta) + "\n".join(hist_lines) + "\n")
        sel_lines = ["trace_index,step"] + [f"{i},{s}" for i, s in r["selected"]]
        write_text(pdir / "selected.csv",
                   meta_header(point_meta) + "\n".join(sel_lines) + "\n")
    if ok_rows:
        write_text(out / "tradeoff.csv", _table_csv(ok_rows, header_meta))
        write_text(out / "tradeoff_mean.csv", _mean_table_csv(ok_rows, header_meta))
    if failures:
        # Error text may hold commas, quotes or newlines: quote it as CSV.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["point", "error"])
        writer.writerows([r["tag"], r["error"]] for r in failures)
        write_text(out / "failures.csv", meta_header(header_meta) + buf.getvalue())
    return len(failures)
