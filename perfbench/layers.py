"""Per-layer metrics from the spans that ``tracer.py`` writes.

The metric names, units and the layer -> end-to-end metric -> workload map
live in ``layers.json``; ``metrics_from_spans`` computes every one of them
for one traced round trip.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import OBJECTIVES

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
PER_LAYER = [m for layer in LAYERS for m in layer["metrics"]]


@dataclass(frozen=True)
class Span:
    key: tuple[str, str]      # (run id, span id); unique across processes
    parent: tuple[str, str] | None
    name: str
    t0: float
    t1: float
    ok: bool
    n: int
    new: bool

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def load_spans(span_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.tsv")):
        for line in path.read_text(encoding="utf-8").splitlines():
            run, _pid, sid, parent, name, t0, t1, ok, n, new = line.split("\t")
            spans.append(Span((run, sid), (run, parent) if parent else None,
                              name, float(t0), float(t1), ok == "1", int(n),
                              new == "1"))
    return spans


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metrics_from_spans(spans: list[Span], sweep_s: float, workers: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, which needs an
    untraced run beside the traced one."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    kids: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            kids[s.parent].append((s.t0, s.t1))

    def total(name):
        return sum(s.dur for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def nsum(name):
        return sum(s.n for s in by_name[name] if s.n > 0)

    def self_s(name):
        return sum(s.dur - _covered(s.t0, s.t1, kids[s.key]) for s in by_name[name])

    def us(name, q):
        return 1e6 * _pct([s.dur for s in by_name[name]], q)

    startups = [s.dur for s in by_name["cli.startup"]]
    points = by_name["sweep.run_point"]
    out = {
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "taxonomy.prune_to_tree.s": total("taxonomy.prune_to_tree"),
        "taxonomy.lca_height_matrix.s": total("taxonomy.lca_height_matrix"),
        "taxonomy.lca_height_matrix.calls": calls("taxonomy.lca_height_matrix"),
        "taxonomy.lca_height_matrix.builds":
            sum(s.new for s in by_name["taxonomy.lca_height_matrix"]),
        "taxonomy.leaf_membership.s": total("taxonomy.leaf_membership"),
        "data.synth_hierarchical.s": total("data.synth_hierarchical"),
        "data.dataset_to_csv.s": total("data.dataset_to_csv"),
        "data.dataset_to_csv.bytes": nsum("data.dataset_to_csv"),
        "data.dataset_from_csv.s": total("data.dataset_from_csv"),
        "data.dataset_from_csv.bytes": nsum("data.dataset_from_csv"),
        "data.split.s": total("data.split"),
        "model.train.self_s": self_s("model.train"),
        "model.train.steps": calls("model.AdamOptimizer.update"),
        "model.backprop.us_p50": us("model.backprop", 0.5),
        "model.AdamOptimizer.update.us_p50": us("model.AdamOptimizer.update", 0.5),
        "model.forward.s": total("model.forward"),
        "model.evaluate_model.self_s": self_s("model.evaluate_model"),
        "model.select_checkpoints.s": total("model.select_checkpoints"),
        "model.checkpoint_to_text.s": total("model.checkpoint_to_text"),
        "model.checkpoint_to_text.bytes": nsum("model.checkpoint_to_text"),
        "model.checkpoint_from_text.s": total("model.checkpoint_from_text"),
        "model.checkpoint_from_text.bytes": nsum("model.checkpoint_from_text"),
        "metrics.report_from_indices.s": total("metrics.report_from_indices"),
        "metrics.report_from_indices.calls": calls("metrics.report_from_indices"),
        "metrics.report_from_indices.rows": nsum("metrics.report_from_indices"),
        "fileio.write_text.s": total("fileio.write_text"),
        "fileio.write_text.calls": calls("fileio.write_text"),
        "fileio.write_text.bytes": nsum("fileio.write_text"),
        "sweep.run_point.s_p50": _pct([s.dur for s in points], 0.5),
        "sweep.run_point.s_max": max((s.dur for s in points), default=0.0),
        "sweep.points_ok": sum(s.ok for s in points),
        "sweep.points_failed": sum(not s.ok for s in points),
        "sweep.pool_busy_frac":
            sum(s.dur for s in points) / (workers * sweep_s) if sweep_s > 0 else 0.0,
    }
    for cls in OBJECTIVES:
        pre = f"losses.{cls}"
        init = total(f"{pre}.init")
        if cls == "ClassSoftLabelObjective":
            init += total("losses.soft_label_matrix")
        out.update({
            f"{pre}.loss_batch.us_p50": us(f"{pre}.loss_batch", 0.5),
            f"{pre}.loss_batch.us_p99": us(f"{pre}.loss_batch", 0.99),
            f"{pre}.grad_batch.us_p50": us(f"{pre}.grad_batch", 0.5),
            f"{pre}.calls": calls(f"{pre}.loss_batch"),
            f"{pre}.init_s": init,
        })
    return out
