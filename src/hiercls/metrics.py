"""Flat and hierarchy-aware performance measures for ranked predictions.

Mistake severity is the height of the lowest common ancestor of the
predicted and true classes. All measures are plain means or counts, so
batches can be partitioned and partial results merged exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taxonomy import Taxonomy

__all__ = [
    "PredictionBatch",
    "MetricReport",
    "top_k_error",
    "hier_dist_mistake",
    "avg_hier_dist_topk",
    "severity_histogram",
    "compute_report",
    "report_from_indices",
]


@dataclass
class PredictionBatch:
    """Per-example ranked class ids (descending score) plus ground truths."""

    rankings: list[list[str]]
    truths: list[str]

    def __post_init__(self):
        if len(self.rankings) != len(self.truths) or not self.truths:
            raise ValueError("rankings and truths must have equal length >= 1")
        width = len(self.rankings[0])
        for r in self.rankings:
            if len(r) != width:
                raise ValueError("all rankings must have equal length")
            if len(set(r)) != len(r):
                raise ValueError(f"ranking contains duplicates: {r}")


@dataclass
class MetricReport:
    """Bundle of flat and hierarchical measures for one evaluation pass."""

    top_k_error: dict[int, float]
    hier_dist_mistake: float
    avg_hier_dist_topk: dict[int, float]
    severity_histogram: dict[int, int]
    mistake_count: int
    num_examples: int

    def scalars(self) -> dict[str, float]:
        """Flat name -> value view used by trace and table writers."""
        out: dict[str, float] = {}
        for k in sorted(self.top_k_error):
            out[f"top{k}_error"] = self.top_k_error[k]
        out["hier_dist_mistake"] = self.hier_dist_mistake
        for k in sorted(self.avg_hier_dist_topk):
            out[f"avg_hier_dist_at_{k}"] = self.avg_hier_dist_topk[k]
        return out


def top_k_error(tax: Taxonomy, batch: PredictionBatch, k: int) -> float:
    """Fraction of examples whose truth is absent from the first k ranks."""
    return compute_report(tax, batch, (k,)).top_k_error[k]


def hier_dist_mistake(tax: Taxonomy, batch: PredictionBatch) -> float:
    """Mean LCA height of truth vs top-1 prediction over misclassified
    examples; 0 when there are no mistakes."""
    return compute_report(tax, batch).hier_dist_mistake


def avg_hier_dist_topk(tax: Taxonomy, batch: PredictionBatch, k: int) -> float:
    """Grand mean LCA height between truth and each of the first k ranked
    classes, over all examples (correct hits contribute height 0)."""
    return compute_report(tax, batch, (k,)).avg_hier_dist_topk[k]


def severity_histogram(tax: Taxonomy, batch: PredictionBatch) -> dict[int, int]:
    """Counts of mistake severities (LCA heights of truth vs top-1) over the
    misclassified examples; empty when everything is correct."""
    return compute_report(tax, batch).severity_histogram


def report_from_indices(tax: Taxonomy, R: np.ndarray, t: np.ndarray,
                        ks: tuple[int, ...]) -> MetricReport:
    """Index-based core shared by the public ops and the model evaluator."""
    R = np.asarray(R, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if R.ndim != 2 or len(R) != len(t) or len(t) == 0:
        raise ValueError("rank matrix and truths must align with length >= 1")
    if min(ks) < 1 or max(ks) > R.shape[1]:
        raise ValueError(f"cutoffs {list(ks)} must lie from 1 to the ranking "
                         f"width {R.shape[1]}")
    H = tax.lca_height_matrix()
    hits = R == t[:, None]
    topk_err = {k: float(1.0 - hits[:, :k].any(axis=1).mean()) for k in ks}
    avg_dist = {k: float(H[t[:, None], R[:, :k]].mean()) for k in ks}
    wrong = R[:, 0] != t
    severities = H[t[wrong], R[wrong, 0]]
    heights, counts = np.unique(severities, return_counts=True)
    return MetricReport(
        top_k_error=topk_err,
        hier_dist_mistake=float(severities.mean()) if wrong.any() else 0.0,
        avg_hier_dist_topk=avg_dist,
        severity_histogram={int(h): int(c) for h, c in zip(heights, counts)},
        mistake_count=int(wrong.sum()),
        num_examples=len(t),
    )


def compute_report(tax: Taxonomy, batch: PredictionBatch,
                   ks: tuple[int, ...] = (1,)) -> MetricReport:
    """The report of a batch of class ids; the public metrics read it."""
    idx = tax.leaf_index
    R = np.array([[idx[c] for c in r] for r in batch.rankings], dtype=np.int64)
    t = np.array([idx[c] for c in batch.truths], dtype=np.int64)
    return report_from_indices(tax, R, t, ks)

