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
    "MetricReport",
    "report_from_indices",
]


@dataclass
class MetricReport:
    """Flat and hierarchical measures for one evaluation pass. Per cutoff k:
    the fraction of examples whose truth misses the first k ranks, and the
    mean LCA height of the truth vs each of the first k ranked classes (hits
    count 0). Over top-1 mistakes: their mean LCA height (0 without any),
    histogram and count."""

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


def report_from_indices(tax: Taxonomy, R: np.ndarray, t: np.ndarray,
                        ks: tuple[int, ...]) -> MetricReport:
    """The report of rank matrix ``R`` (row i: example i's class indices in
    descending score) against truth indices ``t``, at each cutoff in ``ks``.
    Misaligned inputs, a bad cutoff, an index outside the classes or a
    class ranked twice in one row raise ``ValueError`` (naming the row)."""
    R = np.asarray(R, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if R.ndim != 2 or len(R) != len(t) or len(t) == 0:
        raise ValueError("rank matrix and truths must align with length >= 1")
    if min(ks) < 1 or max(ks) > R.shape[1]:
        raise ValueError(f"cutoffs {list(ks)} must lie from 1 to the ranking "
                         f"width {R.shape[1]}")
    n, S = tax.num_leaves, np.sort(R, axis=1)
    bad = ((t < 0) | (t >= n) | (S[:, 0] < 0) | (S[:, -1] >= n)
           | (S[:, 1:] == S[:, :-1]).any(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i}: truth {t[i]} or ranking {R[i].tolist()} is "
                         f"not made of distinct class indices from 0 to {n - 1}")
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
