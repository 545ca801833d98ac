"""Labelled feature datasets: CSV ingestion, seeded split resampling, and a
synthetic generator whose class geometry follows the taxonomy.

The generator assigns every tree node a mean vector by a Gaussian random
walk from the root, so the expected squared distance between two class means
grows with their tree distance. Sampling a class adds isotropic noise around
its leaf mean. This makes hierarchical effects measurable at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fileio import DataError, read_rows
from .model import SettingError
from .taxonomy import Taxonomy

__all__ = [
    "DataError",
    "Dataset",
    "SplitSpec",
    "dataset_from_csv",
    "dataset_to_csv",
    "split",
    "synth_hierarchical",
]


@dataclass
class Dataset:
    """Feature matrix plus per-row leaf labels."""

    features: np.ndarray
    labels: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise DataError("features must be (N, D) aligned with labels")
        if len(self.labels) == 0:
            raise DataError("dataset is empty")
        if not np.isfinite(self.features).all():
            raise DataError("features contain non-finite values")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def label_indices(self, tax: Taxonomy) -> np.ndarray:
        try:
            return np.array([tax.leaf_index[l] for l in self.labels], dtype=np.int64)
        except KeyError as e:
            raise DataError(f"label {e.args[0]!r} is not a leaf of the taxonomy")

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], [self.labels[i] for i in idx])


@dataclass(frozen=True)
class SplitSpec:
    """Per-example categorical split with probabilities (train, val, test)."""

    probabilities: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        p = self.probabilities
        if len(p) != 3 or any(not (0.0 < x < 1.0) for x in p):
            raise DataError(f"split probabilities must each lie in (0, 1): {p}")
        if abs(sum(p) - 1.0) > 1e-12:
            raise DataError(f"split probabilities must sum to 1: {p}")


def dataset_from_csv(text: str, tax: Taxonomy, source: str = "dataset") -> Dataset:
    """Parse ``f0..f{D-1},label`` rows; labels must be leaves of ``tax``.

    A header without a feature column, or a bad header or row, including a
    feature cell that is not a finite number, raises ``DataError`` naming
    ``source`` (the option or key and the file) and the line.
    """
    _, rows = read_rows(text, source, need_rows=True, header=lambda width: [
        *(f"f{i}" for i in range(width - 1)), "label"])
    header_no, header = next(rows)
    if len(header) < 2:
        raise DataError(f"{source} line {header_no}: header {','.join(header)!r} "
                        "has no feature column")
    features, labels = [], []
    # Each row after the header is converted to float64 as the reader
    # yields it, so the cells of all rows are never held at once.
    for lineno, cells in rows:
        try:
            features.append(np.array(cells[:-1], dtype=float))
        except ValueError:
            raise DataError(f"{source} line {lineno}: non-numeric feature "
                            "cell") from None
        if cells[-1] not in tax.leaf_index:
            raise DataError(f"{source} line {lineno}: unknown label {cells[-1]!r}")
        # The taxonomy's own string, so that no string of the row outlives
        # it and pins the memory the row's cells took.
        labels.append(tax.leaves[tax.leaf_index[cells[-1]]])
    features = np.array(features)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:  # no line numbers are kept: find the bad row's line again
        lineno = next(islice(read_rows(text, source)[1], bad[0] + 1, None))[0]
        raise DataError(f"{source} line {lineno}: feature cell is not a "
                        "finite number")
    return Dataset(features, labels)


def dataset_to_csv(ds: Dataset) -> str:
    """Canonical serialization; loading then re-saving is byte-identical."""
    header = ",".join([f"f{i}" for i in range(ds.feature_dim)] + ["label"])
    lines = [header]
    for row, label in zip(ds.features, ds.labels):
        lines.append(",".join(map(repr, row.tolist())) + f",{label}")
    return "\n".join(lines) + "\n"


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, exhaustive (train, val, test) partition, deterministic per seed.

    Each example draws its slot independently, so sizes are binomial around
    N * probabilities. Raises if any slot ends up empty.
    """
    draws = np.random.default_rng(spec.seed).random(ds.n)
    p_train, p_val, _ = spec.probabilities
    slots = np.where(draws < p_train, 0, np.where(draws < p_train + p_val, 1, 2))
    parts = []
    for s, name in zip((0, 1, 2), ("train", "val", "test")):
        idx = np.flatnonzero(slots == s)
        if idx.size == 0:
            raise DataError(
                f"{name} split is empty; use a different seed or a larger dataset"
            )
        parts.append(ds.subset(idx))
    return parts[0], parts[1], parts[2]


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
def synth_hierarchical(tax: Taxonomy, per_class: int, dim: int,
                       step_scale: float, noise_scale: float, seed: int,
                       level_decay: float = 1.0) -> Dataset:
    """Generate ``per_class`` examples per leaf around tree-correlated means.

    Node means follow a random walk down the tree: a child's mean is its
    parent's plus a Gaussian step of scale ``step_scale * level_decay**(depth-1)``.
    Examples add Gaussian noise of scale ``noise_scale`` around leaf means.
    Rows are emitted leaf-block by leaf-block in canonical class order. A
    bad value, or a decay or node mean that overflows, raises
    ``SettingError`` naming its parameter.
    """
    for key, value, ok, rule in (
            ("per_class", per_class, per_class >= 1, ">= 1"),
            ("dim", dim, dim >= 1, ">= 1"),
            ("step_scale", step_scale, 0 <= step_scale < math.inf, "finite and >= 0"),
            ("noise_scale", noise_scale, 0 < noise_scale < math.inf, "finite and > 0"),
            ("level_decay", level_decay, math.isfinite(level_decay), "finite"),
            ("seed", seed, seed >= 0, ">= 0")):
        if not ok:
            raise SettingError(key, f"{key} must be {rule}, got {value}")
    rng = np.random.default_rng(seed)
    means = {tax.root: np.zeros(dim)}
    for node in tax.nodes_bfs[1:]:
        try:
            decay = level_decay ** (tax.depth[node] - 1)
        except OverflowError:
            decay = math.inf
        scale = step_scale * decay
        means[node] = means[tax.parent[node]] + scale * rng.standard_normal(dim)
        if not np.isfinite(means[node]).all():
            # A decay above 1 grew the step; else step_scale alone is too large.
            key, value = (("level_decay", level_decay) if abs(decay) > 1
                          else ("step_scale", step_scale))
            raise SettingError(key, f"{key} {value} overflows the node means "
                               f"at depth {tax.depth[node]}")
    blocks, labels = [], []
    for leaf in tax.leaves:
        blocks.append(means[leaf] + noise_scale * rng.standard_normal((per_class, dim)))
        labels.extend([leaf] * per_class)
    features = np.vstack(blocks)
    if not np.isfinite(features).all():
        raise SettingError("noise_scale", f"noise_scale {noise_scale} overflows "
                           "the features")
    return Dataset(features, labels)

