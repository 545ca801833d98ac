import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREMES, TOY_TREE_EDGES, TOY_TREE_LEAVES, make_balanced_tree
from hiercls.data import (DataError, Dataset, SplitSpec, dataset_from_csv,
                          dataset_to_csv, split, synth_hierarchical)
from hiercls.model import SettingError
from hiercls.taxonomy import Taxonomy, load_edges, prune_to_tree

# Hypothesis tests cannot take function-scoped fixtures.
TOY = prune_to_tree(load_edges(TOY_TREE_EDGES), TOY_TREE_LEAVES)


def class_means(ds: Dataset) -> dict[str, np.ndarray]:
    """Empirical per-class feature means (generator diagnostics)."""
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for row, label in zip(ds.features, ds.labels):
        if label not in sums:
            sums[label] = np.zeros_like(row)
            counts[label] = 0
        sums[label] += row
        counts[label] += 1
    return {l: sums[l] / counts[l] for l in sums}


class TestCsv:
    def test_small_parse(self, toy_tree):
        text = "f0,f1,label\n0.5,1.5,A\n-2.0,0.25,B\n"
        ds = dataset_from_csv(text, toy_tree)
        assert ds.n == 2 and ds.feature_dim == 2
        assert ds.labels == ["A", "B"]

    def test_unknown_label_named(self, toy_tree):
        with pytest.raises(DataError, match="'Z'"):
            dataset_from_csv("f0,label\n1.0,Z\n", toy_tree)

    def test_header_only_rejected(self, toy_tree):
        with pytest.raises(DataError, match="no rows"):
            dataset_from_csv("f0,label\n", toy_tree)

    def test_malformed_row_reports_line(self, toy_tree):
        with pytest.raises(DataError, match="line 3"):
            dataset_from_csv("f0,label\n1.0,A\n1.0,2.0,A\n", toy_tree)

    def test_non_numeric_cell(self, toy_tree):
        with pytest.raises(DataError, match="line 2"):
            dataset_from_csv("f0,label\nxyz,A\n", toy_tree)

    def test_bad_header(self, toy_tree):
        with pytest.raises(DataError, match="header"):
            dataset_from_csv("a,b,label\n1,2,A\n", toy_tree)

    def test_round_trip_bytes(self, toy_tree):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(20, 3)), ["A", "B", "C", "A"] * 5)
        text = dataset_to_csv(ds)
        again = dataset_to_csv(dataset_from_csv(text, toy_tree))
        assert text == again

    def test_comment_lines_skipped(self, toy_tree):
        text = "# taxonomy_hash=abc\nf0,label\n1.0,A\n"
        assert dataset_from_csv(text, toy_tree).n == 1

    def test_load_peaks_below_one_and_a_half_texts(self):
        # Shaped like the 880-class benchmark data: 3 rows a class, 64
        # features, so the text is about 3.3 MB and the features 1.35 MB.
        classes = [f"c{i:03d}" for i in range(880)]
        tax = Taxonomy("R", {"R": classes}, classes)
        rng = np.random.default_rng(0)
        text = dataset_to_csv(Dataset(rng.normal(size=(3 * 880, 64)),
                                      [c for c in classes for _ in range(3)]))
        tracemalloc.start()
        try:
            ds = dataset_from_csv(text, tax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (2640, 64) and dataset_to_csv(ds) == text
        assert peak < 1.5 * len(text), (peak, len(text))


@st.composite
def datasets(draw):
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.sampled_from(EXTREMES) | st.floats(allow_nan=False,
                                                  allow_infinity=False)
    rows = st.lists(values, min_size=dim, max_size=dim)
    features = draw(st.lists(rows, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(TOY_TREE_LEAVES), min_size=n,
                           max_size=n))
    return Dataset(np.array(features, dtype=float), labels)


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(datasets())
    def test_write_read_write_is_identity(self, ds):
        text = dataset_to_csv(ds)
        again = dataset_from_csv(text, TOY)
        assert again.features.tobytes() == ds.features.tobytes()
        assert again.labels == ds.labels
        assert dataset_to_csv(again) == text

    @settings(max_examples=200, deadline=None)
    @given(datasets(), st.data())
    def test_bad_cell_names_source_and_file_line(self, ds, data):
        opening = data.draw(st.lists(st.sampled_from(
            ["", "# taxonomy_hash=abc", "# note", "#"]), max_size=4))
        lines = opening + dataset_to_csv(ds).splitlines()
        # Blank and comment lines between the rows shift their line numbers.
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(len(opening) + 1, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", "# x=1"])))
        rows = [i for i in range(len(opening) + 1, len(lines))
                if lines[i] and not lines[i].startswith("#")]
        row = data.draw(st.sampled_from(rows))
        col = data.draw(st.integers(0, ds.feature_dim - 1))
        cell = data.draw(st.sampled_from(["nan", "-inf", "1e999", "x", "",
                                          "0x1", "1e"]))
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        with pytest.raises(DataError) as err:
            dataset_from_csv("\n".join(lines) + "\n", TOY, "--data d.csv")
        assert str(err.value).startswith(f"--data d.csv line {row + 1}: ")


class TestSplit:
    def make_ds(self, n=10_000):
        rng = np.random.default_rng(42)
        labels = [("A", "B", "C")[i % 3] for i in range(n)]
        return Dataset(rng.normal(size=(n, 2)), labels)

    def test_partition(self):
        ds = self.make_ds(500)
        tr, va, te = split(ds, SplitSpec((0.6, 0.2, 0.2), 3))
        assert tr.n + va.n + te.n == ds.n
        rows = np.vstack([tr.features, va.features, te.features])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.features))

    def test_deterministic(self):
        ds = self.make_ds(300)
        a = split(ds, SplitSpec((0.7, 0.15, 0.15), 9))
        b = split(ds, SplitSpec((0.7, 0.15, 0.15), 9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            assert x.labels == y.labels

    def test_pinned_sizes_seed_zero(self):
        # Regression values measured once for N=10,000 at (0.7, 0.15, 0.15),
        # seed 0; each within 3 sigma of the binomial expectation.
        tr, va, te = split(self.make_ds(), SplitSpec((0.7, 0.15, 0.15), 0))
        assert (tr.n, va.n, te.n) == (6999, 1534, 1467)
        assert abs(tr.n - 7000) <= 3 * np.sqrt(10_000 * 0.7 * 0.3)
        assert abs(va.n - 1500) <= 3 * np.sqrt(10_000 * 0.15 * 0.85)
        assert abs(te.n - 1500) <= 3 * np.sqrt(10_000 * 0.15 * 0.85)

    def test_heavy_skew_concentrates(self):
        eps = 0.01
        tr, va, te = split(self.make_ds(20_000), SplitSpec((1 - 2 * eps, eps, eps), 1))
        sigma = np.sqrt(20_000 * (1 - 2 * eps) * 2 * eps)
        assert abs(tr.n - 20_000 * (1 - 2 * eps)) <= 3 * sigma

    def test_empty_split_rejected(self):
        ds = self.make_ds(2)
        with pytest.raises(DataError, match="seed"):
            split(ds, SplitSpec((0.3, 0.3, 0.4), 0))

    def test_bad_probabilities(self):
        with pytest.raises(DataError):
            SplitSpec((0.5, 0.5, 0.5), 0)
        with pytest.raises(DataError):
            SplitSpec((1.0, 0.0, 0.0), 0)


class TestSynthHierarchical:
    def test_shapes_and_labels(self, toy_tree):
        ds = synth_hierarchical(toy_tree, per_class=10, dim=4, step_scale=1.0,
                                noise_scale=0.5, seed=0)
        assert ds.n == 30 and ds.feature_dim == 4
        assert ds.labels[:10] == ["A"] * 10

    def test_deterministic(self, toy_tree):
        a = synth_hierarchical(toy_tree, 5, 3, 1.0, 0.5, seed=4)
        b = synth_hierarchical(toy_tree, 5, 3, 1.0, 0.5, seed=4)
        np.testing.assert_array_equal(a.features, b.features)

    def test_zero_step_scale_collapses_class_means(self, toy_tree):
        ds = synth_hierarchical(toy_tree, per_class=4000, dim=4,
                                step_scale=0.0, noise_scale=1.0, seed=1)
        means = class_means(ds)
        for m in means.values():
            assert np.linalg.norm(m) < 5 * 1.0 / np.sqrt(4000) * np.sqrt(4)

    def test_tiny_noise_separable(self, toy_tree):
        ds = synth_hierarchical(toy_tree, per_class=50, dim=8, step_scale=1.0,
                                noise_scale=1e-6, seed=2)
        means = class_means(ds)
        spread = max(np.linalg.norm(row - means[label])
                     for row, label in zip(ds.features, ds.labels))
        gaps = [np.linalg.norm(means["A"] - means["B"]),
                np.linalg.norm(means["A"] - means["C"])]
        assert spread * 100 < min(gaps)

    def test_pinned_sibling_closer_than_cousin(self, toy_tree):
        # Default generator configuration, measured on the generated sample.
        ds = synth_hierarchical(toy_tree, per_class=500, dim=16,
                                step_scale=1.0, noise_scale=0.75, seed=7)
        m = class_means(ds)
        sib = np.linalg.norm(m["A"] - m["B"])
        cousin = np.mean([np.linalg.norm(m["A"] - m["C"]),
                          np.linalg.norm(m["B"] - m["C"])])
        assert sib < cousin

    def test_mean_distance_monotone_in_lca_height(self):
        tax = make_balanced_tree(3, 3)
        H = tax.lca_height_matrix()
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for seed in range(20):
            ds = synth_hierarchical(tax, per_class=30, dim=16, step_scale=1.0,
                                    noise_scale=0.75, seed=seed)
            means = class_means(ds)
            vecs = np.array([means[l] for l in tax.leaves])
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    h = int(H[i, j])
                    sums[h] = sums.get(h, 0.0) + np.linalg.norm(vecs[i] - vecs[j])
                    counts[h] = counts.get(h, 0) + 1
        by_height = [sums[h] / counts[h] for h in sorted(sums)]
        assert all(lo <= hi for lo, hi in zip(by_height, by_height[1:]))

    def test_invalid_params(self, toy_tree):
        with pytest.raises(SettingError, match="noise_scale must be") as err:
            synth_hierarchical(toy_tree, 5, 3, 1.0, 0.0, seed=0)
        assert err.value.key == "noise_scale"
        with pytest.raises(SettingError, match="per_class must be") as err:
            synth_hierarchical(toy_tree, 0, 3, 1.0, 1.0, seed=0)
        assert err.value.key == "per_class"

    def test_level_decay_shrinks_deep_steps(self):
        tax = make_balanced_tree(2, 3)
        H = tax.lca_height_matrix()
        ds = synth_hierarchical(tax, per_class=40, dim=16, step_scale=1.0,
                                noise_scale=0.05, seed=3, level_decay=0.3)
        means = class_means(ds)
        vecs = np.array([means[l] for l in tax.leaves])
        sib, far = [], []
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                d = np.linalg.norm(vecs[i] - vecs[j])
                (sib if H[i, j] == 1 else far).append(d)
        assert np.mean(sib) < np.mean(far)
