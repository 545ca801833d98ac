import numpy as np
import pytest

from conftest import lca_height, make_random_tree
from hiercls import metrics as M
from hiercls.cli import _report_rows
from hiercls.model import average_reports
from hiercls.taxonomy import Taxonomy


def batch(rankings, truths) -> M.PredictionBatch:
    return M.PredictionBatch(rankings=rankings, truths=truths)


def random_batch(rng, tax: Taxonomy, n: int, width: int) -> M.PredictionBatch:
    leaves = tax.leaves
    rankings, truths = [], []
    for _ in range(n):
        order = rng.permutation(len(leaves))[:width]
        rankings.append([leaves[i] for i in order])
        truths.append(leaves[rng.integers(len(leaves))])
    return batch(rankings, truths)


class TestPredictionBatch:
    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            batch([["A"]], [])

    def test_rejects_duplicates_in_ranking(self):
        with pytest.raises(ValueError):
            batch([["A", "A"]], ["A"])


class TestTopKError:
    def test_always_rank_one(self, toy_tree):
        b = batch([["A", "B"], ["B", "A"]], ["A", "B"])
        assert M.top_k_error(toy_tree, b, 1) == 0.0
        assert M.top_k_error(toy_tree, b, 2) == 0.0

    def test_never_present(self, toy_tree):
        b = batch([["B", "C"], ["B", "C"]], ["A", "A"])
        assert M.top_k_error(toy_tree, b, 1) == 1.0
        assert M.top_k_error(toy_tree, b, 2) == 1.0

    def test_mixed_ranks(self, balanced27):
        leaves = balanced27.leaves
        rankings = []
        # truth at ranks 1, 2, 5 respectively
        for rank in (0, 1, 4):
            order = [l for l in leaves[:5] if l != leaves[10]]
            order.insert(rank, leaves[10])
            rankings.append(order[:5])
        b = batch(rankings, [leaves[10]] * 3)
        np.testing.assert_allclose(M.top_k_error(balanced27, b, 1), 2 / 3)
        assert M.top_k_error(balanced27, b, 5) == 0.0

    def test_k_beyond_width_rejected(self, toy_tree):
        with pytest.raises(ValueError):
            M.top_k_error(toy_tree, batch([["A"]], ["A"]), 2)

    def test_k_below_one_rejected(self, toy_tree):
        for metric in (M.top_k_error, M.avg_hier_dist_topk):
            with pytest.raises(ValueError, match="from 1 to the ranking width"):
                metric(toy_tree, batch([["A"]], ["A"]), 0)

    def test_non_increasing_in_k(self, balanced27):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = random_batch(rng, balanced27, 30, 10)
            errs = [M.top_k_error(balanced27, b, k) for k in range(1, 11)]
            assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))


class TestHierDistMistake:
    def test_enumerated_example(self, toy_tree):
        b = batch([["B"], ["C"], ["A"]], ["A", "A", "A"])
        np.testing.assert_allclose(M.hier_dist_mistake(toy_tree, b), 1.5)

    def test_no_mistakes_zero(self, toy_tree):
        b = batch([["A"], ["B"]], ["A", "B"])
        assert M.hier_dist_mistake(toy_tree, b) == 0.0

    def test_single_sibling_mistake(self, toy_tree):
        b = batch([["B"]], ["A"])
        np.testing.assert_allclose(M.hier_dist_mistake(toy_tree, b), 1.0)


class TestAvgHierDistTopk:
    def test_all_correct_k1(self, toy_tree):
        b = batch([["A"], ["B"]], ["A", "B"])
        assert M.avg_hier_dist_topk(toy_tree, b, 1) == 0.0

    def test_enumerated_top2(self, toy_tree):
        b = batch([["A", "B"]], ["A"])
        np.testing.assert_allclose(M.avg_hier_dist_topk(toy_tree, b, 2), 0.5)

    def test_k1_identity_with_mistake_distance(self, balanced27):
        rng = np.random.default_rng(1)
        for _ in range(30):
            b = random_batch(rng, balanced27, 25, 3)
            lhs = M.avg_hier_dist_topk(balanced27, b, 1)
            rhs = (M.top_k_error(balanced27, b, 1)
                   * M.hier_dist_mistake(balanced27, b))
            assert abs(lhs - rhs) < 1e-12


class TestSeverityHistogram:
    def test_no_mistakes_empty(self, toy_tree):
        assert M.severity_histogram(toy_tree, batch([["A"]], ["A"])) == {}

    def test_enumerated_example(self, toy_tree):
        b = batch([["B"], ["C"], ["A"]], ["A", "A", "A"])
        assert M.severity_histogram(toy_tree, b) == {1: 1, 2: 1}

    def test_mean_matches_mistake_distance(self, balanced27):
        rng = np.random.default_rng(2)
        for _ in range(30):
            b = random_batch(rng, balanced27, 40, 2)
            hist = M.severity_histogram(balanced27, b)
            total = sum(hist.values())
            if total == 0:
                assert M.hier_dist_mistake(balanced27, b) == 0.0
                continue
            mean = sum(h * c for h, c in hist.items()) / total
            assert abs(mean - M.hier_dist_mistake(balanced27, b)) < 1e-12

    def test_counts_sum_to_mistakes(self, balanced27):
        rng = np.random.default_rng(3)
        b = random_batch(rng, balanced27, 60, 2)
        report = M.compute_report(balanced27, b, ks=(1, 2))
        assert sum(report.severity_histogram.values()) == report.mistake_count


def brute_force_report(tax: Taxonomy, b: M.PredictionBatch, ks):
    """Re-derivation with fresh LCA walks per pair, top-k by membership."""
    n = len(b.truths)
    top_k = {k: sum(t not in r[:k] for r, t in zip(b.rankings, b.truths)) / n
             for k in ks}
    avg = {k: float(np.mean([lca_height(tax, t, pred)
                             for r, t in zip(b.rankings, b.truths)
                             for pred in r[:k]]))
           for k in ks}
    mistakes = [(t, r[0]) for r, t in zip(b.rankings, b.truths) if r[0] != t]
    hdm = (float(np.mean([lca_height(tax, t, p) for t, p in mistakes]))
           if mistakes else 0.0)
    hist: dict[int, int] = {}
    for t, p in mistakes:
        h = lca_height(tax, t, p)
        hist[h] = hist.get(h, 0) + 1
    return top_k, hdm, avg, hist


class TestAgainstBruteForce:
    def test_random_batches_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            tax = make_random_tree(rng, max_nodes=40)
            width = min(3, tax.num_leaves)
            ks = tuple(range(1, width + 1))
            b = random_batch(rng, tax, int(rng.integers(5, 40)), width)
            report = M.compute_report(tax, b, ks=ks)
            top_k, hdm, avg, hist = brute_force_report(tax, b, ks)
            for k in ks:
                assert abs(report.top_k_error[k] - top_k[k]) < 1e-12
                assert abs(report.avg_hier_dist_topk[k] - avg[k]) < 1e-12
            assert abs(report.hier_dist_mistake - hdm) < 1e-12
            assert report.severity_histogram == hist

    def test_reorder_invariance(self, balanced27):
        rng = np.random.default_rng(5)
        b = random_batch(rng, balanced27, 50, 4)
        perm = rng.permutation(50)
        shuffled = batch([b.rankings[i] for i in perm],
                         [b.truths[i] for i in perm])
        r1 = M.compute_report(balanced27, b, ks=(1, 4))
        r2 = M.compute_report(balanced27, shuffled, ks=(1, 4))
        assert r1.top_k_error == r2.top_k_error
        assert r1.hier_dist_mistake == r2.hier_dist_mistake
        assert r1.avg_hier_dist_topk == r2.avg_hier_dist_topk
        assert r1.severity_histogram == r2.severity_histogram


def predictions_to_csv(b: M.PredictionBatch) -> str:
    """``example_id,truth,pred_1,...,pred_K`` rows with a header line."""
    k = len(b.rankings[0])
    header = "example_id,truth," + ",".join(f"pred_{i + 1}" for i in range(k))
    lines = [header]
    for ex, (truth, ranking) in enumerate(zip(b.truths, b.rankings)):
        lines.append(f"{ex},{truth}," + ",".join(ranking))
    return "\n".join(lines) + "\n"


def predictions_from_csv(text: str) -> M.PredictionBatch:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if len(lines) < 2:
        raise ValueError("prediction CSV needs a header and at least one row")
    header = lines[0].split(",")
    if header[:2] != ["example_id", "truth"]:
        raise ValueError(f"unexpected prediction CSV header: {lines[0]!r}")
    truths, rankings = [], []
    for line in lines[1:]:
        cells = line.split(",")
        truths.append(cells[1])
        rankings.append(cells[2:])
    return M.PredictionBatch(rankings=rankings, truths=truths)


class TestCsvSurfaces:
    def test_prediction_round_trip(self, toy_tree):
        b = batch([["A", "B"], ["C", "A"]], ["A", "C"])
        text = predictions_to_csv(b)
        again = predictions_from_csv(text)
        assert again.rankings == b.rankings
        assert again.truths == b.truths

    def test_report_rows_cover_metrics(self, toy_tree):
        b = batch([["B"], ["C"], ["A"]], ["A", "A", "A"])
        report = M.compute_report(toy_tree, b, ks=(1,))
        rows = _report_rows(average_reports([report]))
        names = [r[0] for r in rows]
        assert "top_k_error" in names
        assert "hier_dist_mistake" in names
        assert "mistake_count" in names
