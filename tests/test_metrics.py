import numpy as np
import pytest

from conftest import lca_height, make_random_tree
from hiercls import metrics as M
from hiercls.sweep import average_reports, write_report_csv
from hiercls.taxonomy import Taxonomy


# The toy tree's classes A, B and C have indices 0, 1 and 2.


def random_batch(rng, tax: Taxonomy, n: int, width: int):
    """``n`` rankings of ``width`` distinct class indices, and truths."""
    rankings, truths = [], []
    for _ in range(n):
        rankings.append(rng.permutation(tax.num_leaves)[:width])
        truths.append(rng.integers(tax.num_leaves))
    return np.array(rankings), np.array(truths)


class TestReportInputs:
    def test_rejects_misaligned(self, toy_tree):
        for R, t in ((np.zeros((1, 1)), np.zeros(0)),
                     (np.zeros((2, 1)), np.zeros(1)),
                     (np.zeros(1), np.zeros(1))):
            with pytest.raises(ValueError, match="must align"):
                M.report_from_indices(toy_tree, R, t, (1,))

    @pytest.mark.parametrize("R, t, where", [
        ([[-1]], [0], "row 0: truth 0 or ranking [-1]"),
        ([[5]], [0], "row 0: truth 0 or ranking [5]"),
        ([[0, 0]], [0], "row 0: truth 0 or ranking [0, 0]"),
        ([[0]], [7], "row 0: truth 7 or ranking [0]"),
        ([[0]], [-1], "row 0: truth -1 or ranking [0]"),
        ([[0, 1], [1, 2], [2, 2], [3, 0]], [0, 1, 2, 9],
         "row 2: truth 2 or ranking [2, 2]"),
    ], ids=["negative_rank", "rank_past_classes", "duplicate_rank",
            "truth_past_classes", "negative_truth", "first_bad_row"])
    def test_rejects_out_of_range_and_duplicates(self, toy_tree, R, t, where):
        with pytest.raises(ValueError) as err:
            M.report_from_indices(toy_tree, R, t, (1,))
        assert str(err.value) == (f"{where} is not made of distinct class "
                                  "indices from 0 to 2")


class TestTopKError:
    def test_always_rank_one(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[0, 1], [1, 0]], [0, 1], (1, 2))
        assert r.top_k_error == {1: 0.0, 2: 0.0}

    def test_never_present(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[1, 2], [1, 2]], [0, 0], (1, 2))
        assert r.top_k_error == {1: 1.0, 2: 1.0}

    def test_mixed_ranks(self, balanced27):
        rankings = []
        # truth 10 at ranks 1, 2, 5 respectively
        for rank in (0, 1, 4):
            order = [0, 1, 2, 3, 4]
            order.insert(rank, 10)
            rankings.append(order[:5])
        r = M.report_from_indices(balanced27, rankings, [10] * 3, (1, 5))
        np.testing.assert_allclose(r.top_k_error[1], 2 / 3)
        assert r.top_k_error[5] == 0.0

    def test_k_beyond_width_rejected(self, toy_tree):
        with pytest.raises(ValueError):
            M.report_from_indices(toy_tree, [[0]], [0], (2,))

    def test_k_below_one_rejected(self, toy_tree):
        with pytest.raises(ValueError, match="from 1 to the ranking width"):
            M.report_from_indices(toy_tree, [[0]], [0], (0,))

    def test_non_increasing_in_k(self, balanced27):
        rng = np.random.default_rng(0)
        ks = tuple(range(1, 11))
        for _ in range(20):
            R, t = random_batch(rng, balanced27, 30, 10)
            r = M.report_from_indices(balanced27, R, t, ks)
            errs = [r.top_k_error[k] for k in ks]
            assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))


class TestHierDistMistake:
    def test_enumerated_example(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[1], [2], [0]], [0, 0, 0], (1,))
        np.testing.assert_allclose(r.hier_dist_mistake, 1.5)

    def test_no_mistakes_zero(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[0], [1]], [0, 1], (1,))
        assert r.hier_dist_mistake == 0.0

    def test_single_sibling_mistake(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[1]], [0], (1,))
        np.testing.assert_allclose(r.hier_dist_mistake, 1.0)


class TestAvgHierDistTopk:
    def test_all_correct_k1(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[0], [1]], [0, 1], (1,))
        assert r.avg_hier_dist_topk[1] == 0.0

    def test_enumerated_top2(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[0, 1]], [0], (2,))
        np.testing.assert_allclose(r.avg_hier_dist_topk[2], 0.5)

    def test_k1_identity_with_mistake_distance(self, balanced27):
        rng = np.random.default_rng(1)
        for _ in range(30):
            R, t = random_batch(rng, balanced27, 25, 3)
            r = M.report_from_indices(balanced27, R, t, (1,))
            lhs = r.avg_hier_dist_topk[1]
            rhs = r.top_k_error[1] * r.hier_dist_mistake
            assert abs(lhs - rhs) < 1e-12


class TestSeverityHistogram:
    def test_no_mistakes_empty(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[0]], [0], (1,))
        assert r.severity_histogram == {}

    def test_enumerated_example(self, toy_tree):
        r = M.report_from_indices(toy_tree, [[1], [2], [0]], [0, 0, 0], (1,))
        assert r.severity_histogram == {1: 1, 2: 1}

    def test_mean_matches_mistake_distance(self, balanced27):
        rng = np.random.default_rng(2)
        for _ in range(30):
            R, t = random_batch(rng, balanced27, 40, 2)
            r = M.report_from_indices(balanced27, R, t, (1,))
            hist = r.severity_histogram
            total = sum(hist.values())
            if total == 0:
                assert r.hier_dist_mistake == 0.0
                continue
            mean = sum(h * c for h, c in hist.items()) / total
            assert abs(mean - r.hier_dist_mistake) < 1e-12

    def test_counts_sum_to_mistakes(self, balanced27):
        rng = np.random.default_rng(3)
        R, t = random_batch(rng, balanced27, 60, 2)
        r = M.report_from_indices(balanced27, R, t, (1, 2))
        assert sum(r.severity_histogram.values()) == r.mistake_count


def brute_force_report(tax: Taxonomy, R: np.ndarray, t: np.ndarray, ks):
    """Re-derivation with fresh LCA walks per pair of class ids, top-k by
    membership."""
    rankings = [[tax.leaves[i] for i in row] for row in R]
    truths = [tax.leaves[i] for i in t]
    n = len(truths)
    top_k = {k: sum(t not in r[:k] for r, t in zip(rankings, truths)) / n
             for k in ks}
    avg = {k: float(np.mean([lca_height(tax, t, pred)
                             for r, t in zip(rankings, truths)
                             for pred in r[:k]]))
           for k in ks}
    mistakes = [(t, r[0]) for r, t in zip(rankings, truths) if r[0] != t]
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
            R, t = random_batch(rng, tax, int(rng.integers(5, 40)), width)
            report = M.report_from_indices(tax, R, t, ks)
            top_k, hdm, avg, hist = brute_force_report(tax, R, t, ks)
            for k in ks:
                assert abs(report.top_k_error[k] - top_k[k]) < 1e-12
                assert abs(report.avg_hier_dist_topk[k] - avg[k]) < 1e-12
            assert abs(report.hier_dist_mistake - hdm) < 1e-12
            assert report.severity_histogram == hist

    def test_reorder_invariance(self, balanced27):
        rng = np.random.default_rng(5)
        R, t = random_batch(rng, balanced27, 50, 4)
        perm = rng.permutation(50)
        r1 = M.report_from_indices(balanced27, R, t, (1, 4))
        r2 = M.report_from_indices(balanced27, R[perm], t[perm], (1, 4))
        assert r1.top_k_error == r2.top_k_error
        assert r1.hier_dist_mistake == r2.hier_dist_mistake
        assert r1.avg_hier_dist_topk == r2.avg_hier_dist_topk
        assert r1.severity_histogram == r2.severity_histogram


def predictions_to_csv(rankings, truths) -> str:
    """``example_id,truth,pred_1,...,pred_K`` rows with a header line."""
    k = len(rankings[0])
    header = "example_id,truth," + ",".join(f"pred_{i + 1}" for i in range(k))
    lines = [header]
    for ex, (truth, ranking) in enumerate(zip(truths, rankings)):
        lines.append(f"{ex},{truth}," + ",".join(ranking))
    return "\n".join(lines) + "\n"


def predictions_from_csv(text: str) -> tuple[list[list[str]], list[str]]:
    """The class-id rankings and truths of ``predictions_to_csv`` text."""
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
    return rankings, truths


class TestCsvSurfaces:
    def test_prediction_round_trip(self, toy_tree):
        rankings, truths = [["A", "B"], ["C", "A"]], ["A", "C"]
        text = predictions_to_csv(rankings, truths)
        assert predictions_from_csv(text) == (rankings, truths)

    def test_report_rows_cover_metrics(self, toy_tree, tmp_path):
        r = M.report_from_indices(toy_tree, [[1], [2], [0]], [0, 0, 0], (1,))
        write_report_csv(tmp_path / "report.csv", {}, average_reports([r]))
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["top_k_error", "1"], ["hier_dist_mistake", ""],
            ["avg_hier_dist_topk", "1"], ["mistake_count", ""],
            ["num_examples", ""]]
