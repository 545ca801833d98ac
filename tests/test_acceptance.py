"""Acceptance suite: one test per exit criterion, each printing a pass line
with its measured runtime against the stated budget.

The tradeoff-trend criteria (9 and 10) share one session-scoped pair of
hyperparameter sweeps on the default synthetic dataset: a balanced 3-level,
27-leaf taxonomy, 500 examples per class in 16 dimensions, five training
seeds, run both on the true taxonomy and on a label-randomized copy.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (HXE_KERNELS, brute_lca, conditionals_from_class_probs,
                      finite_difference, hxe_kernel, make_balanced_tree,
                      make_random_dag, make_random_tree, max_rel_error,
                      random_prob_vector)
from hiercls import losses as L
from hiercls import metrics as M
from hiercls import model as Md
from hiercls.cli import main as cli_main
from hiercls.data import dataset_to_csv, synth_hierarchical
from hiercls.fileio import write_text
from hiercls.sweep import SweepConfig, run_sweep
from hiercls.taxonomy import load_edges, prune_to_tree


def stamp(num: int, name: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def random_tree_max_leaves(rng, max_leaves: int, max_nodes: int = 100):
    while True:
        t = make_random_tree(rng, max_nodes=max_nodes)
        if t.num_leaves <= max_leaves:
            return t


def test_criterion_01_limit_equivalences():
    """Tiny alpha and huge beta both collapse to the plain cross-entropy."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        tax = random_tree_max_leaves(rng, 50)
        p = random_prob_vector(rng, tax.num_leaves)
        truth = tax.leaves[rng.integers(tax.num_leaves)]
        ce = -math.log(p[tax.leaf_index[truth]])
        hxe = L.hxe_loss(tax, 1e-9, p, truth)
        soft = L.soft_label_loss(tax, 1e9, p, truth)
        assert abs(hxe - ce) < 1e-6
        assert abs(soft - ce) < 1e-6
    stamp(1, "limit equivalences", time.time() - t0, 1.0)


def test_criterion_02_factorization_round_trip():
    """Conditionals derived from class probabilities multiply back to them:
    the conditional head's log leaf posteriors, given the log conditionals
    of ``p``, give back ``p``."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    for _ in range(1000):
        tax = make_random_tree(rng, max_nodes=40)
        p = random_prob_vector(rng, tax.num_leaves)
        conds = conditionals_from_class_probs(tax, p)
        logq = np.log([conds[n] for n in tax.nonroot_bfs])
        obj = L.ConditionalHxeObjective(tax, 0.0)
        back = np.exp(obj.log_class_probs(logq[None, :])[0])
        assert np.abs(back - p).max() < 1e-9
    stamp(2, "factorization round-trip", time.time() - t0, 1.0)


FD_SEEDS = {"ce": 301, "hxe_class": 302, "hxe_cond": 303, "soft": 304}


def test_criterion_03_gradient_correctness():
    """Analytic logit gradients match central finite differences (class
    HXE on both of its kernels)."""
    t0 = time.time()
    for kind in ("ce", "hxe_class", "hxe_cond", "soft"):
        rng = np.random.default_rng(FD_SEEDS[kind])
        for _ in range(100):
            tax = make_random_tree(rng, max_nodes=20)
            alpha = float(rng.uniform(0.0, 1.5))
            beta = float(rng.uniform(0.5, 20.0))
            if kind == "ce":
                objs = [L.ClassCrossEntropy(tax)]
            elif kind == "hxe_class":
                objs = []
                for kernel in HXE_KERNELS:
                    with hxe_kernel(kernel):
                        objs.append(L.ClassHxeObjective(tax, alpha))
            elif kind == "hxe_cond":
                objs = [L.ConditionalHxeObjective(tax, alpha)]
            else:
                objs = [L.ClassSoftLabelObjective(L.soft_label_matrix(tax, beta))]
            z = rng.normal(scale=2.0, size=objs[0].num_outputs)
            ti = np.array([int(rng.integers(tax.num_leaves))])
            for obj in objs:
                analytic = obj.grad_batch(z[None, :], ti)[0]
                numeric = finite_difference(
                    lambda zz: float(obj.loss_batch(zz[None, :], ti)[0]), z,
                    h=1e-5)
                assert max_rel_error(analytic, numeric) < 1e-5
    stamp(3, "gradient correctness", time.time() - t0, 10.0)


def test_criterion_04_soft_label_structure():
    """Row-stochastic, symmetric on balanced trees, diagonal-dominant, with
    the uniform and one-hot limits."""
    t0 = time.time()
    for tax in (make_balanced_tree(3, 3), make_balanced_tree(2, 4)):
        for beta in (0.0, 0.7, 3.0, 12.0):
            m = L.soft_label_matrix(tax, beta)
            assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(m - m.T).max() < 1e-12
            diag = np.diag(m)
            assert (diag >= m.max(axis=1) - 1e-15).all()
        uniform = L.soft_label_matrix(tax, 0.0)
        assert np.abs(uniform - 1.0 / tax.num_leaves).max() < 1e-12
        onehot = L.soft_label_matrix(tax, 1e6)
        off = onehot - np.diag(np.diag(onehot))
        assert off.max() < 1e-12
    stamp(4, "soft-label structure", time.time() - t0, 1.0)


def test_criterion_05_lca_oracle_equivalence():
    """The span-built LCA-height matrix equals the heights of brute-force
    ancestor-chain intersections."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    for _ in range(1000):
        tax = make_random_tree(rng, max_nodes=200)
        H = tax.lca_height_matrix()
        leaves = tax.leaves
        for _ in range(12):
            i, j = rng.integers(len(leaves), size=2)
            assert H[i, j] == tax.height[brute_lca(tax, leaves[i], leaves[j])]
    stamp(5, "LCA oracle equivalence", time.time() - t0, 5.0)


def test_criterion_06_metric_identities():
    """Top-k monotone in k; the k=1 decomposition; histogram mean equals the
    mistake distance."""
    t0 = time.time()
    rng = np.random.default_rng(106)
    for _ in range(100):
        tax = make_random_tree(rng, max_nodes=40)
        width = min(4, tax.num_leaves)
        n = int(rng.integers(5, 50))
        R = np.stack([rng.permutation(tax.num_leaves)[:width] for _ in range(n)])
        truth = rng.integers(tax.num_leaves, size=n)
        ks = tuple(range(1, width + 1))
        report = M.report_from_indices(tax, R, truth, ks)
        errs = [report.top_k_error[k] for k in ks]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
        identity = report.top_k_error[1] * report.hier_dist_mistake
        assert abs(report.avg_hier_dist_topk[1] - identity) < 1e-12
        hist = report.severity_histogram
        total = sum(hist.values())
        assert total == report.mistake_count
        if total:
            mean = sum(h * c for h, c in hist.items()) / total
            assert abs(mean - report.hier_dist_mistake) < 1e-12
    stamp(6, "metric identities", time.time() - t0, 1.0)


def test_criterion_07_pruning_contract():
    """Pruned DAGs become valid taxonomies preserving the class list, and the
    worked toy example reproduces."""
    t0 = time.time()
    toy = prune_to_tree(load_edges("R\tX\nX\tA\nR\tA"), ["A"])
    assert toy.parent == {"A": "R"}
    rng = np.random.default_rng(107)
    for _ in range(120):
        graph, classes = make_random_dag(rng, max_nodes=300)
        tax = prune_to_tree(graph, classes)
        assert len(tax.parent) == tax.num_nodes - 1
        assert sorted(tax.leaves) == sorted(classes)
        for node in tax.nodes_bfs:
            kids = tax.children[node]
            if kids:
                if node != tax.root:
                    assert len(kids) >= 2
                for kid in kids:
                    assert tax.depth[kid] == tax.depth[node] + 1
        assert tax.tree_height == max(tax.depth[l] for l in tax.leaves)
    stamp(7, "pruning contract", time.time() - t0, 5.0)


def test_criterion_08_epoch_selection():
    """Quartic fit recovers coefficients against a normal-equations oracle;
    the 5-checkpoint window clips correctly at range ends."""
    t0 = time.time()
    rng = np.random.default_rng(108)
    for _ in range(50):
        x = np.sort(rng.uniform(-1, 1, size=30))
        y = np.polynomial.polynomial.polyval(x, rng.normal(size=5))
        y += 1e-3 * rng.normal(size=x.size)
        fitted = Md.fit_polynomial(x, y, 4)
        V = np.vander(x, 5, increasing=True)
        oracle = np.linalg.solve(V.T @ V, V.T @ y)
        assert np.abs(fitted - oracle).max() / np.abs(oracle).max() < 1e-8

    def trace_of(losses):
        return [Md.CheckpointRecord(step=(i + 1) * 100, train_loss=0.0,
                                    val_loss=v, report=None, params=[])
                for i, v in enumerate(losses)]

    xs = np.arange(1, 21, dtype=float) * 100
    quartic = 1e-11 * (xs - 1400.0) ** 4 + ((xs - 1400.0) / 2000.0) ** 2
    assert Md.select_checkpoints(trace_of(quartic), 0) == [11, 12, 13, 14, 15]
    falling = np.linspace(2.0, 1.0, 10)
    assert Md.select_checkpoints(trace_of(falling), 0) == [5, 6, 7, 8, 9]
    rising = np.linspace(1.0, 2.0, 10)
    assert Md.select_checkpoints(trace_of(rising), 0) == [0, 1, 2, 3, 4]
    stamp(8, "epoch-selection protocol", time.time() - t0, 1.0)


# ---------------------------------------------------------------------------
# Desk-scale sweeps (criteria 9 and 10)
# ---------------------------------------------------------------------------

ALPHA_GRID = [0.1, 0.5, 0.9]
BETA_GRID = [30.0, 10.0, 4.0]
SWEEP_SEEDS = [0, 1, 2, 3, 4]
RANDOMIZE_SEED = 123


@pytest.fixture(scope="session")
def sweep_results(tmp_path_factory):
    """Run the alpha and beta sweeps, true and randomized taxonomy, once."""
    t0 = time.time()
    root = tmp_path_factory.mktemp("acceptance_sweeps")
    tax = make_balanced_tree(3, 3)
    write_text(root / "tree.tsv", tax.export_edges())
    write_text(root / "classes.txt", "\n".join(tax.leaves) + "\n")
    ds = synth_hierarchical(tax, per_class=500, dim=16, step_scale=1.0,
                            noise_scale=1.1, seed=7, level_decay=0.7)
    write_text(root / "data.csv", dataset_to_csv(ds))

    common = dict(data=str(root / "data.csv"), taxonomy=str(root / "tree.tsv"),
                  classes=str(root / "classes.txt"), head="class",
                  taxonomy_source=f"both:{RANDOMIZE_SEED}",
                  split=(0.7, 0.15, 0.15), split_seed=0, seeds=SWEEP_SEEDS,
                  steps=2500, batch_size=64, checkpoint_every=125,
                  discard_before=625, lr=0.01, ks=(1, 5, 20),
                  eval_split="val", workers=2)
    tables = {}
    for loss, grid in (("hxe", ALPHA_GRID), ("soft", BETA_GRID)):
        out = root / f"sweep_{loss}"
        failed = run_sweep(SweepConfig(loss=loss, grid=list(grid), **common), out)
        assert failed == 0
        tables[loss] = parse_mean_table(out / "tradeoff_mean.csv")
    return {"tables": tables, "root": root, "elapsed": time.time() - t0}


def parse_mean_table(path: Path) -> dict:
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        key = (cells["taxonomy"], cells["parameter"])
        out[key] = {k: float(v) for k, v in cells.items()
                    if k not in ("method", "head", "parameter", "taxonomy")}
    return out


def test_criterion_09_tradeoff_trends(sweep_results):
    """Seed-averaged severity falls as the losses get more hierarchical, and
    top-1 error at the extreme hierarchical setting is no better than at the
    mild one (matching the reported non-monotone behaviour at mild settings,
    the endpoint comparison is the stable reading)."""
    tables = sweep_results["tables"]
    hxe = tables["hxe"]
    hdm = [hxe[("true", str(a))]["hier_dist_mistake"] for a in ALPHA_GRID]
    assert all(b <= a + 1e-12 for a, b in zip(hdm, hdm[1:])), hdm
    soft = tables["soft"]
    avg5 = [soft[("true", str(b))]["avg_hier_dist_at_5"] for b in BETA_GRID]
    assert all(b <= a + 1e-12 for a, b in zip(avg5, avg5[1:])), avg5
    top1_alpha = [hxe[("true", str(a))]["top1_error"] for a in ALPHA_GRID]
    assert top1_alpha[-1] >= top1_alpha[0] - 1e-12, top1_alpha
    top1_beta = [soft[("true", str(b))]["top1_error"] for b in BETA_GRID]
    assert top1_beta[-1] >= top1_beta[0] - 1e-12, top1_beta
    stamp(9, "desk-scale tradeoff trends", sweep_results["elapsed"], 600.0)


def test_criterion_10_random_hierarchy_ablation(sweep_results):
    """Randomizing the taxonomy strictly worsens seed-averaged mistake
    severity at every sweep point."""
    t0 = time.time()
    tables = sweep_results["tables"]
    for loss, grid in (("hxe", ALPHA_GRID), ("soft", BETA_GRID)):
        for param in grid:
            true_hdm = tables[loss][("true", str(param))]["hier_dist_mistake"]
            rand_hdm = tables[loss][("randomized", str(param))]["hier_dist_mistake"]
            assert rand_hdm > true_hdm, (loss, param, true_hdm, rand_hdm)
    assert sweep_results["elapsed"] < 600.0
    stamp(10, "random-hierarchy ablation", time.time() - t0, 600.0)


def test_criterion_11_determinism(sweep_results, tmp_path):
    """Re-running commands with identical flags yields byte-identical files."""
    t0 = time.time()
    root = sweep_results["root"]
    flags = ["--data", str(root / "data.csv"), "--taxonomy",
             str(root / "tree.tsv"), "--classes", str(root / "classes.txt"),
             "--loss", "hxe", "--alpha", "0.5", "--steps", "2500",
             "--batch-size", "64", "--checkpoint-every", "125",
             "--discard-before", "625", "--lr", "0.01", "--seed", "0",
             "--split", "0.7,0.15,0.15", "--split-seed", "0", "--ks", "1,5,20"]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["train", *flags, "--out", str(out)]) == 0
        runs.append(out)
    first_files = sorted(p.relative_to(runs[0])
                         for p in runs[0].rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(runs[1])
                          for p in runs[1].rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel

    for name in ("g1.csv", "g2.csv"):
        assert cli_main(["gen-data", "--taxonomy", str(root / "tree.tsv"),
                         "--classes", str(root / "classes.txt"),
                         "--per-class", "20", "--dim", "4", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

    for name in ("r1.tsv", "r2.tsv"):
        assert cli_main(["hierarchy", "randomize", "--taxonomy",
                         str(root / "tree.tsv"), "--classes",
                         str(root / "classes.txt"), "--seed", "9",
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1.tsv").read_bytes() == (tmp_path / "r2.tsv").read_bytes()
    stamp(11, "byte-identical determinism", time.time() - t0, 60.0)
