import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (HXE_KERNELS, DenseConditionalHxe, ancestry,
                      conditionals_from_class_probs, edge_weight,
                      factorized_prob, finite_difference, hxe_kernel, hxe_walk,
                      make_balanced_tree, make_random_tree, max_rel_error,
                      random_prob_vector, shaped_trees)
from hiercls import losses as L
from hiercls.model import _top_ranks
from hiercls.taxonomy import Taxonomy, UnknownNodeError


def softmax(z: np.ndarray) -> np.ndarray:
    return L.softmax_batch(np.asarray(z, dtype=float)[None, :])[0]


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)

    def test_log_ratio_logits(self):
        p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def weights_by_node(tax: Taxonomy, alpha: float) -> dict[str, float]:
    """The HXE edge weights an objective holds, keyed by child node."""
    return dict(zip(tax.nonroot_bfs, L.ConditionalHxeObjective(tax, alpha).lam))


class TestWeights:
    def test_exponential_decay_formula(self, toy_tree):
        lam = weights_by_node(toy_tree, 0.3)
        for node in toy_tree.nonroot_bfs:
            expected = math.exp(-0.3 * toy_tree.depth[node])
            assert abs(lam[node] - expected) < 1e-12

    def test_zero_alpha_gives_unit_weights(self, toy_tree):
        assert all(v == 1.0 for v in weights_by_node(toy_tree, 0.0).values())

    def test_strictly_decreasing_with_depth(self, balanced27):
        lam = weights_by_node(balanced27, 0.5)
        leaf = balanced27.leaves[0]
        path = ancestry(balanced27, leaf)[:-1]
        lams = [lam[n] for n in path]  # ordered deepest to shallowest
        assert all(deep < shallow for deep, shallow in zip(lams[:-1], lams[1:]))

    def test_negative_alpha_rejected(self, toy_tree):
        # Non-finite values too: nan gives nan losses.
        for objective in (L.ClassHxeObjective, L.ConditionalHxeObjective):
            for alpha in (-0.1, math.nan, math.inf):
                with pytest.raises(ValueError, match="alpha must be finite and "
                                                     f">= 0, got {alpha}"):
                    objective(toy_tree, alpha)


class TestConditionals:
    def test_uniform_probs(self, toy_tree):
        conds = conditionals_from_class_probs(toy_tree, np.full(3, 1 / 3))
        np.testing.assert_allclose(conds["D"], 2 / 3)
        np.testing.assert_allclose(conds["C"], 1 / 3)
        np.testing.assert_allclose(conds["A"], 0.5)
        np.testing.assert_allclose(conds["B"], 0.5)

    def test_one_hot_path_is_unit(self, toy_tree):
        p = np.array([1.0, 0.0, 0.0])  # one-hot on A
        conds = conditionals_from_class_probs(toy_tree, p)
        assert conds["A"] == 1.0
        assert conds["D"] == 1.0

    def test_uniform_on_balanced_binary(self):
        t = make_balanced_tree(2, 2)
        conds = conditionals_from_class_probs(t, np.full(4, 0.25))
        np.testing.assert_allclose(list(conds.values()), 0.5)

    def test_sibling_groups_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = make_random_tree(rng, max_nodes=40)
            p = random_prob_vector(rng, t.num_leaves)
            conds = conditionals_from_class_probs(t, p)
            for node in t.nodes_bfs:
                kids = t.children[node]
                if kids:
                    np.testing.assert_allclose(
                        sum(conds[k] for k in kids), 1.0, atol=1e-9)


class TestFactorization:
    def test_uniform_round_trip_leaf(self, toy_tree):
        p = np.full(3, 1 / 3)
        conds = conditionals_from_class_probs(toy_tree, p)
        np.testing.assert_allclose(factorized_prob(toy_tree, conds, "A"), 1 / 3)

    def test_one_hot(self, toy_tree):
        conds = conditionals_from_class_probs(toy_tree, np.array([1.0, 0, 0]))
        assert factorized_prob(toy_tree, conds, "A") == 1.0

    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = make_random_tree(rng, max_nodes=50)
            p = random_prob_vector(rng, t.num_leaves)
            conds = conditionals_from_class_probs(t, p)
            for i, leaf in enumerate(t.leaves):
                rebuilt = factorized_prob(t, conds, leaf)
                assert abs(rebuilt - p[i]) < 1e-9


class TestHxeLoss:
    def test_unit_weights_reduce_to_cross_entropy(self, toy_tree):
        p = np.full(3, 1 / 3)
        np.testing.assert_allclose(L.hxe_loss(toy_tree, 0.0, p, "A"), math.log(3),
                                   atol=1e-12)

    def test_worked_example_alpha_ln2(self, toy_tree):
        p = np.full(3, 1 / 3)
        expected = 0.25 * math.log(2) + 0.5 * math.log(1.5)
        np.testing.assert_allclose(L.hxe_loss(toy_tree, math.log(2), p, "A"),
                                   expected, atol=1e-12)

    def test_one_hot_truth_zero_loss(self, toy_tree):
        p = np.array([1.0, 0.0, 0.0])
        for kernel in HXE_KERNELS:
            with hxe_kernel(kernel):
                for alpha in (0.0, 0.3, 2.0):
                    assert L.hxe_loss(toy_tree, alpha, p, "A") == 0.0

    def test_near_zero_alpha_limit(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = make_random_tree(rng, max_nodes=50)
            p = random_prob_vector(rng, t.num_leaves)
            truth = t.leaves[rng.integers(t.num_leaves)]
            ce = -math.log(p[t.leaf_index[truth]])
            assert abs(L.hxe_loss(t, 1e-9, p, truth) - ce) < 1e-6

    def test_matches_walk_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            t = make_random_tree(rng, max_nodes=50)
            p = random_prob_vector(rng, t.num_leaves)
            truth = t.leaves[rng.integers(t.num_leaves)]
            alpha = float(rng.uniform(0, 2))
            walk = hxe_walk(t, alpha, p, truth)
            for kernel in HXE_KERNELS:
                with hxe_kernel(kernel):
                    assert abs(L.hxe_loss(t, alpha, p, truth) - walk) < 1e-12

    def test_finite_on_degenerate_probs(self, toy_tree):
        p = np.array([0.0, 1.0, 0.0])
        for kernel in HXE_KERNELS:
            with hxe_kernel(kernel):
                value = L.hxe_loss(toy_tree, 0.5, p, "A")
                assert np.isfinite(value) and value >= 0.0
                grad = L.hxe_grad(toy_tree, 0.5, np.array([-800.0, 0.0, -800.0]),
                                  "A")
                assert np.isfinite(grad).all()


def soft_label_csv(tax: Taxonomy, rows: np.ndarray) -> str:
    """``truth,<class ids>`` header, then one row of target masses a class."""
    lines = ["truth," + ",".join(tax.leaves)]
    for leaf, row in zip(tax.leaves, rows):
        lines.append(leaf + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


class TestSoftLabelMatrix:
    def test_zero_beta_uniform(self, toy_tree):
        m = L.soft_label_matrix(toy_tree, 0.0)
        np.testing.assert_allclose(m, np.full((3, 3), 1 / 3))

    def test_worked_row(self, toy_tree):
        m = L.soft_label_matrix(toy_tree, 1.0)
        weights = np.array([1.0, math.exp(-0.5), math.exp(-1.0)])
        row = m[toy_tree.leaf_index["A"]]
        np.testing.assert_allclose(row, weights / weights.sum(), atol=1e-12)
        np.testing.assert_allclose(row, [0.5065, 0.3072, 0.1863], atol=5e-5)

    def test_huge_beta_one_hot(self, toy_tree):
        m = L.soft_label_matrix(toy_tree, 1e6)
        off = m - np.diag(np.diag(m))
        assert off.max() < 1e-12
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)

    def test_rows_stochastic_and_diagonal_max(self, balanced27):
        for beta in (0.0, 0.5, 2.0, 8.0):
            m = L.soft_label_matrix(balanced27, beta)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
            assert (m > 0).all()
            diag = np.diag(m)
            assert (diag >= m.max(axis=1) - 1e-15).all()

    def test_symmetric_on_balanced_tree(self, balanced27):
        m = L.soft_label_matrix(balanced27, 3.0)
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_rows_not_symmetric_on_unbalanced_tree(self, toy_tree):
        # Each row carries its own normalizer; with leaves at different
        # depths, the distance multisets differ and symmetry breaks.
        m = L.soft_label_matrix(toy_tree, 1.0)
        i, j = 0, 2  # (A, C)
        assert abs(m[i, j] - m[j, i]) > 1e-3

    def test_diagonal_monotone_in_beta(self, toy_tree, balanced27):
        for tax in (toy_tree, balanced27):
            grid = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
            diags = [np.diag(L.soft_label_matrix(tax, b)) for b in grid]
            for lo, hi in zip(diags[:-1], diags[1:]):
                assert (hi >= lo - 1e-15).all()

    def test_negative_beta_rejected(self, toy_tree):
        # Non-finite values too: inf gives -inf * 0 on the diagonal.
        for beta in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be finite and >= 0, "
                                                 f"got {beta}"):
                L.soft_label_matrix(toy_tree, beta)

    def test_csv_export_round_trips_values(self, toy_tree):
        m = L.soft_label_matrix(toy_tree, 1.0)
        lines = soft_label_csv(toy_tree, m).splitlines()
        assert lines[0] == "truth,A,B,C"
        cells = lines[1].split(",")
        assert cells[0] == "A"
        np.testing.assert_array_equal(
            np.array([float(c) for c in cells[1:]]), m[0])


class TestSoftLabelLoss:
    def test_one_hot_limit_equals_cross_entropy(self, toy_tree):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_prob_vector(rng, 3)
            truth = toy_tree.leaves[rng.integers(3)]
            expect = -math.log(p[toy_tree.leaf_index[truth]])
            assert abs(L.soft_label_loss(toy_tree, 1e9, p, truth) - expect) < 1e-9

    def test_uniform_p_gives_log_cardinality(self, toy_tree):
        for beta in (0.0, 1.0, 7.0):
            p = np.full(3, 1 / 3)
            for truth in toy_tree.leaves:
                np.testing.assert_allclose(L.soft_label_loss(toy_tree, beta, p, truth),
                                           math.log(3), atol=1e-12)

    def test_worked_example(self, toy_tree):
        loss = L.soft_label_loss(toy_tree, 1.0, np.array([0.5, 0.25, 0.25]), "A")
        np.testing.assert_allclose(loss, 1.0352289060507653, atol=1e-12)
        np.testing.assert_allclose(loss, 1.0352, atol=5e-5)


FD_SEEDS = {"ce": 301, "hxe_class": 302, "hxe_cond": 303, "soft": 304}


class TestGradients:
    def test_one_hot_soft_row_gives_softmax_ce_gradient(self, toy_tree):
        m = L.soft_label_matrix(toy_tree, 1e9)
        z = np.array([0.2, -0.4, 1.0])
        p = softmax(z)
        onehot = np.array([1.0, 0.0, 0.0])
        grad = L.ClassSoftLabelObjective(m).grad_batch(z[None, :], np.array([0]))[0]
        np.testing.assert_allclose(grad, p - onehot, atol=1e-12)

    def test_unit_weight_hxe_gradient_is_ce_gradient(self, toy_tree):
        z = np.array([0.3, 0.1, -0.2])
        p = softmax(z)
        onehot = np.array([0.0, 1.0, 0.0])
        for kernel in HXE_KERNELS:
            with hxe_kernel(kernel):
                np.testing.assert_allclose(L.hxe_grad(toy_tree, 0.0, z, "B"),
                                           p - onehot, atol=1e-12)

    @pytest.mark.parametrize("kind", ["ce", "hxe_class", "hxe_cond", "soft"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(FD_SEEDS[kind])
        for _ in range(30):
            t = make_random_tree(rng, max_nodes=25)
            truth_idx = int(rng.integers(t.num_leaves))
            alpha = float(rng.uniform(0.0, 1.5))
            beta = float(rng.uniform(0.5, 20.0))
            if kind == "ce":
                objs = [L.ClassCrossEntropy(t)]
            elif kind == "hxe_class":
                objs = [class_hxe(t, alpha, k) for k in HXE_KERNELS]
            elif kind == "hxe_cond":
                objs = [L.ConditionalHxeObjective(t, alpha)]
            else:
                objs = [L.ClassSoftLabelObjective(L.soft_label_matrix(t, beta))]
            z = rng.normal(scale=2.0, size=objs[0].num_outputs)
            tarr = np.array([truth_idx])
            for obj in objs:
                analytic = obj.grad_batch(z[None, :], tarr)[0]
                numeric = finite_difference(
                    lambda zz: float(obj.loss_batch(zz[None, :], tarr)[0]), z)
                assert max_rel_error(analytic, numeric) < 1e-5


class TestConditionalHead:
    def test_all_zero_logits_balanced_tree(self):
        t = make_balanced_tree(2, 2)
        z = np.zeros(len(t.nonroot_bfs))
        depth = t.depth[t.leaves[0]]
        loss = L.ConditionalHxeObjective(t, 0.0).loss_batch(z[None, :], np.array([0]))
        np.testing.assert_allclose(loss[0], depth * math.log(2), atol=1e-12)

    def test_unit_weights_equal_neg_log_factorized(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = make_random_tree(rng, max_nodes=30)
            obj = L.ConditionalHxeObjective(t, 0.0)
            z = rng.normal(size=obj.num_outputs)
            i = int(rng.integers(t.num_leaves))
            loss = obj.loss_batch(z[None, :], np.array([i]))[0]
            log_p = obj.log_class_probs(z[None, :])[0, i]
            np.testing.assert_allclose(loss, -log_p, atol=1e-9)

    def test_reconstructed_class_probs_normalize(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = make_random_tree(rng, max_nodes=30)
            obj = L.ConditionalHxeObjective(t, 0.0)
            z = rng.normal(size=obj.num_outputs)
            p = np.exp(obj.log_class_probs(z[None, :])[0])
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)

    def test_output_length_on_toy_tree(self, toy_tree):
        obj = L.ConditionalHxeObjective(toy_tree, 0.0)
        assert obj.num_outputs == 4
        assert toy_tree.nonroot_bfs == ["D", "C", "A", "B"]


def class_coeff_oracle(tax, alpha) -> np.ndarray:
    """The dense kernel's ``coeff`` by a per-leaf ``ancestry`` walk: row
    ``i`` holds leaf ``i``'s coefficient on each node (0 off its lineage)."""
    K = np.zeros((tax.num_leaves, tax.num_nodes))
    for leaf in tax.leaves:
        i = tax.leaf_index[leaf]
        path = ancestry(tax, leaf)
        if len(path) == 1:  # leaf is the root; nothing to predict
            continue
        lam = [edge_weight(tax, alpha, n) for n in path[:-1]]
        K[i, tax.node_index[path[0]]] = lam[0]
        for l in range(1, len(path) - 1):
            K[i, tax.node_index[path[l]]] = lam[l] - lam[l - 1]
        K[i, tax.node_index[path[-1]]] = -lam[-1]
    return K


def class_hxe(tax, alpha, kernel):
    """``ClassHxeObjective(tax, alpha)`` with ``kernel`` forced."""
    with hxe_kernel(kernel):
        return L.ClassHxeObjective(tax, alpha)


def assert_paths_match_oracle(tax, alpha, path_kernel):
    """Row ``i`` of ``path`` is leaf ``i``'s ``ancestry`` (leaf first), then
    the root again; ``coef`` holds the oracle's coefficients along it and 0
    on the padding."""
    K = class_coeff_oracle(tax, alpha)
    path, coef = path_kernel.path, path_kernel.coef
    assert path.dtype == np.int32
    assert path.shape == (tax.num_leaves, tax.tree_height + 1)
    for leaf in tax.leaves:
        i = tax.leaf_index[leaf]
        lineage = [tax.node_index[n] for n in ancestry(tax, leaf)]
        pad = path.shape[1] - len(lineage)
        np.testing.assert_array_equal(path[i], lineage + [0] * pad)
        np.testing.assert_array_equal(coef[i], list(K[i, lineage]) + [0.0] * pad)


def assert_conditional_matches_dense(tax, alpha, rng):
    """The conditional head's group log-softmax, loss and gradient equal the
    dense formulation's bit for bit; its log leaf posteriors lie within
    1e-12 of the dense product and rank the classes alike."""
    obj, dense = L.ConditionalHxeObjective(tax, alpha), DenseConditionalHxe(tax, alpha)
    width = min(20, tax.num_leaves)
    for scale in (0.5, 5.0):
        Z = rng.normal(scale=scale, size=(17, obj.num_outputs))
        truth = rng.integers(tax.num_leaves, size=len(Z))
        np.testing.assert_array_equal(obj._log_softmax_groups(Z),
                                      dense.log_softmax_groups(Z))
        np.testing.assert_array_equal(obj.loss_batch(Z, truth),
                                      dense.loss_batch(Z, truth))
        np.testing.assert_array_equal(obj.grad_batch(Z, truth),
                                      dense.grad_batch(Z, truth))
        scores, oracle = obj.log_class_probs(Z), dense.log_class_probs(Z)
        np.testing.assert_allclose(scores, oracle, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(_top_ranks(scores, width),
                                      _top_ranks(oracle, width))


def sibling_block_tree(sizes: list[int]) -> Taxonomy:
    """Below a root with one child ``T``: a leaf ``x`` and one node with
    ``k`` leaf children for each ``k`` in ``sizes``."""
    groups = [f"g{i}" for i in range(len(sizes))]
    children = {"R": ["T"], "T": ["x", *groups]}
    for g, k in zip(groups, sizes):
        children[g] = [f"{g}.{j}" for j in range(k)]
    leaves = ["x"] + [leaf for g in groups for leaf in children[g]]
    return Taxonomy("R", children, leaves)


class TestObjectiveTreeData:
    @settings(max_examples=200, deadline=None)
    @given(shaped_trees(), st.sampled_from([0.0, 0.5, 0.9, 1.7]),
           st.integers(0, 2**32 - 1))
    def test_match_ancestry_oracles(self, tax, alpha, seed):
        np.testing.assert_array_equal(class_hxe(tax, alpha, "dense").kernel.coeff,
                                      class_coeff_oracle(tax, alpha))
        assert_paths_match_oracle(tax, alpha, class_hxe(tax, alpha, "path").kernel)
        assert_conditional_matches_dense(tax, alpha, np.random.default_rng(seed))

    @pytest.mark.parametrize("sizes", [[8], [9], [40], [8, 9, 40, 9, 2, 8]],
                             ids=["8", "9", "40", "mixed"])
    def test_conditional_head_on_sibling_blocks(self, sizes):
        # Groups of 1 (the root's), up to 8 (elementwise sums) and over 8
        # (np.add.reduceat) children.
        tax = sibling_block_tree(sizes)
        for alpha in (0.0, 0.7):
            assert_conditional_matches_dense(tax, alpha, np.random.default_rng(15))

    def test_root_that_is_its_only_leaf(self):
        tax = Taxonomy("R", {"R": []}, ["R"])
        dense = class_hxe(tax, 0.5, "dense").kernel
        np.testing.assert_array_equal(dense.coeff, class_coeff_oracle(tax, 0.5))
        assert dense.coeff.shape == (1, 1)
        assert_paths_match_oracle(tax, 0.5, class_hxe(tax, 0.5, "path").kernel)
        for kernel in HXE_KERNELS:
            obj = class_hxe(tax, 0.5, kernel)
            assert obj.loss_batch(np.zeros((1, 1)), np.array([0]))[0] == 0.0
            assert obj.grad_batch(np.zeros((1, 1)), np.array([0]))[0, 0] == 0.0
        with pytest.raises(ValueError, match="edges"):
            L.ConditionalHxeObjective(tax, 0.5)


def name_walk_layout(tax: Taxonomy, alpha: float) -> dict:
    """The HXE heads' tree tables as they were built from ``Taxonomy``'s
    name-keyed dicts before it kept an integer layout: the dense ``coeff``
    from one product per sibling group, the path kernel's ``path`` and
    ``coef``, and the conditional head's ``perm``, ``blocks`` and
    ``levels``."""
    index = tax.node_index
    lam = np.exp(-alpha * np.array([tax.depth[n] for n in tax.nonroot_bfs],
                                   dtype=float))
    parents = [n for n in tax.nodes_bfs if tax.children[n]]
    parent_rows = [index[n] for n in parents]
    starts = np.array([index[tax.children[n][0]] - 1 for n in parents], dtype=np.int64)
    M = tax.leaf_membership()
    coeff = np.multiply(M.T, np.concatenate(([0.0], lam)), order="C")
    for row, lo, hi in zip(parent_rows, starts, np.append(starts[1:], len(lam))):
        coeff[:, row] -= lam[lo:hi] @ M[1 + lo:1 + hi]
    parent = np.zeros(tax.num_nodes, dtype=np.int32)
    parent[1:] = [index[tax.parent[n]] for n in tax.nonroot_bfs]
    levels = np.empty((tax.tree_height + 1, tax.num_leaves), dtype=np.int32)
    levels[0] = [index[leaf] for leaf in tax.leaves]
    for j in range(1, len(levels)):
        parent.take(levels[j - 1], out=levels[j])
    path = levels.T.copy()
    sizes = np.diff(starts, append=len(lam))
    ks, counts = np.unique(sizes, return_counts=True)
    ends = np.cumsum(ks * counts).tolist()
    depth = [tax.depth[n] for n in tax.nodes_bfs]
    return {
        "coeff": coeff, "path": path,
        "coef": np.diff(np.concatenate(([0.0], lam))[path], axis=1, prepend=0.0),
        "perm": np.argsort(np.repeat(sizes, sizes), kind="stable"),
        "blocks": list(zip(ks.tolist(), [0] + ends[:-1], ends)),
        "levels": np.searchsorted(depth, np.arange(1, tax.tree_height + 2)),
    }


def layout_trees():
    """Random unbalanced trees, each whose root has several children also
    under a single-child root, and balanced ones."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        tax = make_random_tree(rng, max_nodes=120)
        yield tax
        if len(tax.children[tax.root]) > 1:
            yield under_single_child_root(tax)
    for branching, depth in [(2, 1), (2, 5), (3, 3), (3, 4), (5, 2), (9, 2)]:
        yield make_balanced_tree(branching, depth)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.7])
def test_tree_tables_keep_their_bytes(alpha):
    for tax in layout_trees():
        want = name_walk_layout(tax, alpha)
        dense = class_hxe(tax, alpha, "dense").kernel
        path = class_hxe(tax, alpha, "path").kernel
        cond = L.ConditionalHxeObjective(tax, alpha)
        got = {"coeff": dense.coeff, "path": path.path, "coef": path.coef,
               "perm": cond.perm, "levels": cond.levels}
        for name, table in got.items():
            assert table.dtype == want[name].dtype, name
            assert table.shape == want[name].shape, name
            assert table.tobytes() == want[name].tobytes(), name
        assert cond.blocks == want["blocks"]


class TestBatchSingleConsistency:
    def test_hxe_batch_matches_scalar_definition(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = make_random_tree(rng, max_nodes=25)
            alpha = float(rng.uniform(0, 1.2))
            z = rng.normal(size=t.num_leaves)
            p = softmax(z)
            i = int(rng.integers(t.num_leaves))
            scalar = hxe_walk(t, alpha, p, t.leaves[i])
            for kernel in HXE_KERNELS:
                obj = class_hxe(t, alpha, kernel)
                batch = float(obj.loss_batch(z[None, :], np.array([i]))[0])
                assert abs(batch - scalar) < 1e-9

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = make_random_tree(rng, max_nodes=25)
            p = random_prob_vector(rng, t.num_leaves)
            truth = t.leaves[rng.integers(t.num_leaves)]
            alpha = float(rng.uniform(0, 2))
            beta = float(rng.uniform(0, 30))
            ce = L.ClassCrossEntropy(t).loss_batch(
                np.log(p)[None, :], np.array([t.leaf_index[truth]]))[0]
            for value in (L.hxe_loss(t, alpha, p, truth),
                          L.soft_label_loss(t, beta, p, truth), ce):
                assert np.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("call", [
    lambda t: L.hxe_loss(t, 0.5, np.full(3, 1 / 3), "Z"),
    lambda t: L.hxe_grad(t, 0.5, np.zeros(3), "Z"),
    lambda t: L.soft_label_loss(t, 1.0, np.full(3, 1 / 3), "Z"),
], ids=["hxe_loss", "hxe_grad", "soft_label_loss"])
def test_unknown_truth_raises_unknown_node_error(toy_tree, call):
    with pytest.raises(UnknownNodeError, match="unknown leaf 'Z'"):
        call(toy_tree)


def tree_with_leaves(rng, min_leaves: int) -> Taxonomy:
    """An unbalanced random tree with at least ``min_leaves`` classes."""
    while True:
        tax = make_random_tree(rng, max_nodes=4 * min_leaves)
        if tax.num_leaves >= min_leaves:
            return tax


def under_single_child_root(tax: Taxonomy) -> Taxonomy:
    """``tax`` hung below a new root as its only child."""
    return Taxonomy("top", {"top": [tax.root], **tax.children}, tax.leaves)


class TestHxeKernels:
    def test_size_rule(self, balanced27):
        assert isinstance(L.ClassHxeObjective(balanced27, 0.5).kernel, L._DenseHxe)
        large = make_balanced_tree(3, 4)
        assert large.num_leaves >= L._PATH_KERNEL_MIN_LEAVES
        assert isinstance(L.ClassHxeObjective(large, 0.5).kernel, L._PathHxe)

    def test_kernels_agree(self):
        rng = np.random.default_rng(14)
        big = tree_with_leaves(rng, 300)
        trees = [big, under_single_child_root(big),
                 Taxonomy("R", {"R": []}, ["R"]),
                 Taxonomy("R", {"R": ["A"], "A": []}, ["A"])]
        for tax in trees:
            for alpha, scale in [(0.0, 0.1), (0.5, 1.0), (1.3, 10.0), (2.0, 40.0)]:
                Z = rng.normal(scale=scale, size=(33, tax.num_leaves))
                truth = rng.integers(tax.num_leaves, size=len(Z))
                dense, path = (class_hxe(tax, alpha, k) for k in HXE_KERNELS)
                np.testing.assert_allclose(path.loss_batch(Z, truth),
                                           dense.loss_batch(Z, truth),
                                           rtol=1e-12, atol=1e-13)
                np.testing.assert_allclose(path.grad_batch(Z, truth),
                                           dense.grad_batch(Z, truth),
                                           rtol=1e-12, atol=1e-14)

    def test_path_kernel_builds_no_dense_matrix(self):
        # A fresh tree each, so no membership matrix is cached on it; one
        # (L, N) array of even one byte an entry would break the bound.
        for objective in (L.ClassHxeObjective, L.ConditionalHxeObjective):
            tax = make_balanced_tree(3, 6)
            tracemalloc.start()
            try:
                obj = objective(tax, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tax.num_leaves * tax.num_nodes, objective
            assert tax._leaf_membership is None
        assert isinstance(L.ClassHxeObjective(tax, 0.5).kernel, L._PathHxe)


def test_outputs_are_c_contiguous():
    # A Fortran-ordered gradient takes backprop's product down another
    # rounding path, so the checkpoints would change with equal values.
    rng = np.random.default_rng(16)
    for tax in (make_balanced_tree(3, 3), tree_with_leaves(rng, 100)):
        objectives = [L.ClassCrossEntropy(tax),
                      *(class_hxe(tax, 0.5, k) for k in HXE_KERNELS),
                      L.ClassSoftLabelObjective(L.soft_label_matrix(tax, 2.0)),
                      L.ConditionalHxeObjective(tax, 0.5)]
        for obj in objectives:
            Z = rng.normal(size=(9, obj.num_outputs))
            outputs = [obj.grad_batch(Z, rng.integers(tax.num_leaves, size=9))]
            if isinstance(obj, L.ConditionalHxeObjective):
                outputs.append(obj.scores(Z))
            for out in outputs:
                assert out.dtype == np.float64 and out.flags.c_contiguous, obj


def every_objective(tax: Taxonomy, alpha: float) -> list:
    """Each objective on ``tax``, the class HXE under both kernels; the
    conditional head where the tree has edges."""
    objectives = [L.ClassCrossEntropy(tax),
                  *(class_hxe(tax, alpha, k) for k in HXE_KERNELS),
                  L.ClassSoftLabelObjective(L.soft_label_matrix(tax, 1.0 + alpha))]
    if tax.num_nodes > 1:
        objectives.append(L.ConditionalHxeObjective(tax, alpha))
    return objectives


def degenerate_rows(rng, width: int) -> np.ndarray:
    """Logit rows whose softmax puts all mass on one output (or takes it all
    from one), so that probabilities, masses and conditionals fall below
    ``EPS``."""
    Z = np.full((4, width), -800.0)
    Z[np.arange(4), rng.integers(width, size=4)] = 0.0
    Z[3] = np.where(Z[3] == 0.0, -800.0, 0.0)  # one output loses
    return Z


class TestFusedCalls:
    @settings(max_examples=100, deadline=None)
    @given(shaped_trees(), st.sampled_from([0.0, 0.5, 1.7]),
           st.integers(0, 2**32 - 1))
    def test_loss_and_grad_agree_with_loss_batch(self, tax, alpha, seed):
        rng = np.random.default_rng(seed)
        for obj in every_objective(tax, alpha):
            for Z in (rng.normal(scale=3.0, size=(11, obj.num_outputs)),
                      degenerate_rows(rng, obj.num_outputs)):
                truth = rng.integers(tax.num_leaves, size=len(Z))
                losses, dZ = obj.loss_and_grad(Z, truth)
                np.testing.assert_array_equal(losses, obj.loss_batch(Z, truth))
                assert np.isfinite(losses).all() and np.isfinite(dZ).all()
                assert dZ.dtype == np.float64 and dZ.flags.c_contiguous, obj
                assert dZ.shape == Z.shape
                np.testing.assert_array_equal(obj.grad_batch(Z, truth), dZ)
                val_losses, scores = obj.loss_and_scores(Z, truth)
                np.testing.assert_array_equal(val_losses, losses)
                np.testing.assert_array_equal(scores, obj.scores(Z))
                assert scores.flags.c_contiguous, obj

    def test_degenerate_rows_hit_the_clamps(self):
        # The rows above reach the EPS floors they are meant to test.
        tax = make_balanced_tree(3, 3)
        P = L.softmax_batch(degenerate_rows(np.random.default_rng(0),
                                            tax.num_leaves))
        assert (P < L.EPS).any(axis=1).all()
