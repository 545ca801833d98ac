import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from hiercls import losses
from hiercls.losses import EPS
from hiercls.taxonomy import (Taxonomy, TaxonomyGraph, UnknownNodeError,
                              load_edges, prune_to_tree)

TOY_TREE_EDGES = "R\tD\nR\tC\nD\tA\nD\tB\n"
TOY_TREE_LEAVES = ["A", "B", "C"]
# Floats whose text form a codec could get wrong: the signed zeros, the
# smallest subnormals and the largest finite values.
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308]


@pytest.fixture
def toy_tree() -> Taxonomy:
    """Three classes, two siblings under one branch plus a lone shallow leaf."""
    return prune_to_tree(load_edges(TOY_TREE_EDGES), TOY_TREE_LEAVES)


# The two kernels of ``ClassHxeObjective``; ``hxe_kernel`` forces one.
HXE_KERNELS = ("dense", "path")


@contextmanager
def hxe_kernel(kernel: str):
    """Within the block, ``ClassHxeObjective`` (and so ``hxe_loss`` and
    ``hxe_grad``) takes ``kernel`` on every tree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_PATH_KERNEL_MIN_LEAVES",
                   0 if kernel == "path" else math.inf)
        yield


def make_balanced_tree(branching: int = 3, depth: int = 3) -> Taxonomy:
    """Uniform tree: every internal node has ``branching`` children."""
    edges, leaves = [], []

    def grow(name: str, level: int):
        for i in range(branching):
            child = f"{name}.{i}" if name != "root" else f"n{i}"
            edges.append((name, child))
            if level + 1 == depth:
                leaves.append(child)
            else:
                grow(child, level + 1)

    grow("root", 0)
    text = "".join(f"{a}\t{b}\n" for a, b in edges)
    return prune_to_tree(load_edges(text), leaves)


@pytest.fixture(scope="session")
def balanced27() -> Taxonomy:
    return make_balanced_tree(3, 3)


def make_random_tree(rng: np.random.Generator, max_nodes: int = 200) -> Taxonomy:
    """Random single-rooted tree built through the pruning path, so all
    Taxonomy invariants hold (single-child chains get spliced)."""
    n = int(rng.integers(4, max_nodes + 1))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    edges = {(f"v{p}", f"v{i + 1}") for i, p in enumerate(parents)}
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    graph = TaxonomyGraph.from_edges(edges)
    return prune_to_tree(graph, sinks)


def make_random_dag(rng: np.random.Generator, max_nodes: int = 300):
    """Random single-rooted DAG plus a class list drawn from its sinks."""
    n = int(rng.integers(6, max_nodes + 1))
    edges = set()
    for i in range(1, n):
        k = int(rng.integers(1, min(3, i) + 1))
        for p in rng.choice(i, size=k, replace=False):
            edges.add((f"v{p}", f"v{i}"))
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    take = max(2, int(rng.integers(2, len(sinks) + 1))) if len(sinks) > 2 else len(sinks)
    chosen = [sinks[i] for i in sorted(rng.choice(len(sinks), size=take, replace=False))]
    return TaxonomyGraph.from_edges(edges), chosen


# ---------------------------------------------------------------------------
# Reference walks: per-node parent-pointer walks that the span matrices and
# batch objectives in ``hiercls`` are checked against.
# ---------------------------------------------------------------------------


def ancestry(tax: Taxonomy, node: str) -> list[str]:
    """Path from ``node`` to the root, inclusive on both ends."""
    if node not in tax.node_index:
        raise UnknownNodeError(f"unknown node {node!r}")
    path = [node]
    while path[-1] != tax.root:
        path.append(tax.parent[path[-1]])
    return path


def lca(tax: Taxonomy, a: str, b: str) -> str:
    """Deepest common ancestor-or-self of ``a`` and ``b``, by walking the
    deeper node up to the other's depth, then both up together."""
    for n in (a, b):
        if n not in tax.node_index:
            raise UnknownNodeError(f"unknown node {n!r}")
    while tax.depth[a] > tax.depth[b]:
        a = tax.parent[a]
    while tax.depth[b] > tax.depth[a]:
        b = tax.parent[b]
    while a != b:
        a, b = tax.parent[a], tax.parent[b]
    return a


def lca_height(tax: Taxonomy, a: str, b: str) -> int:
    return tax.height[lca(tax, a, b)]


def normalized_distance(tax: Taxonomy, a: str, b: str) -> float:
    """LCA height over the tree height; 0 iff ``a == b``."""
    return lca_height(tax, a, b) / tax.tree_height if tax.tree_height else 0.0


def brute_lca(tax: Taxonomy, a: str, b: str) -> str:
    """Intersect full ancestor chains, take the deepest member."""
    chain_a = ancestry(tax, a)
    common = [n for n in chain_a if n in set(ancestry(tax, b))]
    return max(common, key=lambda n: tax.depth[n])


def conditionals_from_class_probs(tax: Taxonomy, p: np.ndarray) -> dict[str, float]:
    """Edge conditionals implied by class probabilities, keyed by the child
    node: its subtree's leaf mass over its parent's (floored at ``EPS``),
    each mass summed bottom-up over the node's children."""
    mass = {leaf: float(p[i]) for i, leaf in enumerate(tax.leaves)}
    for node in reversed(tax.nodes_bfs):
        if tax.children[node]:
            mass[node] = sum(mass[kid] for kid in tax.children[node])
    return {n: mass[n] / max(mass[tax.parent[n]], EPS) for n in tax.nonroot_bfs}


def factorized_prob(tax: Taxonomy, conditionals: dict[str, float], leaf: str) -> float:
    """Product of edge conditionals along the leaf-to-root path."""
    if leaf not in tax.leaf_index:
        raise UnknownNodeError(f"unknown leaf {leaf!r}")
    prob = 1.0
    for node in ancestry(tax, leaf)[:-1]:
        prob *= conditionals[node]
    return prob


def edge_weight(tax: Taxonomy, alpha: float, node: str) -> float:
    """The HXE weight ``exp(-alpha * depth)`` of the edge into ``node``."""
    return float(np.exp(-alpha * tax.depth[node]))


def hxe_walk(tax: Taxonomy, alpha: float, p: np.ndarray, truth: str) -> float:
    """Hierarchical cross-entropy as the paper writes it: the weighted
    information of each edge conditional along the truth's lineage."""
    conds = conditionals_from_class_probs(tax, p)
    return float(-sum(edge_weight(tax, alpha, n) * np.log(max(conds[n], EPS))
                      for n in ancestry(tax, truth)[:-1]))


class DenseConditionalHxe:
    """The conditional head in its dense formulation: one ``np.add.reduceat``
    log-softmax over the sibling groups, ``lam`` times each truth's lineage
    indicator row (from ``ancestry`` walks), and log leaf posteriors as one
    product with the ``(L, N)`` indicator."""

    def __init__(self, tax: Taxonomy, alpha: float):
        sizes = [len(tax.children[n]) for n in tax.nodes_bfs if tax.children[n]]
        self.starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.sizes = np.array(sizes)
        self.lam = np.array([edge_weight(tax, alpha, n) for n in tax.nonroot_bfs])
        col = {n: i for i, n in enumerate(tax.nonroot_bfs)}
        self.path_indicator = np.zeros((tax.num_leaves, len(col)))
        for leaf in tax.leaves:
            for node in ancestry(tax, leaf)[:-1]:
                self.path_indicator[tax.leaf_index[leaf], col[node]] = 1.0

    def _expand(self, per_group: np.ndarray) -> np.ndarray:
        return np.repeat(per_group, self.sizes, axis=1)

    def log_softmax_groups(self, Z: np.ndarray) -> np.ndarray:
        gmax = np.maximum.reduceat(Z, self.starts, axis=1)
        shifted = Z - self._expand(gmax)
        gsum = np.add.reduceat(np.exp(shifted), self.starts, axis=1)
        return shifted - self._expand(np.log(gsum))

    def log_class_probs(self, Z: np.ndarray) -> np.ndarray:
        return self.log_softmax_groups(Z) @ self.path_indicator.T

    def loss_batch(self, Z: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        logq = self.log_softmax_groups(Z)
        return -(self.path_indicator[truth_idx] * self.lam * logq).sum(axis=1)

    def grad_batch(self, Z: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        q = np.exp(self.log_softmax_groups(Z))
        lam = self.path_indicator[truth_idx] * self.lam
        group_w = np.add.reduceat(lam, self.starts, axis=1)
        return q * self._expand(group_w) - lam


def random_prob_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    p = rng.random(size) + 1e-6
    return p / p.sum()


def finite_difference(f, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    g = np.zeros_like(z, dtype=float)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute deviation scaled by the largest numeric component."""
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


@st.composite
def shaped_trees(draw):
    """A taxonomy built through the pruning path in one of four shapes, with
    its class list shuffled so canonical and depth-first order differ."""
    shape = draw(st.sampled_from(["random", "deep", "fan", "single_child_root"]))
    n = draw(st.integers(2, 30))
    if shape == "fan":  # every class hangs off the root
        parents = [0] * (n - 1)
    elif shape == "deep":  # each node hangs off one of the two newest
        parents = [draw(st.integers(max(0, i - 2), i - 1)) for i in range(1, n)]
    elif shape == "single_child_root":  # the root's only child holds the rest
        parents = [0] + [draw(st.integers(1, i - 1)) for i in range(2, n)]
    else:
        parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(f"v{p}", f"v{i}") for i, p in enumerate(parents, start=1)}
    has_child = {p for p, _ in edges}
    sinks = [f"v{i}" for i in range(n) if f"v{i}" not in has_child]
    classes = draw(st.permutations(sinks))
    return prune_to_tree(TaxonomyGraph.from_edges(edges), list(classes))
