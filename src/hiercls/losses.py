"""Hierarchy-aware classification losses and their analytic logit gradients.

Two families are implemented over a ``Taxonomy``:

* Hierarchical cross-entropy: the class posterior factorizes into conditional
  probabilities along the ground-truth lineage, and each lineage edge's
  log-conditional is weighted by ``exp(-alpha * depth)`` of its child node.
  With all weights equal to 1 it collapses to the ordinary cross-entropy.
  It can be driven either from class probabilities (one logit per leaf,
  single softmax) or from a conditional head (one logit per non-root node,
  one softmax per sibling group; the uniform-weight conditional variant is
  the classic conditional-classifier-chain baseline).

* Soft labels: cross-entropy against a row-stochastic target matrix whose
  mass decays as ``exp(-beta * d)`` in the normalized LCA distance ``d``
  from the true class. ``beta -> inf`` recovers one-hot targets,
  ``beta = 0`` the uniform distribution.

The batch objectives are the one implementation of each loss; ``hxe_loss``,
``hxe_grad`` and ``soft_label_loss`` evaluate them on a single sample.

Every log and denominator is floored at ``EPS`` so losses stay finite for
degenerate probability vectors; gradients are the exact gradients of the
floored losses (clamped coordinates contribute zero).
"""

from __future__ import annotations

import numpy as np

from .taxonomy import Taxonomy, UnknownNodeError

__all__ = [
    "EPS",
    "softmax_batch",
    "check_knob",
    "hxe_loss",
    "hxe_grad",
    "soft_label_matrix",
    "soft_label_loss",
    "ClassCrossEntropy",
    "ClassHxeObjective",
    "ClassSoftLabelObjective",
    "ConditionalHxeObjective",
]

EPS = 1e-12


def softmax_batch(Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    e = Z - Z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# Lineage weights and soft targets
# ---------------------------------------------------------------------------


def check_knob(name: str, value: float, prefix: str = "") -> None:
    """A loss's one knob (HXE ``alpha``, soft-label ``beta``) must be
    finite and >= 0; ``prefix`` leads the error message."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{prefix}{name} must be finite and >= 0, got {value}")


def _edge_weights(tax: Taxonomy, alpha: float) -> np.ndarray:
    """Per-edge weights ``exp(-alpha * depth(child))`` in ``nonroot_bfs``
    order. ``alpha = 0`` gives uniform weights (the plain cross-entropy
    limit); larger alpha discounts edges deeper in the tree, trading
    fine-grained for coarse correctness."""
    check_knob("alpha", alpha)
    return np.exp(-alpha * tax.depth_row[1:])


def soft_label_matrix(tax: Taxonomy, beta: float) -> np.ndarray:
    """Row-stochastic soft targets: row = true class, column = target class.

    Entry (C, A) is ``exp(-beta * d(A, C))`` normalized over A, with ``d``
    the normalized LCA distance. The diagonal is each row's maximum; rows of
    classes with identical distance profiles coincide, which makes the matrix
    symmetric on balanced trees (an unbalanced tree gives each row its own
    normalizer, so exact symmetry holds only when the rows' distance
    multisets agree).
    """
    check_knob("beta", beta)
    weights = np.exp(-beta * tax.distance_matrix())
    return weights / weights.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Batch objectives (loss and exact logit gradient)
# ---------------------------------------------------------------------------


class _Objective:
    """``loss_and_grad`` gives a batch's losses and their logit gradient
    from one pass; ``loss_batch`` and ``grad_batch`` are its halves. The
    gradient is C-ordered, except that the class path kernel's can come
    back Fortran-ordered from its final column gather. A class head ranks
    the classes by its leaf logits as they are."""

    def loss_batch(self, Z: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        return self.loss_and_grad(Z, truth_idx)[0]

    def grad_batch(self, Z: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        return self.loss_and_grad(Z, truth_idx)[1]

    @staticmethod
    def scores(Z: np.ndarray) -> np.ndarray:
        return Z

    def loss_and_scores(self, Z: np.ndarray, truth_idx: np.ndarray):
        return self.loss_batch(Z, truth_idx), Z


def _weighted_nll(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Each row's ``-sum(W * log(M))``, with ``M`` floored at ``EPS``."""
    return -(W * np.log(np.maximum(M, EPS))).sum(axis=1)


def _inverse(masses: np.ndarray) -> np.ndarray:
    """``1 / masses``, and 0 where a mass is clamped at ``EPS``."""
    return np.divide(1.0, masses, out=np.zeros_like(masses), where=masses > EPS)


class _ProbabilityLoss(_Objective):
    """A loss of the softmax probabilities ``P``. ``masses(P, truth_idx)``
    gives the truth rows' weights, the masses they weight and what else the
    gradient needs; ``prob_grad`` turns those into the gradient in ``P``.
    ``loss_batch`` takes no gradient: deriving it from ``loss_and_grad``
    slowed wide_class 2%."""

    def loss_from_probs(self, P: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        return _weighted_nll(*self.masses(P, truth_idx)[:2])

    def loss_batch(self, Z: np.ndarray, truth_idx: np.ndarray) -> np.ndarray:
        return self.loss_from_probs(softmax_batch(Z), truth_idx)

    def loss_and_grad(self, Z: np.ndarray, truth_idx: np.ndarray):
        P = softmax_batch(Z)
        weights, masses, extra = self.masses(P, truth_idx)
        G = self.prob_grad(weights, masses, extra)
        return (_weighted_nll(weights, masses),
                P * (G - (G * P).sum(axis=1, keepdims=True)))


class ClassCrossEntropy(_Objective):
    """Plain softmax cross-entropy over leaf logits."""

    def __init__(self, tax: Taxonomy):
        self.num_outputs = tax.num_leaves

    def loss_and_grad(self, Z: np.ndarray, truth_idx: np.ndarray):
        P = softmax_batch(Z)
        rows = np.arange(len(P))
        losses = -np.log(np.maximum(P[rows, truth_idx], EPS))
        P[rows, truth_idx] -= 1.0
        return losses, P


# Trees with at least this many classes take the path kernel. On balanced
# trees at batch 64 it was slower than the dense one at 27 and 64 classes,
# as fast at 81, and 7x faster at 729.
_PATH_KERNEL_MIN_LEAVES = 72


class _DenseHxe:
    """Small trees: all subtree masses as one product ``P @ membership.T``.

    Row ``i`` of the ``(L, num_nodes)`` ``coeff`` holds leaf ``i``'s lineage
    coefficients in their nodes' columns and 0 elsewhere; the root padding's
    coefficients are 0, so adding them changes no entry.
    """

    def __init__(self, tax: Taxonomy, coef: np.ndarray):
        self.membership = tax.leaf_membership()
        self.coeff = np.zeros((tax.num_leaves, tax.num_nodes))
        np.add.at(self.coeff, (np.arange(tax.num_leaves)[:, None], tax.lineage), coef)

    def masses(self, P: np.ndarray, truth_idx: np.ndarray):
        return self.coeff[truth_idx], P @ self.membership.T, None

    def prob_grad(self, K: np.ndarray, masses: np.ndarray, _) -> np.ndarray:
        return -(K * _inverse(masses)) @ self.membership


class _PathHxe:
    """Large trees: each truth's lineage alone, from the depth-first spans.

    ``path[i]`` is leaf ``i``'s row of ``tax.lineage`` and ``coef[i]`` holds
    its coefficients (0 on the padding). In depth-first leaf order the nested
    spans of a lineage cut ``[0, L)`` into ``2 * tree_height + 1``
    intervals: the leaf in the middle, and on either side of it the part of
    each ancestor's span outside its child's (empty where that child's span
    reaches the edge, and on the padding). A lineage node's mass is its
    child's mass plus its two interval sums, so no mass is a difference; and
    the gradient ``-sum(coef / mass)`` over the lineage nodes whose span
    holds a leaf is constant on each interval.
    """

    def __init__(self, tax: Taxonomy, coef: np.ndarray):
        self.path, self.coef = tax.lineage, coef
        self.lo, self.hi = tax.span.T.astype(np.int32)
        self.dfs_pos = tax.dfs_pos
        self.dfs_leaves = np.argsort(tax.dfs_pos)

    def masses(self, P: np.ndarray, truth_idx: np.ndarray):
        """The truth's coefficients, lineage masses (leaf first), widths."""
        B, L = P.shape
        # A zero column ends each row, so no interval start runs past it.
        Pd = np.zeros((B, L + 1))
        np.take(P, self.dfs_leaves, axis=1, out=Pd[:, :L])
        path = self.path[truth_idx]
        bounds = np.concatenate((self.lo[path[:, ::-1]], self.hi[path]), axis=1)
        widths = np.diff(bounds, axis=1)
        starts = bounds[:, :-1] + (L + 1) * np.arange(B)[:, None]
        sums = np.add.reduceat(Pd.ravel(), starts.ravel()).reshape(widths.shape)
        sums[widths == 0] = 0.0  # reduceat gives an empty interval's first entry
        # Interval H is the leaf; intervals H - j and H + j lie under lineage
        # node j but not under node j - 1.
        H = self.path.shape[1] - 1
        steps = sums[:, H:].copy()
        steps[:, 1:] += sums[:, H - 1::-1]
        return self.coef[truth_idx], np.cumsum(steps, axis=1), widths

    def prob_grad(self, coef: np.ndarray, masses: np.ndarray,
                  widths: np.ndarray) -> np.ndarray:
        # Level j's value holds on intervals H - j and H + j.
        level = -np.cumsum((coef * _inverse(masses))[:, ::-1], axis=1)[:, ::-1]
        per_interval = np.concatenate((level[:, ::-1], level[:, 1:]), axis=1)
        G = np.repeat(per_interval.ravel(), widths.ravel())
        return G.reshape(len(coef), len(self.dfs_pos))[:, self.dfs_pos]


class ClassHxeObjective(_ProbabilityLoss):
    """Hierarchical cross-entropy driven from leaf logits.

    The lineage sum telescopes into per-node coefficients on the log leaf
    masses, one row per class along ``tax.lineage``: the leaf keeps its own
    weight, each inner node gets (own weight - child-on-path weight), and
    the root gets minus the weight of its child on the path (root weight 0,
    so the padding gets 0). ``kernel`` evaluates them: ``_DenseHxe`` on
    trees with fewer than ``_PATH_KERNEL_MIN_LEAVES`` classes, ``_PathHxe``
    on larger ones.
    """

    def __init__(self, tax: Taxonomy, alpha: float):
        self.num_outputs = tax.num_leaves
        weights = np.concatenate(([0.0], _edge_weights(tax, alpha)))
        coef = np.diff(weights[tax.lineage], axis=1, prepend=0.0)
        large = tax.num_leaves >= _PATH_KERNEL_MIN_LEAVES
        self.kernel = (_PathHxe if large else _DenseHxe)(tax, coef)
        self.masses, self.prob_grad = self.kernel.masses, self.kernel.prob_grad


class ClassSoftLabelObjective(_ProbabilityLoss):
    """Cross-entropy against ``soft_label_matrix`` rows, over leaf logits."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.num_outputs = rows.shape[0]

    def masses(self, P: np.ndarray, truth_idx: np.ndarray):
        return self.rows[truth_idx], P, None

    def prob_grad(self, Y: np.ndarray, P: np.ndarray, _) -> np.ndarray:
        return np.divide(-Y, P, out=np.zeros_like(P), where=P > EPS)


class ConditionalHxeObjective(_Objective):
    """Hierarchical cross-entropy on a conditional head.

    Logits are indexed by the non-root nodes in breadth-first order, which
    keeps every sibling group contiguous; one softmax per group yields the
    edge conditionals directly. With uniform weights the loss equals
    ``-log`` of the factorized leaf posterior.

    ``perm`` sorts the groups by size into ``blocks``, each node-major
    ``(groups, k, batch)``: a group sum is ``k`` elementwise additions in
    ``np.add.reduceat``'s order, ``a0 + (a1 + ... + a(k-1))``. Above 8
    children, where numpy's pairwise summation sets in, ``np.add.reduceat``
    sums. The truth's row of ``path`` (``tax.lineage``) places the
    weights, and ``log_class_probs`` adds the conditionals top-down, a
    depth level at a time.
    """

    def __init__(self, tax: Taxonomy, alpha: float):
        self.num_outputs = tax.num_nodes - 1
        if self.num_outputs == 0:
            raise ValueError("conditional head needs a taxonomy with edges")
        self.lam = _edge_weights(tax, alpha)
        self.parent, self.path = tax.parent_row, tax.lineage
        # The size of each node's sibling group.
        sizes = np.bincount(self.parent[1:])[self.parent[1:]]
        self.perm = np.argsort(sizes, kind="stable")
        self.inv = np.argsort(self.perm)
        ks, counts = np.unique(sizes, return_counts=True)
        ends = np.cumsum(counts).tolist()
        self.blocks = list(zip(ks.tolist(), [0] + ends[:-1], ends))
        self.levels = np.searchsorted(tax.depth_row, np.arange(1, tax.tree_height + 2))

    def _log_conditionals(self, Z: np.ndarray) -> np.ndarray:
        """The group log-softmax of ``Z``, node-major ``(N, B)`` in ``perm``
        order."""
        X = np.asarray(Z, dtype=float).T[self.perm]
        E = np.empty_like(X)
        B = X.shape[1]
        for k, lo, hi in self.blocks:
            V, Ek = (A[lo:hi].reshape(-1, k, B) for A in (X, E))
            V -= V.max(axis=1, keepdims=True)
            np.exp(V, out=Ek)
            if k > 8:
                s = np.add.reduceat(E[lo:hi], np.arange(0, hi - lo, k), axis=0)
            else:
                tail = np.zeros((len(Ek), B))  # as numpy's pairwise sum starts
                for j in range(1, k):
                    tail += Ek[:, j]
                s = Ek[:, 0] + tail
            V -= np.log(s)[:, None]
        return X

    def _log_softmax_groups(self, Z: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._log_conditionals(Z)[self.inv].T)

    def log_class_probs(self, Z: np.ndarray) -> np.ndarray:
        """Log leaf posteriors, each the sum of its lineage's conditionals;
        they rank the classes. The weights play no part."""
        X = self._log_conditionals(Z)
        logp = np.empty((len(self.parent), X.shape[1]))
        np.take(X, self.inv, axis=0, out=logp[1:])
        return self._add_down(logp)

    scores = log_class_probs

    def _add_down(self, logp: np.ndarray) -> np.ndarray:
        """``log_class_probs`` from the log-conditionals in rows 1: of the
        node-major ``logp``, each row added to its parent's top-down."""
        logp[0] = 0.0
        for lo, hi in zip(self.levels[:-1], self.levels[1:]):
            logp[lo:hi] += logp[self.parent[lo:hi]]
        return np.ascontiguousarray(logp[self.path[:, 0]].T)

    def _edge_loss(self, q: np.ndarray, truth_idx: np.ndarray):
        """The losses of the group log-softmax ``q``, the ``(B, num_nodes)``
        mask of each truth's lineage (root included) and its edge weights."""
        path = self.path[truth_idx]
        on = np.zeros((len(path), len(self.parent)), dtype=bool)
        on[np.arange(len(path))[:, None], path] = True
        lam = self.lam * on[:, 1:]
        return -(lam * q).sum(axis=1), on, lam

    def loss_and_grad(self, Z: np.ndarray, truth_idx: np.ndarray):
        q = self._log_softmax_groups(Z)
        losses, on, lam = self._edge_loss(q, truth_idx)
        np.exp(q, out=q)
        # A group's weight is its lineage child's: the weight of its depth,
        # which every sibling shares.
        q *= self.lam * on[:, self.parent[1:]]
        q -= lam
        return losses, q

    def loss_and_scores(self, Z: np.ndarray, truth_idx: np.ndarray):
        """``loss_batch`` and ``scores`` from one group log-softmax."""
        q = self._log_softmax_groups(Z)
        losses = self._edge_loss(q, truth_idx)[0]
        logp = np.empty((len(self.parent), len(q)))
        logp[1:] = q.T
        del q  # before the scores' own (B, L) arrays are built
        return losses, self._add_down(logp)


# ---------------------------------------------------------------------------
# Single-sample surface over the batch objectives
# ---------------------------------------------------------------------------


def _leaf_position(tax: Taxonomy, truth: str) -> int:
    """Canonical index of class ``truth``; ``UnknownNodeError`` if it is not
    a class."""
    try:
        return tax.leaf_index[truth]
    except KeyError:
        raise UnknownNodeError(f"unknown leaf {truth!r}") from None


def _one(fn, v, idx):
    return fn(np.asarray(v, dtype=float)[None, :], np.array([idx]))[0]


def hxe_loss(tax: Taxonomy, alpha: float, p: np.ndarray, truth: str) -> float:
    """Hierarchical cross-entropy of class probabilities ``p``: the weighted
    information of each lineage edge on the truth's path. Equals
    ``-log p(truth)`` when ``alpha = 0``."""
    idx = _leaf_position(tax, truth)
    return float(_one(ClassHxeObjective(tax, alpha).loss_from_probs, p, idx))


def hxe_grad(tax: Taxonomy, alpha: float, z: np.ndarray, truth: str) -> np.ndarray:
    """Gradient of the class-head hierarchical cross-entropy w.r.t. leaf logits."""
    idx = _leaf_position(tax, truth)
    return _one(ClassHxeObjective(tax, alpha).grad_batch, z, idx)


def soft_label_loss(tax: Taxonomy, beta: float, p: np.ndarray, truth: str) -> float:
    """Cross-entropy of class probabilities ``p`` against the soft target
    row of ``truth``."""
    idx = _leaf_position(tax, truth)
    rows = soft_label_matrix(tax, beta)
    return float(_one(ClassSoftLabelObjective(rows).loss_from_probs, p, idx))
