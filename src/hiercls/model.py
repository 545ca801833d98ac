"""Small trainable softmax classifiers with two output heads, a from-scratch
Adam optimizer, a deterministic training loop, and validation-loss-based
checkpoint selection.

A model is affine by default (one weight matrix and bias); an optional
single hidden layer uses tanh, whose closed-form derivative keeps all
gradients analytic. The ``class`` head emits one logit per leaf; the
``conditional`` head emits one logit per non-root node and is normalized per
sibling group by the loss. Training is strictly single-threaded and seeded,
so identical inputs reproduce traces bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import losses as L
from .fileio import _lines, float_or_nan, read_header
from .metrics import MetricReport, report_from_indices
from .taxonomy import Taxonomy

__all__ = [
    "build_objective",
    "ClassifierModel",
    "init_model",
    "forward",
    "AdamOptimizer",
    "TrainSchedule",
    "CheckpointRecord",
    "TrainingDivergedError",
    "SettingError",
    "train",
    "fit_polynomial",
    "polynomial_minimum",
    "select_checkpoints",
    "evaluate_model",
    "checkpoint_to_text",
    "checkpoint_from_text",
]

HEADS = ("class", "conditional")
# Loss kind -> the name of its one parameter (ce takes none).
LOSS_PARAMETERS = {"ce": None, "hxe": "alpha", "soft": "beta"}
# Rows a scoring block takes of a split's whole logits: a blocked forward
# pass, or a 1-row block (never from np.array_split), changed bits.
_SCORE_ROWS = 128
# Values formatted per join in checkpoint_to_text, and parsed per array in
# checkpoint_from_text.
_CHECKPOINT_CHUNK = 4096


class TrainingDivergedError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


class SettingError(ValueError):
    """A bad value of the run setting ``key``."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def build_objective(tax: Taxonomy, loss: str, param: float | None, head: str):
    """Bind loss ``loss`` (``ce``; ``hxe``, whose ``param`` is alpha; or
    ``soft``, whose ``param`` is beta) to a taxonomy and head; returns a
    batch objective with ``loss_and_grad`` (losses and logit gradient),
    ``loss_batch``, ``scores`` and ``loss_and_scores``, each one pass. An
    unknown loss, or hxe or soft without ``param`` or with one that is not
    finite and >= 0, raises ``ValueError``."""
    if loss not in LOSS_PARAMETERS:
        raise ValueError(f"unknown loss kind {loss!r}")
    if LOSS_PARAMETERS[loss] and param is None:
        raise ValueError(f"{loss} loss needs {LOSS_PARAMETERS[loss]}")
    if head not in HEADS:
        raise ValueError(f"head must be one of {HEADS}, got {head!r}")
    if head == "conditional":
        if loss == "soft":
            raise ValueError("soft labels require the class head")
        return L.ConditionalHxeObjective(tax, 0.0 if loss == "ce" else param)
    if loss == "ce":
        return L.ClassCrossEntropy(tax)
    if loss == "hxe":
        return L.ClassHxeObjective(tax, param)
    return L.ClassSoftLabelObjective(L.soft_label_matrix(tax, param))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class ClassifierModel:
    """A model's parameters live in one flat float64 vector, in checkpoint
    order: layer by layer, weight matrix row-major, then bias. ``layers``
    holds ``(W, b)`` views of it, one per ``(d_in, d_out)`` in ``shapes``."""

    head: str
    params: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.layers = _layer_views(self.params, self.shapes)
        self.input_dim, self.output_dim = self.shapes[0][0], self.shapes[-1][1]


def _layer_views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    views, pos = [], 0
    for d_in, d_out in shapes:
        end = pos + d_in * d_out
        views.append((flat[pos:end].reshape(d_in, d_out), flat[end:end + d_out]))
        pos = end + d_out
    return views


def output_dim_for(tax: Taxonomy, head: str) -> int:
    if head == "class":
        return tax.num_leaves
    if head == "conditional":
        return len(tax.nonroot_bfs)
    raise ValueError(f"head must be one of {HEADS}, got {head!r}")


def init_model(tax: Taxonomy, head: str, input_dim: int, seed: int,
               hidden_dim: int | None = None) -> ClassifierModel:
    """Seeded uniform init in [-0.01, 0.01]; affine unless hidden_dim set."""
    if hidden_dim is not None and hidden_dim < 1:
        raise SettingError("hidden_dim", f"hidden_dim must be >= 1, got {hidden_dim}")
    out = output_dim_for(tax, head)
    rng = np.random.default_rng([seed, 0])
    dims = [input_dim, out] if hidden_dim is None else [input_dim, hidden_dim, out]
    shapes = tuple(zip(dims[:-1], dims[1:]))
    n = sum(d_in * d_out + d_out for d_in, d_out in shapes)
    return ClassifierModel(head, rng.uniform(-0.01, 0.01, size=n), shapes)


def forward(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch; tanh between stacked layers."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} features, got {X.shape[1]}")
    return _forward_with_acts(model, X)[1]


def _forward_with_acts(model, X):
    acts = [X]
    h = X
    for W, b in model.layers[:-1]:
        h = np.tanh(h @ W + b)
        acts.append(h)
    W, b = model.layers[-1]
    Z = h @ W
    Z += b  # in place: one (rows, outputs) array, the same sums
    return acts, Z


def backprop(model: ClassifierModel, X: np.ndarray, dZ: np.ndarray,
             acts=None) -> np.ndarray:
    """Gradient of the batch-mean loss w.r.t. ``model.params`` (same flat
    order), given the per-sample logit gradients ``dZ``."""
    if acts is None:
        acts, _ = _forward_with_acts(model, X)
    B = len(X)
    delta = dZ
    grads: list[np.ndarray] = []
    for li in reversed(range(len(model.layers))):
        grads[:0] = [(acts[li].T @ delta / B).ravel(), delta.mean(axis=0)]
        if li > 0:
            delta = (delta @ model.layers[li][0].T) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamOptimizer:
    """Standard Adam recurrence with bias correction.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    v: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    _work: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False,
                              repr=False)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise SettingError("lr", f"lr must be > 0 and finite, got {self.lr}")

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One step on the flat ``params`` in place. ``grads`` (float64, of
        ``params``' shape) is consumed: once the moments hold it, it serves
        as a work row, and its values are lost."""
        if not self.m.size:
            # m, v and one work row share one allocation, and a step
            # makes none.
            self.m, self.v, self._work = np.zeros((3,) + params.shape)
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        m, v, a = self.m, self.v, self._work
        # The recurrence's operations in numpy's order for the expressions
        # above: ((1-b2)*g)*g, then lr*(m/c1), then / (sqrt(v/c2)+eps).
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=a)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grads, out=a)
        v += np.multiply(a, grads, out=a)
        # The moments hold g now: its row is the second work row.
        np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
        np.sqrt(np.divide(v, c2, out=grads), out=grads)
        params -= np.divide(a, np.add(grads, self.eps, out=grads), out=a)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSchedule:
    """One run's schedule; ``SweepConfig`` holds the defaults."""

    steps: int
    batch_size: int
    checkpoint_every: int
    seed: int

    def __post_init__(self):
        for key in ("steps", "batch_size", "checkpoint_every"):
            if getattr(self, key) < 1:
                raise SettingError(key, f"{key} must be >= 1, got {getattr(self, key)}")


@dataclass
class CheckpointRecord:
    step: int
    train_loss: float
    val_loss: float
    report: MetricReport
    params: np.ndarray | None  # None where a sweep worker leaves them behind


def train(tax: Taxonomy, model: ClassifierModel, train_ds, val_ds, eval_ds,
          obj, optimizer: AdamOptimizer, schedule: TrainSchedule,
          ks: tuple[int, ...]) -> list[CheckpointRecord]:
    """Seeded mini-batch training of ``model`` under the objective ``obj``,
    with periodic checkpoints; returns their records in step order.

    Batches are drawn from a fresh seeded shuffle each epoch (trailing
    partial batches are skipped). Each step makes one ``obj.loss_and_grad``
    call for the batch's losses and logit gradient. Every
    ``checkpoint_every`` steps a record holds the running training loss, the
    ``val_ds`` loss, a metric report on ``eval_ds`` ranked by ``obj.scores``
    (loss and scores from one ``obj.loss_and_scores`` call when ``eval_ds``
    is ``val_ds``), and a parameter snapshot. Non-finite losses abort
    immediately, before the update.
    """
    if obj.num_outputs != model.output_dim:
        raise ValueError("model output dim does not match head for this taxonomy")
    X = train_ds.features
    t = train_ds.label_indices(tax)
    tv = val_ds.label_indices(tax)
    te = tv if eval_ds is val_ds else eval_ds.label_indices(tax)
    rng = np.random.default_rng([schedule.seed, 1])
    n = len(X)
    bsz = min(schedule.batch_size, n)
    perm = rng.permutation(n)
    pos = 0
    records: list[CheckpointRecord] = []
    run_sum, run_count = 0.0, 0
    for step in range(1, schedule.steps + 1):
        if pos + bsz > n:
            perm = rng.permutation(n)
            pos = 0
        idx = perm[pos:pos + bsz]
        pos += bsz
        run_sum += _step(model, obj, optimizer, X, t, idx, step)
        run_count += 1
        if step % schedule.checkpoint_every == 0:
            val_loss, ranks = _validate(model, obj, val_ds, tv, eval_ds, max(ks))
            records.append(CheckpointRecord(
                step=step,
                train_loss=run_sum / run_count,
                val_loss=val_loss,
                report=report_from_indices(tax, ranks, te, tuple(ks)),
                params=model.params.copy(),
            ))
            run_sum, run_count = 0.0, 0
    return records


def _step(model, obj, optimizer, X, t, idx, step) -> float:
    """One training step on the batch rows ``idx`` of ``X`` (labels ``t``);
    returns the batch's mean loss. Its logits, gradients and activations
    die when it returns, so a checkpoint does not hold them."""
    Xb = X[idx]
    acts, Z = _forward_with_acts(model, Xb)
    batch_losses, dZ = obj.loss_and_grad(Z, t[idx])
    loss = float(batch_losses.mean())
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            f"non-finite loss {loss} at step {step} "
            f"(batch rows {idx[:5].tolist()}...)"
        )
    optimizer.update(model.params, backprop(model, Xb, dZ, acts=acts))
    return loss


def _top_ranks(scores: np.ndarray, width: int) -> np.ndarray:
    """Column indices of each row's ``width`` highest scores, best first,
    ties to the lower index: ``argsort(-scores, kind="stable")[:, :width]``.

    A partial partition picks each row's top set and only that slice is
    sorted. A row whose ties straddle the ``width``-th place (or that holds
    NaN there) could have a different top set, so it is fully sorted. So is
    every row when ``width`` exceeds a third of the row: measured on 27- to
    880-column scores, the partition and slice sort then cost as much as a
    full sort.
    """
    neg = -scores
    if 3 * width > neg.shape[1]:
        return np.argsort(neg, axis=1, kind="stable")[:, :width]
    top = np.sort(np.argpartition(neg, width - 1, axis=1)[:, :width], axis=1)
    vals = np.take_along_axis(neg, top, axis=1)
    top = np.take_along_axis(top, np.argsort(vals, axis=1, kind="stable"), axis=1)
    kth = vals.max(axis=1, keepdims=True)
    redo = np.flatnonzero((neg <= kth).sum(axis=1) != width)
    if redo.size:
        top[redo] = np.argsort(neg[redo], axis=1, kind="stable")[:, :width]
    return top


def _in_blocks(fn, *arrays):
    """``fn`` on each block of at most ``_SCORE_ROWS`` same rows of
    ``arrays``; each of its results concatenated over the blocks."""
    split = (np.array_split(a, -(-len(a) // _SCORE_ROWS)) for a in arrays)
    return [np.concatenate(r) for r in zip(*(fn(*b) for b in zip(*split)))]


def _ranks(obj, Z, width):
    return _in_blocks(lambda Zb: (_top_ranks(obj.scores(Zb), width),), Z)[0]


def _validate(model, obj, val_ds, tv, eval_ds, width):
    """A checkpoint's mean ``val_ds`` loss (``tv`` its labels) and top
    ``width`` ranks of ``eval_ds``, from one forward pass per split."""
    if eval_ds is val_ds:
        def block(Zb, t):
            losses, S = obj.loss_and_scores(Zb, t)
            return losses, _top_ranks(S, width)
        losses, ranks = _in_blocks(block, forward(model, val_ds.features), tv)
    else:
        losses, = _in_blocks(lambda Zb, t: (obj.loss_batch(Zb, t),),
                             forward(model, val_ds.features), tv)
        ranks = _ranks(obj, forward(model, eval_ds.features), width)
    return float(losses.mean()), ranks


def evaluate_model(tax: Taxonomy, model: ClassifierModel, ds, obj,
                   ks: tuple[int, ...]) -> MetricReport:
    """Metric report for one parameter set, ranked by ``obj.scores``: any
    objective of the model's head, built once by the caller (class-head
    scores are the logits, conditional-head scores the factorized log leaf
    posteriors), in blocks of ``_SCORE_ROWS`` rows after one forward pass.
    Each example ranks only its top ``max(ks)`` classes (a partial
    partition, then a sort of that slice, when that is at most a third of
    the classes); ties break toward the lower canonical class index, exactly
    as a full stable sort of the negated scores would order them."""
    R = _ranks(obj, forward(model, ds.features), max(ks))
    return report_from_indices(tax, R, ds.label_indices(tax), tuple(ks))


# ---------------------------------------------------------------------------
# Checkpoint selection (validation-loss quartic fit)
# ---------------------------------------------------------------------------


def fit_polynomial(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial coefficients, ascending order, via lstsq on
    the Vandermonde system."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    V = np.vander(x, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(V, y, rcond=None)
    return coeffs


def polynomial_minimum(coeffs: np.ndarray, lo: float, hi: float) -> float:
    """Argmin of the polynomial over [lo, hi]; ties go to the smaller x."""
    coeffs = np.asarray(coeffs, dtype=float)
    deriv = np.polyder(coeffs[::-1])  # highest power first
    candidates = [lo, hi]
    if not np.allclose(deriv, 0.0):
        for r in np.roots(deriv):
            if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12:
                candidates.append(float(np.clip(r.real, lo, hi)))
    candidates = sorted(set(candidates))
    vals = [float(np.polyval(coeffs[::-1], c)) for c in candidates]
    return candidates[int(np.argmin(vals))]


def select_checkpoints(records: list[CheckpointRecord],
                       discard_before: int) -> list[int]:
    """Pick 5 indices into ``records`` around the minimum of a degree-4 fit
    of the validation loss against the step number.

    Checkpoints at steps <= ``discard_before`` are dropped first. The fit is
    evaluated inside the retained step range; the nearest retained checkpoint
    anchors a symmetric 5-wide index window, clipped at the ends.
    """
    retained = [i for i, r in enumerate(records) if r.step > discard_before]
    if len(retained) < 5:
        raise ValueError(
            f"need at least 5 checkpoints after step {discard_before}, "
            f"have {len(retained)}"
        )
    steps = np.array([records[i].step for i in retained], dtype=float)
    losses = np.array([records[i].val_loss for i in retained])
    if len(set(steps.tolist())) < 5:
        raise ValueError("degenerate fit: fewer than 5 distinct steps")
    mid = (steps[0] + steps[-1]) / 2.0
    half = (steps[-1] - steps[0]) / 2.0
    coeffs = fit_polynomial((steps - mid) / half, losses, 4)
    u_star = polynomial_minimum(coeffs, -1.0, 1.0)
    s_star = mid + half * u_star
    j = int(np.argmin(np.abs(steps - s_star)))
    lo = min(max(j - 2, 0), len(retained) - 5)
    return [retained[i] for i in range(lo, lo + 5)]


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------


def checkpoint_to_text(model: ClassifierModel, step: int, taxonomy_hash: str) -> str:
    """Flat text checkpoint: header comments, then one parameter per line in
    ``model.params`` order (layer by layer, weight matrix row-major, then
    bias)."""
    shapes = ";".join(f"{d_in}x{d_out}" for d_in, d_out in model.shapes)
    return "\n".join([
        "# format=hiercls-checkpoint-v1",
        f"# head={model.head}",
        f"# input_dim={model.input_dim}",
        f"# output_dim={model.output_dim}",
        f"# layer_shapes={shapes}",
        f"# step={step}",
        f"# taxonomy_hash={taxonomy_hash}",
        *("\n".join(map(repr, model.params[i:i + _CHECKPOINT_CHUNK].tolist()))
          for i in range(0, model.params.size, _CHECKPOINT_CHUNK)),
    ]) + "\n"


_CHECKPOINT_KEYS = ("head", "input_dim", "output_dim", "layer_shapes", "step",
                    "taxonomy_hash")


def checkpoint_from_text(text: str, source: str = "checkpoint"
                         ) -> tuple[ClassifierModel, int, str]:
    """Read a ``checkpoint_to_text`` document: the header lines, then the
    values. A missing or inconsistent header key, a value count that does
    not fit ``layer_shapes``, or a value that is not a finite float raises
    ``ValueError`` naming ``source`` (and the line, for a value). The values
    are parsed one chunk of lines at a time into the parameter vector."""
    meta, n_meta = read_header(_lines(text))
    if meta.get("format") != "hiercls-checkpoint-v1":
        raise ValueError(f"{source}: not a recognizable checkpoint file")
    missing = [key for key in _CHECKPOINT_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{source}: missing header key {missing[0]!r}")
    if meta["head"] not in HEADS:
        raise ValueError(f"{source}: head must be one of {HEADS}, "
                         f"got {meta['head']!r}")
    try:
        shapes = tuple((int(d_in), int(d_out)) for d_in, d_out in
                       (s.split("x") for s in meta["layer_shapes"].split(";")))
        dims = (int(meta["input_dim"]), int(meta["output_dim"]))
        step = int(meta["step"])
    except ValueError as exc:
        raise ValueError(f"{source}: bad header value: {exc}") from None
    if (dims != (shapes[0][0], shapes[-1][1]) or min(map(min, shapes)) < 1
            or any(a[1] != b[0] for a, b in zip(shapes, shapes[1:]))):
        raise ValueError(f"{source}: input_dim={dims[0]} and output_dim={dims[1]}"
                         f" do not fit layer_shapes={meta['layer_shapes']}, or "
                         "its layers do not chain")
    n = sum(d_in * d_out + d_out for d_in, d_out in shapes)
    params, count = np.empty(n), 0
    body = islice(_lines(text), n_meta, None)
    while chunk := list(islice(body, _CHECKPOINT_CHUNK)):
        if count + len(chunk) > n:  # too many values: count the rest
            count += len(chunk) + sum(1 for _ in body)
            break
        try:
            params[count:count + len(chunk)] = np.array(chunk, dtype=float)
        except ValueError:  # parse line by line; the bad one reads as NaN
            params[count:count + len(chunk)] = [float_or_nan(v) for v in chunk]
        count += len(chunk)
    if count != n:
        raise ValueError(f"{source}: {count} values, but "
                         f"layer_shapes={meta['layer_shapes']} needs {n}")
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:  # find the bad value's line again
        line = next(islice(_lines(text), n_meta + bad[0], None))
        raise ValueError(f"{source} line {n_meta + bad[0] + 1}: value "
                         f"{line!r} is not a finite float")
    return ClassifierModel(meta["head"], params, shapes), step, meta["taxonomy_hash"]

