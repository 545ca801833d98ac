import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EXTREMES, finite_difference, hxe_kernel,
                      make_balanced_tree, max_rel_error)
from hiercls import model as Md
from hiercls.data import Dataset, synth_hierarchical
from hiercls.losses import ConditionalHxeObjective, _PathHxe, softmax_batch
from hiercls.metrics import MetricReport
from hiercls.sweep import (SweepConfig, average_reports, mean_half_width,
                          run_point, write_run_files)
from hiercls.taxonomy import load_edges, prune_to_tree


def scorer(tax, head):
    """An objective of ``head``, which ``evaluate_model`` ranks with."""
    return Md.build_objective(tax, "ce", None, head)


def toy_points(tax, per_class=40, dim=6, noise=0.8, seed=0):
    return synth_hierarchical(tax, per_class=per_class, dim=dim,
                              step_scale=1.0, noise_scale=noise, seed=seed)


class TestForward:
    def test_zero_parameters_uniform(self, toy_tree):
        m = Md.init_model(toy_tree, "class", 4, seed=0)
        for W, b in m.layers:
            W[...] = 0.0
            b[...] = 0.0
        z = Md.forward(m, np.ones(4))[0]
        np.testing.assert_allclose(softmax_batch(z[None, :])[0], np.full(3, 1 / 3))

    def test_identity_affine(self, toy_tree):
        m = Md.init_model(prune_to_tree(load_edges("R\tA\nR\tB"), ["A", "B"]),
                          "class", 2, seed=0)
        m.layers[0][0][...] = np.eye(2)
        m.layers[0][1][...] = 0.0
        np.testing.assert_allclose(Md.forward(m, np.array([1.0, 0.0]))[0],
                                   [1.0, 0.0])

    def test_conditional_head_width(self, toy_tree):
        m = Md.init_model(toy_tree, "conditional", 4, seed=0)
        assert m.output_dim == 4
        assert Md.forward(m, np.zeros(4)).shape == (1, 4)

    def test_shape_mismatch(self, toy_tree):
        m = Md.init_model(toy_tree, "class", 4, seed=0)
        with pytest.raises(ValueError):
            Md.forward(m, np.zeros(5))


class TestAdam:
    def test_ten_step_scalar_trace(self):
        # Hand-rolled recurrence on plain Python floats as the oracle.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [0.5, -0.3, 1.2, 0.0, -0.7, 0.9, 0.1, -1.1, 0.4, 0.25]
        theta, m, v = 1.0, 0.0, 0.0
        expected = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)
            expected.append(theta)

        param = np.array([1.0])
        opt = Md.AdamOptimizer(lr=lr, beta1=b1, beta2=b2, eps=eps)
        seen = []
        for g in grads:
            opt.update(param, np.array([g]))
            seen.append(float(param[0]))
        np.testing.assert_allclose(seen, expected, rtol=1e-12)

    def test_state_shapes_follow_params(self):
        opt = Md.AdamOptimizer(lr=0.1)
        params = np.zeros(9)
        opt.update(params, np.ones(9))
        assert opt.step_count == 1
        assert opt.m.shape == (9,) and opt.v.shape == (9,)


    def test_holds_three_parameter_rows(self):
        # m, v and one work row; a step after the first allocates nothing.
        params, grads = np.zeros(50_000), np.ones(50_000)
        opt = Md.AdamOptimizer(lr=0.1)
        tracemalloc.start()
        try:
            opt.update(params, grads)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            opt.update(params, np.ones(50_000))
            step_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert 2.5 * params.nbytes < held < 3.5 * params.nbytes, held
        assert step_peak < 1.5 * params.nbytes, step_peak

    def test_twenty_steps_bitwise_equal_to_two_work_rows(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=257)
        ref_params = params.copy()
        opt, ref = Md.AdamOptimizer(lr=0.01), TwoWorkRowAdam(lr=0.01)
        for step in range(20):
            # Gradients over many scales, with exact zeros.
            grads = rng.normal(size=257) * 10.0 ** rng.integers(-8, 4, size=257)
            grads[rng.integers(257, size=20)] = 0.0
            opt.update(params, grads.copy())
            ref.update(ref_params, grads)
            assert params.tobytes() == ref_params.tobytes(), step
            assert opt.m.tobytes() == ref.m.tobytes()
            assert opt.v.tobytes() == ref.v.tobytes()


class TwoWorkRowAdam:
    """The Adam step with two work rows beside ``m`` and ``v``, which left
    the gradient as it was; kept as the bitwise reference of
    ``AdamOptimizer``, which takes the gradient's row as its second."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = None

    def update(self, params, grads):
        if self.m is None:
            self.m, self.v, self.a, self.b = np.zeros((4,) + params.shape)
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        m, v, a, b = self.m, self.v, self.a, self.b
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=a)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grads, out=a)
        v += np.multiply(a, grads, out=a)
        np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
        np.sqrt(np.divide(v, c2, out=b), out=b)
        params -= np.divide(a, np.add(b, self.eps, out=b), out=a)


# The list-of-arrays model code that the flat parameter vector replaced,
# kept as a bitwise reference: one (W, b) pair of arrays per layer, Adam
# state per tensor.
def reference_init(dims, seed):
    rng = np.random.default_rng([seed, 0])
    return [(rng.uniform(-0.01, 0.01, size=(d_in, d_out)),
             rng.uniform(-0.01, 0.01, size=d_out))
            for d_in, d_out in zip(dims[:-1], dims[1:])]


def reference_forward(layers, X):
    acts = [X]
    h = X
    for W, b in layers[:-1]:
        h = np.tanh(h @ W + b)
        acts.append(h)
    W, b = layers[-1]
    return acts, h @ W + b


def reference_backprop(layers, X, dZ):
    acts, _ = reference_forward(layers, X)
    B = len(X)
    delta = dZ
    grads = []
    for li in reversed(range(len(layers))):
        dW = acts[li].T @ delta / B
        db = delta.mean(axis=0)
        grads[:0] = [dW, db]
        if li > 0:
            delta = (delta @ layers[li][0].T) * (1.0 - acts[li] ** 2)
    return grads


class ReferenceAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m, self.v = [], []

    def update(self, params, grads):
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def flatten(layers):
    return np.concatenate([a.ravel() for W, b in layers for a in (W, b)])


class TestFlatParametersMatchReference:
    @pytest.mark.parametrize("head", ["class", "conditional"])
    @pytest.mark.parametrize("hidden_dim", [None, 5])
    def test_init_matches_per_layer_draws(self, toy_tree, head, hidden_dim):
        model = Md.init_model(toy_tree, head, 6, seed=11, hidden_dim=hidden_dim)
        dims = [6, model.output_dim] if hidden_dim is None else [6, 5, model.output_dim]
        ref = reference_init(dims, 11)
        assert model.params.tobytes() == flatten(ref).tobytes()
        assert model.shapes == tuple(W.shape for W, _ in ref)
        for (W, b), (W_ref, b_ref) in zip(model.layers, ref):
            np.testing.assert_array_equal(W, W_ref)
            np.testing.assert_array_equal(b, b_ref)

    @pytest.mark.parametrize("head", ["class", "conditional"])
    @pytest.mark.parametrize("hidden_dim", [None, 5])
    def test_fifty_adam_steps_bitwise(self, toy_tree, head, hidden_dim):
        ds = toy_points(toy_tree, per_class=20)
        X, t = ds.features, ds.label_indices(toy_tree)
        obj = Md.build_objective(toy_tree, "hxe", 0.4, head)
        model = Md.init_model(toy_tree, head, ds.feature_dim, seed=4,
                              hidden_dim=hidden_dim)
        dims = [d for d, _ in model.shapes] + [model.output_dim]
        ref_layers = reference_init(dims, 4)
        opt, ref_opt = Md.AdamOptimizer(lr=0.05), ReferenceAdam(lr=0.05)
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx = rng.choice(len(X), size=15, replace=False)
            acts, Z = Md._forward_with_acts(model, X[idx])
            opt.update(model.params,
                       Md.backprop(model, acts, obj.grad_batch(Z, t[idx])))
            _, Z_ref = reference_forward(ref_layers, X[idx])
            ref_params = [a for W, b in ref_layers for a in (W, b)]
            ref_opt.update(ref_params, reference_backprop(
                ref_layers, X[idx], obj.grad_batch(Z_ref, t[idx])))
            assert np.array_equal(model.params, flatten(ref_layers))
        for mine, ref in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
            assert mine.tobytes() == np.concatenate(
                [a.ravel() for a in ref]).tobytes()


class TestTraining:
    def schedule(self, **kw):
        base = dict(steps=300, batch_size=16, checkpoint_every=30, seed=0)
        base.update(kw)
        return Md.TrainSchedule(**base)

    def test_bitwise_determinism(self, toy_tree):
        ds = toy_points(toy_tree)
        traces = []
        for _ in range(2):
            model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=3)
            trace = Md.train(toy_tree, model, ds, ds, ds,
                             scorer(toy_tree, "class"), Md.AdamOptimizer(lr=0.01),
                             self.schedule(seed=3), ks=(1,))
            traces.append(trace)
        a, b = traces
        assert [r.step for r in a] == [r.step for r in b]
        for ra, rb in zip(a, b):
            assert ra.train_loss == rb.train_loss
            assert ra.val_loss == rb.val_loss
            assert ra.params.tobytes() == rb.params.tobytes()

    def test_separable_two_class_reaches_zero_error(self):
        tax = prune_to_tree(load_edges("R\tA\nR\tB"), ["A", "B"])
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(loc=-3, size=(60, 2)),
                       rng.normal(loc=3, size=(60, 2))])
        ds = Dataset(X, ["A"] * 60 + ["B"] * 60)
        model = Md.init_model(tax, "class", 2, seed=0)
        Md.train(tax, model, ds, ds, ds, scorer(tax, "class"),
                 Md.AdamOptimizer(lr=0.05),
                 self.schedule(steps=2000, checkpoint_every=200), ks=(1,))
        report = Md.evaluate_model(tax, model, ds, scorer(tax, "class"), ks=(1,))
        assert report.top_k_error[1] == 0.0

    def test_limit_traces_match_cross_entropy(self, toy_tree):
        ds = toy_points(toy_tree)

        def run(loss, param):
            model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=5)
            obj = Md.build_objective(toy_tree, loss, param, "class")
            return Md.train(toy_tree, model, ds, ds, ds, obj,
                            Md.AdamOptimizer(lr=0.01), self.schedule(seed=5),
                            ks=(1,))

        ce = run("ce", None)
        hxe = run("hxe", 1e-9)
        soft = run("soft", 1e9)
        for other in (hxe, soft):
            for r_ce, r_other in zip(ce, other):
                assert abs(r_ce.train_loss - r_other.train_loss) < 1e-6
                assert abs(r_ce.val_loss - r_other.val_loss) < 1e-6

    @pytest.mark.parametrize("spec,head", [
        (("ce", None), "class"),
        (("hxe", 0.5), "class"),
        (("soft", 5.0), "class"),
        (("hxe", 0.3), "conditional"),
    ])
    def test_full_batch_descent_monotone(self, toy_tree, spec, head):
        ds = toy_points(toy_tree)
        obj = Md.build_objective(toy_tree, *spec, head)
        model = Md.init_model(toy_tree, head, ds.feature_dim, seed=1)
        opt = Md.AdamOptimizer(lr=1e-3)
        X, t = ds.features, ds.label_indices(toy_tree)
        losses = []
        for _ in range(100):
            acts, Z = Md._forward_with_acts(model, X)
            losses.append(float(obj.loss_batch(Z, t).mean()))
            opt.update(model.params, Md.backprop(model, acts, obj.grad_batch(Z, t)))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergence_aborts_with_step(self, toy_tree):
        ds = toy_points(toy_tree)

        class Bad:
            num_outputs = toy_tree.num_leaves

            def loss_and_grad(self, Z, t):
                return np.full(len(Z), np.nan), np.zeros_like(Z)

        model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=0)
        with pytest.raises(Md.TrainingDivergedError, match="step 1"):
            Md.train(toy_tree, model, ds, ds, ds, Bad(),
                     Md.AdamOptimizer(lr=0.01), self.schedule(), ks=(1,))

    def test_checkpoint_holds_no_step_arrays(self, monkeypatch):
        # A 1,056-output conditional head (32 x 32 leaves). At each
        # checkpoint, train holds Adam's three rows and the snapshots taken
        # so far, but no logits, logit gradient or flat gradient of the
        # last step: each of those is about twice the parameters here.
        tax = make_balanced_tree(32, 2)
        obj = Md.build_objective(tax, "ce", None, "conditional")
        model = Md.init_model(tax, "conditional", 32, seed=0)
        assert model.output_dim >= 1000
        ds = random_split(tax, 512, 32, 0)
        tax.lca_height_matrix()  # cached before tracing, as in a run
        held, validate = [], Md._validate
        monkeypatch.setattr(Md, "_validate", lambda *args: held.append(
            tracemalloc.get_traced_memory()[0]) or validate(*args))
        tracemalloc.start()
        try:
            Md.train(tax, model, ds, ds, ds, obj, Md.AdamOptimizer(lr=0.01),
                     self.schedule(steps=40, batch_size=64, checkpoint_every=10),
                     ks=(1,))
        finally:
            tracemalloc.stop()
        assert len(held) == 4
        for snapshots, memory in enumerate(held):
            assert memory < (3 + snapshots + 0.5) * model.params.nbytes, (
                snapshots, memory / model.params.nbytes)

    def test_soft_conditional_combination_rejected(self, toy_tree):
        with pytest.raises(ValueError):
            Md.build_objective(toy_tree, "soft", 4.0, "conditional")

    @pytest.mark.parametrize("loss, message", [
        ("focal", "unknown loss kind 'focal'"),
        ("hxe", "hxe loss needs alpha"),
        ("soft", "soft loss needs beta"),
    ], ids=["unknown_loss", "hxe_without_alpha", "soft_without_beta"])
    def test_build_objective_rejects_loss_without_its_parameter(
            self, toy_tree, loss, message):
        with pytest.raises(ValueError, match=message):
            Md.build_objective(toy_tree, loss, None, "class")

    def test_mlp_parameter_gradients_match_fd(self, toy_tree):
        ds = toy_points(toy_tree, per_class=10)
        obj = Md.build_objective(toy_tree, "hxe", 0.4, "class")
        model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=2,
                              hidden_dim=5)
        X, t = ds.features, ds.label_indices(toy_tree)

        def total_loss():
            return float(obj.loss_batch(Md.forward(model, X), t).mean())

        acts, Z = Md._forward_with_acts(model, X)
        grads = Md.backprop(model, acts, obj.grad_batch(Z, t))
        p = model.params
        num = np.zeros_like(p)
        for i in range(p.size):
            orig = p[i]
            p[i] = orig + 1e-6
            up = total_loss()
            p[i] = orig - 1e-6
            down = total_loss()
            p[i] = orig
            num[i] = (up - down) / 2e-6
        # Checked one tensor at a time, each against its own scale.
        for g_layer, num_layer in zip(Md._layer_views(grads, model.shapes),
                                      Md._layer_views(num, model.shapes)):
            for g, n in zip(g_layer, num_layer):
                assert max_rel_error(g.ravel(), n.ravel()) < 1e-4


def reference_train(tax, model, train_ds, val_ds, eval_ds, obj, optimizer,
                    schedule, ks):
    """``Md.train`` from separate calls: ``loss_batch`` and ``grad_batch``
    on each step's logits, and ``loss_batch`` and ``scores`` on each
    checkpoint's."""
    X, t = train_ds.features, train_ds.label_indices(tax)
    Xv, tv = val_ds.features, val_ds.label_indices(tax)
    te = eval_ds.label_indices(tax)
    rng = np.random.default_rng([schedule.seed, 1])
    n = len(X)
    bsz = min(schedule.batch_size, n)
    perm, pos = rng.permutation(n), 0
    records, run_sum, run_count = [], 0.0, 0
    for step in range(1, schedule.steps + 1):
        if pos + bsz > n:
            perm, pos = rng.permutation(n), 0
        idx = perm[pos:pos + bsz]
        pos += bsz
        acts, Z = Md._forward_with_acts(model, X[idx])
        loss = float(obj.loss_batch(Z, t[idx]).mean())
        dZ = obj.grad_batch(Z, t[idx])
        optimizer.update(model.params, Md.backprop(model, acts, dZ))
        run_sum += loss
        run_count += 1
        if step % schedule.checkpoint_every == 0:
            val_loss = float(obj.loss_batch(Md.forward(model, Xv), tv).mean())
            scores = obj.scores(Md.forward(model, eval_ds.features))
            ranks = Md._top_ranks(scores, max(ks))
            records.append(Md.CheckpointRecord(
                step, run_sum / run_count, val_loss,
                Md.report_from_indices(tax, ranks, te, ks), model.params.copy()))
            run_sum, run_count = 0.0, 0
    return records


class CountingObjective:
    """Forwards to ``obj`` and counts the calls of each method."""

    def __init__(self, obj):
        self.obj, self.num_outputs, self.calls = obj, obj.num_outputs, {}

    def __getattr__(self, name):
        method = getattr(self.obj, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args)

        return counted


FUSED_SPECS = [("ce", None, "class"), ("hxe", 0.4, "class"),
               ("soft", 3.0, "class"), ("hxe", 0.4, "conditional")]


class TestFusedTrainingStep:
    def schedule(self):
        return Md.TrainSchedule(steps=90, batch_size=16, checkpoint_every=15,
                                seed=2)

    @pytest.mark.parametrize("spec", FUSED_SPECS, ids=lambda s: f"{s[0]}-{s[2]}")
    @pytest.mark.parametrize("same_eval", [True, False], ids=["eval_val", "eval_other"])
    def test_records_match_separate_calls(self, balanced27, spec, same_eval):
        train_ds = toy_points(balanced27, per_class=6)
        val_ds = toy_points(balanced27, per_class=3, seed=1)
        eval_ds = val_ds if same_eval else toy_points(balanced27, per_class=4,
                                                      seed=2)
        loss, param, head = spec
        runs = []
        for loop in (Md.train, reference_train):
            obj = Md.build_objective(balanced27, loss, param, head)
            model = Md.init_model(balanced27, head, train_ds.feature_dim, seed=3,
                                  hidden_dim=7)
            runs.append(loop(balanced27, model, train_ds, val_ds, eval_ds, obj,
                             Md.AdamOptimizer(lr=0.02), self.schedule(), (1, 5)))
        fused, separate = runs
        assert len(fused) == len(separate) == 6
        for a, b in zip(fused, separate):
            assert (a.step, a.train_loss, a.val_loss) == (b.step, b.train_loss,
                                                          b.val_loss)
            assert a.report == b.report
            assert a.params.tobytes() == b.params.tobytes()

    @pytest.mark.parametrize("spec", FUSED_SPECS, ids=lambda s: f"{s[0]}-{s[2]}")
    def test_one_loss_and_grad_call_a_step(self, balanced27, spec):
        ds = toy_points(balanced27, per_class=4)
        obj = CountingObjective(Md.build_objective(balanced27, *spec))
        model = Md.init_model(balanced27, spec[2], ds.feature_dim, seed=0)
        Md.train(balanced27, model, ds, ds, ds, obj, Md.AdamOptimizer(lr=0.01),
                 self.schedule(), ks=(1,))
        assert obj.calls == {"loss_and_grad": 90, "loss_and_scores": 6}


class TestSelectCheckpoints:
    def fake_trace(self, steps, losses):
        return [Md.CheckpointRecord(step=s, train_loss=0.0, val_loss=v,
                                    report=None, params=[])
                for s, v in zip(steps, losses)]

    def test_exact_quartic_interior_minimum(self):
        steps = list(range(100, 2100, 100))
        xs = np.array(steps, dtype=float)
        center = 1400.0
        losses = 1e-12 * (xs - center) ** 4 + 0.5 * ((xs - center) / 1000) ** 2 + 1.0
        trace = self.fake_trace(steps, losses)
        chosen = Md.select_checkpoints(trace, discard_before=0)
        j = steps.index(1400)
        assert chosen == [j - 2, j - 1, j, j + 1, j + 2]

    def test_monotone_decreasing_anchors_at_end(self):
        steps = list(range(100, 1100, 100))
        losses = np.linspace(2.0, 1.0, len(steps))
        trace = self.fake_trace(steps, losses)
        chosen = Md.select_checkpoints(trace, discard_before=0)
        assert chosen == [5, 6, 7, 8, 9]

    def test_monotone_increasing_anchors_at_start(self):
        steps = list(range(100, 1100, 100))
        losses = np.linspace(1.0, 2.0, len(steps))
        trace = self.fake_trace(steps, losses)
        assert Md.select_checkpoints(trace, discard_before=0) == [0, 1, 2, 3, 4]

    def test_discard_shifts_window(self):
        steps = list(range(100, 1600, 100))
        losses = [3.0] * 5 + list(np.linspace(2.0, 1.0, 10))
        trace = self.fake_trace(steps, losses)
        chosen = Md.select_checkpoints(trace, discard_before=500)
        assert all(trace[i].step > 500 for i in chosen)
        assert chosen == [10, 11, 12, 13, 14]

    def test_too_few_checkpoints_rejected(self):
        trace = self.fake_trace([100, 200, 300, 400], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            Md.select_checkpoints(trace, discard_before=0)

    def test_degenerate_duplicate_steps_rejected(self):
        trace = self.fake_trace([100, 100, 100, 100, 100], [1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="degenerate|increasing|distinct"):
            Md.select_checkpoints(trace, discard_before=0)

    def test_returns_five_distinct_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            steps = (np.arange(n) + 1) * 50
            losses = rng.random(n)
            trace = self.fake_trace(steps.tolist(), losses)
            chosen = Md.select_checkpoints(trace, discard_before=0)
            assert len(set(chosen)) == 5
            assert all(0 <= i < n for i in chosen)
            assert chosen == sorted(chosen)


class TestFitPolynomial:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = np.sort(rng.uniform(-1, 1, size=25))
            coeffs_true = rng.normal(size=5)
            y = np.polynomial.polynomial.polyval(x, coeffs_true)
            y_noisy = y + 1e-3 * rng.normal(size=x.size)
            fitted = Md.fit_polynomial(x, y_noisy, 4)
            V = np.vander(x, 5, increasing=True)
            oracle = np.linalg.solve(V.T @ V, V.T @ y_noisy)
            assert np.abs(fitted - oracle).max() / np.abs(oracle).max() < 1e-8

    def test_exact_recovery_without_noise(self):
        x = np.linspace(-1, 1, 30)
        coeffs = np.array([0.3, -1.0, 0.5, 0.0, 2.0])
        y = np.polynomial.polynomial.polyval(x, coeffs)
        np.testing.assert_allclose(Md.fit_polynomial(x, y, 4), coeffs, atol=1e-10)

    def test_polynomial_minimum_quadratic(self):
        # x^2 - 2x has its vertex at 1.
        assert abs(Md.polynomial_minimum(np.array([0.0, -2.0, 1.0]), -5, 5) - 1) < 1e-9
        # Constant polynomial resolves to the left endpoint.
        assert Md.polynomial_minimum(np.array([3.0]), -1, 1) == -1


class TestEvaluate:
    def test_perfect_classifier(self, toy_tree):
        ds = toy_points(toy_tree, per_class=20, noise=1e-3)
        model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=0)
        Md.train(toy_tree, model, ds, ds, ds, scorer(toy_tree, "class"),
                 Md.AdamOptimizer(lr=0.05),
                 Md.TrainSchedule(steps=800, batch_size=16,
                                  checkpoint_every=100, seed=0), ks=(1,))
        report = Md.evaluate_model(toy_tree, model, ds, scorer(toy_tree, "class"),
                                   ks=(1,))
        assert report.top_k_error[1] == 0.0
        assert report.hier_dist_mistake == 0.0
        assert report.mistake_count == 0

    def test_uniform_logits_rank_in_leaf_order(self, toy_tree):
        ds = toy_points(toy_tree, per_class=3)
        model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=0)
        for W, b in model.layers:
            W[...] = 0.0
            b[...] = 0.0
        report = Md.evaluate_model(toy_tree, model, ds, scorer(toy_tree, "class"),
                                   ks=(1, 3))
        # Everything ranks (A, B, C); only class A examples are correct.
        assert report.top_k_error[1] == pytest.approx(2 / 3)
        assert report.top_k_error[3] == 0.0
        # Mistakes: truths B and C predicted as A, heights 1 and 2.
        assert report.severity_histogram == {1: 3, 2: 3}

    def test_heads_agree_on_separable_data(self, toy_tree):
        ds = toy_points(toy_tree, per_class=30, noise=0.02, seed=3)
        preds = {}
        for head in ("class", "conditional"):
            model = Md.init_model(toy_tree, head, ds.feature_dim, seed=1)
            Md.train(toy_tree, model, ds, ds, ds,
                     Md.build_objective(toy_tree, "hxe", 0.0, head),
                     Md.AdamOptimizer(lr=0.05),
                     Md.TrainSchedule(steps=1500, batch_size=32,
                                      checkpoint_every=300, seed=1), ks=(1,))
            report = Md.evaluate_model(toy_tree, model, ds,
                                       scorer(toy_tree, head), ks=(1,))
            preds[head] = report.top_k_error[1]
        assert preds["class"] == 0.0
        assert preds["conditional"] == 0.0

    def test_conditional_scores_ignore_the_weights(self, toy_tree):
        ds = toy_points(toy_tree, per_class=10)
        model = Md.init_model(toy_tree, "conditional", ds.feature_dim, seed=2)
        model.params[:] = np.random.default_rng(0).normal(size=model.params.size)
        reports = [Md.evaluate_model(toy_tree, model, ds,
                                     ConditionalHxeObjective(toy_tree, alpha),
                                     ks=(1, 3))
                   for alpha in (0.0, 0.7)]
        assert reports[0] == reports[1]

    def test_confidence_half_width_hand_value(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        # sample std = sqrt(2.5); hand computation of 1.96 * std / sqrt(5)
        expected = 1.96 * math.sqrt(2.5) / math.sqrt(5)
        mean, half = mean_half_width(vals)
        assert mean == 3.0
        assert half == pytest.approx(expected, abs=1e-12)
        assert mean_half_width([4.2]) == (4.2, 0.0)


# (loss, parameter, head, class-head HXE kernel or None).
BLOCK_SPECS = [("ce", None, "class", None), ("soft", 3.0, "class", None),
               ("hxe", 0.4, "class", "dense"), ("hxe", 0.4, "class", "path"),
               ("ce", None, "conditional", None),
               ("hxe", 0.4, "conditional", None)]


# (loss, parameter, head) on a tree of 1,331 classes, where the class-head
# HXE takes the path kernel.
WIDE_BLOCK_SPECS = [("ce", None, "class"), ("hxe", 0.4, "class"),
                    ("ce", None, "conditional"), ("hxe", 0.4, "conditional")]


@pytest.fixture(scope="module")
def wide_tree():
    """1,331 classes, 1,463 conditional-head outputs."""
    return make_balanced_tree(11, 3)


def random_split(tax, n, dim, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, dim)),
                   [tax.leaves[i] for i in rng.integers(tax.num_leaves, size=n)])


class TestBlockScoring:
    """Scoring in row blocks after one whole-split forward pass keeps the
    bits of scoring the whole split at once."""

    @pytest.mark.parametrize("n", [1, 2, 128, 129, 257, 385])
    @pytest.mark.parametrize("spec", BLOCK_SPECS,
                             ids=lambda s: "-".join(map(str, s)))
    def test_bitwise_equal_to_whole_split(self, balanced27, spec, n):
        loss, param, head, kernel = spec
        with hxe_kernel(kernel or "dense"):
            obj = Md.build_objective(balanced27, loss, param, head)
        model = Md.init_model(balanced27, head, 5, seed=1, hidden_dim=9)
        # Small weights spread the probabilities, where the dense kernel's
        # mass product is most sensitive to the rows it is given.
        model.params[:] = 0.1 * np.random.default_rng(2).normal(size=model.params.size)
        # Several draws: a row's bits change with a 1-row block only at times.
        for seed in range(0, 12, 2):
            val_ds, test_ds = (random_split(balanced27, n, 5, s) for s in (seed, seed + 1))
            self.check(balanced27, model, obj, val_ds, test_ds)

    @pytest.mark.parametrize("n", [1, 2, 45, 50, 197])
    @pytest.mark.parametrize("spec", WIDE_BLOCK_SPECS,
                             ids=lambda s: "-".join(map(str, s)))
    def test_wide_heads_bitwise_equal_to_whole_split(self, wide_tree, spec, n):
        # Blocks of 49 rows on the class head and 44 on the conditional
        # head, so the larger splits take two to five blocks.
        loss, param, head = spec
        obj = Md.build_objective(wide_tree, loss, param, head)
        if loss == "hxe" and head == "class":
            assert isinstance(obj.kernel, _PathHxe)
        model = Md.init_model(wide_tree, head, 5, seed=1, hidden_dim=9)
        model.params[:] = 0.1 * np.random.default_rng(2).normal(size=model.params.size)
        for seed in range(0, 4, 2):
            val_ds, test_ds = (random_split(wide_tree, n, 5, s) for s in (seed, seed + 1))
            self.check(wide_tree, model, obj, val_ds, test_ds)

    @staticmethod
    def check(tax, model, obj, val_ds, test_ds):
        """Block scoring against one whole-split ``loss_and_scores`` (the
        losses also against one ``loss_batch``) and one ``scores`` call."""
        tv = val_ds.label_indices(tax)
        Z = Md.forward(model, val_ds.features)
        losses, S = obj.loss_and_scores(Z, tv)
        assert np.array_equal(obj.loss_batch(Z, tv), losses)
        ranks = Md._top_ranks(S, 4)
        test_ranks = Md._top_ranks(obj.scores(Md.forward(model, test_ds.features)), 4)

        blocked, = Md._in_blocks(lambda Zb, t: (obj.loss_batch(Zb, t),), Z, tv)
        assert np.array_equal(blocked, losses)
        assert np.array_equal(Md._ranks(obj, Z, 4), ranks)
        mean, got = Md._validate(model, obj, val_ds, tv, val_ds, 4)
        assert mean == float(losses.mean()) and np.array_equal(got, ranks)
        mean, got = Md._validate(model, obj, val_ds, tv, test_ds, 4)
        assert mean == float(losses.mean()) and np.array_equal(got, test_ranks)
        assert Md.evaluate_model(tax, model, test_ds, obj, (1, 4)) == \
            Md.report_from_indices(tax, test_ranks, test_ds.label_indices(tax), (1, 4))

    @pytest.mark.parametrize("same_eval", [True, False], ids=["eval_val", "eval_other"])
    def test_one_forward_pass_a_split_at_each_checkpoint(self, balanced27,
                                                         monkeypatch, same_eval):
        ds = toy_points(balanced27, per_class=10)  # 270 rows, three blocks
        eval_ds = ds if same_eval else toy_points(balanced27, per_class=10, seed=1)
        rows, forward = [], Md.forward
        monkeypatch.setattr(Md, "forward",
                            lambda model, X: rows.append(len(X)) or forward(model, X))
        model = Md.init_model(balanced27, "class", ds.feature_dim, seed=0)
        Md.train(balanced27, model, ds, ds, eval_ds, scorer(balanced27, "class"),
                 Md.AdamOptimizer(lr=0.01),
                 Md.TrainSchedule(steps=30, batch_size=16, checkpoint_every=10,
                                  seed=0), ks=(1,))
        assert rows == [270] * 3 * (1 if same_eval else 2)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 385])
    def test_fewest_blocks_of_at_most_score_rows(self, n):
        sizes = []
        rows, = Md._in_blocks(lambda a: (sizes.append(len(a)) or a,), np.arange(n))
        assert np.array_equal(rows, np.arange(n))
        assert len(sizes) == -(-n // Md._SCORE_ROWS)
        # No 1-row block unless the split has one row.
        assert max(sizes) <= Md._SCORE_ROWS and min(sizes) >= min(n, 2)

    # Logit width -> rows a block takes: 128 up to 512 logits a row, then
    # 65,536 logits a block, but never fewer than 3 rows (2 would cut 3 rows
    # into 2 + 1).
    ROWS_AT_WIDTH = {27: 128, 512: 128, 513: 127, 880: 74, 1454: 45,
                     20000: 3, 30000: 3}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 44, 45, 46, 91, 129, 385])
    @pytest.mark.parametrize("width", list(ROWS_AT_WIDTH))
    def test_fewest_blocks_at_each_width(self, width, n):
        rows = self.ROWS_AT_WIDTH[width]
        sizes = []
        # A view without memory of its own: any width costs nothing.
        Z = np.broadcast_to(np.arange(n)[:, None], (n, width))
        firsts, = Md._in_blocks(lambda a: (sizes.append(len(a)) or a[:, 0],), Z)
        assert np.array_equal(firsts, np.arange(n))
        assert len(sizes) == -(-n // rows)
        assert max(sizes) <= rows and min(sizes) >= min(n, 2)

    @staticmethod
    def evaluate_peak(tax, model, ds, obj):
        tax.lca_height_matrix()  # cached before tracing, as in a run
        tracemalloc.start()
        try:
            Md.evaluate_model(tax, model, ds, obj, (1, 5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluate_memory_is_logits_plus_blocks(self):
        # 2,000 rows on a 343-class conditional head: every (rows, outputs)
        # temporary of the whole split would be as large as the logits.
        tax = make_balanced_tree(7, 3)
        obj = Md.build_objective(tax, "ce", None, "conditional")
        model = Md.init_model(tax, "conditional", 8, seed=0)
        ds = random_split(tax, 2000, 8, 0)
        logits = len(ds.labels) * model.output_dim * 8
        rows = min(Md._SCORE_ROWS, Md._SCORE_VALUES // model.output_dim)
        block = rows * (model.output_dim + tax.num_nodes) * 8
        peak = self.evaluate_peak(tax, model, ds, obj)
        assert peak < logits + 4 * block, (peak, logits, block)

    @pytest.mark.parametrize("rows", ["by_width", "fixed_128"])
    def test_wide_conditional_evaluate_memory_is_blocks_by_width(self, wide_tree,
                                                                 monkeypatch, rows):
        # 1,463 outputs: a block of 128 rows holds 1.5 MB arrays, one of 44
        # rows (65,536 logits) 0.5 MB.
        obj = Md.build_objective(wide_tree, "ce", None, "conditional")
        model = Md.init_model(wide_tree, "conditional", 8, seed=0)
        ds = random_split(wide_tree, 400, 8, 0)
        logits = len(ds.labels) * model.output_dim * 8
        bound = logits + 6 * Md._SCORE_VALUES * 8
        if rows == "fixed_128":  # the bound tells the old rule apart
            monkeypatch.setattr(Md, "_SCORE_VALUES", 1 << 30)
            assert self.evaluate_peak(wide_tree, model, ds, obj) > bound
        else:
            assert self.evaluate_peak(wide_tree, model, ds, obj) < bound


class TestRunPoint:
    def config(self, loss, **kw):
        """A run config; ``run_point`` reads none of its input paths."""
        base = dict(steps=600, batch_size=16, checkpoint_every=60,
                    discard_before=0, lr=0.01, ks=(1, 2))
        return SweepConfig(loss, "", "", "", **dict(base, **kw))

    def test_averages_the_selected_reports(self, toy_tree):
        ds = toy_points(toy_tree)
        _, records, selected = run_point(toy_tree, (ds, ds, ds),
                                         self.config("ce"), None, 0)
        assert selected == Md.select_checkpoints(records, 0)
        reports = [records[i].report for i in selected]
        avg = average_reports(reports)
        assert list(avg) == [*reports[0].scalars(), "mistake_count",
                             "num_examples"]
        vals = [r.top_k_error[1] for r in reports]
        assert avg["top1_error"] == mean_half_width(vals)
        assert avg["top1_error"][0] == pytest.approx(np.mean(vals))
        assert avg["mistake_count"] == mean_half_width(
            [r.mistake_count for r in reports])
        # Identical counts average to the count itself, with no spread.
        assert avg["num_examples"] == (float(ds.n), 0.0)

    def test_builds_one_objective(self, toy_tree, monkeypatch):
        ds = toy_points(toy_tree)
        built = []
        init = ConditionalHxeObjective.__init__
        monkeypatch.setattr(ConditionalHxeObjective, "__init__",
                            lambda self, *args: init(self, *args) or built.append(1))
        run_point(toy_tree, (ds, ds, ds),
                  self.config("hxe", head="conditional"), 0.5, 0)
        assert len(built) == 1

    @pytest.mark.parametrize("head", Md.HEADS)
    def test_reports_score_each_checkpoint_on_the_eval_split(self, toy_tree,
                                                             head):
        ds = toy_points(toy_tree)
        held_out = toy_points(toy_tree, per_class=15, seed=9)
        splits = (ds, ds, held_out)
        model, on_val, selected = run_point(
            toy_tree, splits, self.config("hxe", head=head), 0.5, 0)
        _, on_test, selected_test = run_point(
            toy_tree, splits, self.config("hxe", head=head, eval_split="test"),
            0.5, 0)
        # Training and selection read only the validation split.
        assert selected_test == selected
        ce = scorer(toy_tree, head)
        for a, b in zip(on_val, on_test, strict=True):
            assert (a.step, a.train_loss, a.val_loss) == (b.step, b.train_loss,
                                                          b.val_loss)
            assert a.params.tobytes() == b.params.tobytes()
            # Ranked by the alpha = 0.5 objective, scored as under ce.
            checkpoint = replace(model, params=a.params)
            assert a.report == Md.evaluate_model(toy_tree, checkpoint, ds, ce,
                                                 ks=(1, 2))
            assert b.report == Md.evaluate_model(toy_tree, checkpoint, held_out,
                                                 ce, ks=(1, 2))


def stable_top(scores, width):
    return np.argsort(-scores, axis=1, kind="stable")[:, :width]


class TestTopRanks:
    # Row 0: a four-way tie for first place; row 1: all equal; row 2: a tie
    # across second and third place; row 3: distinct scores. Widths 1 and 2
    # take the partial path, wider ones the full sort.
    TIED = np.array([[0.5, 0.1, 0.5, 0.5, 0.2, 0.5],
                     [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                     [0.0, 0.3, 0.2, 0.3, 0.1, 0.9],
                     [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]])

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6])
    def test_ties_match_stable_argsort(self, width):
        np.testing.assert_array_equal(Md._top_ranks(self.TIED, width),
                                      stable_top(self.TIED, width))

    def test_ties_go_to_lower_index(self):
        np.testing.assert_array_equal(Md._top_ranks(self.TIED, 3)[:3],
                                      [[0, 2, 3], [0, 1, 2], [5, 1, 3]])

    def test_ties_inside_a_wide_slice(self):
        # 29 tied scores from 3 values, then a unique 30th: the slice is long
        # enough that only a stable sort keeps the tied indices in order.
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(20):
            row = np.concatenate([rng.choice([5.0, 6.0, 7.0], 29), [4.5],
                                  rng.uniform(0.0, 4.0, 60)])
            rows.append(rng.permutation(row))
        scores = np.array(rows)
        np.testing.assert_array_equal(Md._top_ranks(scores, 30),
                                      stable_top(scores, 30))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_scores_match_stable_argsort(self, data):
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 12))
        width = data.draw(st.integers(1, cols))
        # Few distinct values make ties at the width-th place common.
        values = st.sampled_from([-1.0, 0.0, 0.25, 2.0]) | st.floats(-3, 3)
        scores = np.array(data.draw(st.lists(
            st.lists(values, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))
        np.testing.assert_array_equal(Md._top_ranks(scores, width),
                                      stable_top(scores, width))


class TestCheckpointText:
    def test_round_trip(self, toy_tree):
        model = Md.init_model(toy_tree, "class", 4, seed=9, hidden_dim=6)
        text = Md.checkpoint_to_text(model, 1234, "abc123")
        again, step, tax_hash = Md.checkpoint_from_text(text)
        assert step == 1234 and tax_hash == "abc123"
        assert again.head == model.head
        assert again.input_dim == model.input_dim
        for (W, b), (W2, b2) in zip(model.layers, again.layers):
            np.testing.assert_array_equal(W, W2)
            np.testing.assert_array_equal(b, b2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_keeps_bytes(self, data):
        dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        shapes = tuple(zip(dims[:-1], dims[1:]))
        n = sum(d_in * d_out + d_out for d_in, d_out in shapes)
        values = st.sampled_from(EXTREMES) | st.floats(allow_nan=False,
                                                            allow_infinity=False)
        params = np.array(data.draw(st.lists(values, min_size=n, max_size=n)),
                          dtype=float)
        head = data.draw(st.sampled_from(Md.HEADS))
        step = data.draw(st.integers(0, 10**9))
        tax_hash = data.draw(st.text("0123456789abcdef", min_size=1, max_size=16))
        model = Md.ClassifierModel(head, params, shapes)
        text = Md.checkpoint_to_text(model, step, tax_hash)
        again, step2, hash2 = Md.checkpoint_from_text(text)
        assert (again.head, again.shapes, step2, hash2) == (head, shapes, step,
                                                             tax_hash)
        assert again.params.tobytes() == params.tobytes()
        assert Md.checkpoint_to_text(again, step2, hash2) == text

    def test_chunked_text_matches_one_line_per_value(self):
        # More values than one chunk, and a partial last chunk.
        shapes = ((100, 90), (90, 9))
        n = sum(a * b + b for a, b in shapes)
        assert n > 2 * Md._CHECKPOINT_CHUNK and n % Md._CHECKPOINT_CHUNK
        params = np.random.default_rng(5).normal(size=n)
        model = Md.ClassifierModel("class", params, shapes)
        text = Md.checkpoint_to_text(model, 7, "ab")
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == 7 + n
        assert lines[7:] == [repr(v) for v in params.tolist()]
        assert Md.checkpoint_from_text(text)[0].params.tobytes() == params.tobytes()

    def test_read_peaks_below_its_text(self):
        # A 64 -> 880 affine model, as a wide-tree run writes it.
        shapes = ((64, 880),)
        params = np.random.default_rng(0).normal(scale=0.01, size=65 * 880)
        text = Md.checkpoint_to_text(Md.ClassifierModel("class", params, shapes),
                                     50, "ab")
        tracemalloc.start()
        try:
            model = Md.checkpoint_from_text(text)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.params.tobytes() == params.tobytes()
        assert peak < len(text), peak / len(text)

    def test_bad_value_in_a_later_chunk_names_its_line(self):
        shapes = ((100, 90),)
        n = 101 * 90
        assert n > 2 * Md._CHECKPOINT_CHUNK
        text = Md.checkpoint_to_text(Md.ClassifierModel(
            "class", np.random.default_rng(1).normal(size=n), shapes), 7, "ab")
        lines = text.splitlines()
        for index, value in ((7 + Md._CHECKPOINT_CHUNK + 5, "0.1.2"),
                             (7 + 2 * Md._CHECKPOINT_CHUNK, "nan"),
                             (len(lines) - 1, "-inf")):
            bad = lines[:index] + [value] + lines[index + 1:]
            with pytest.raises(ValueError, match=(
                    f"^checkpoint line {index + 1}: value '{value}' is not a "
                    "finite float$")):
                Md.checkpoint_from_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=f": {n + 1} values, but "
                           f"layer_shapes=100x90 needs {n}$"):
            Md.checkpoint_from_text(text + "0.5\n")

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            Md.checkpoint_from_text("just,a,csv\n1,2,3\n")

    def test_trace_csv_columns(self, toy_tree, tmp_path):
        ds = toy_points(toy_tree, per_class=10)
        model = Md.init_model(toy_tree, "class", ds.feature_dim, seed=0)
        records = Md.train(toy_tree, model, ds, ds, ds,
                           scorer(toy_tree, "class"), Md.AdamOptimizer(lr=0.01),
                           Md.TrainSchedule(steps=60, batch_size=8,
                                            checkpoint_every=20, seed=0),
                           ks=(1, 2))
        write_run_files(tmp_path, {}, records, [])
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["step", "train_loss", "val_loss"]
        assert "top1_error" in header and "hier_dist_mistake" in header
        assert len(lines) == 4
