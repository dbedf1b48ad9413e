import math
import warnings

import numpy as np
import pytest

from stpca.dataset import Normalizer, Window
from stpca.model import ModelConfig, batch_arrays, forward, init_params, set_embedding
from stpca.pca import EmbeddingTable, zero_embedding
from stpca.training import (AdamState, EarlyStopping, TrainConfig, adam_step,
                            backward, clip_gradients, finite_difference_check,
                            fit, masked_mae_loss)

NORM = Normalizer(mean=10.0, std=4.0)


def toy_config(**overrides):
    base = dict(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2, hidden_dim=6,
                num_blocks=1, use_graph=False, steps_per_day=8)
    base.update(overrides)
    return ModelConfig(**base)


def toy_windows(n_windows, n_nodes=5, l1=4, l2=4, t=8, seed=0, zero_frac=0.15):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_windows):
        target = rng.uniform(0.5, 25, size=(n_nodes, l2))
        target[rng.random(target.shape) < zero_frac] = 0.0
        out.append(Window(history=rng.uniform(0, 25, size=(n_nodes, l1)),
                          target=target,
                          tod=int(rng.integers(0, t)),
                          dow=int(rng.integers(0, 7))))
    return out


def einsum_backward(params, cache, loss_grad):
    """Reference gradients in per-axis einsum form, one contraction per tensor.

    The production backward contracts batch and nodes as one flat axis through
    BLAS matmuls; this slow form sums the same products in another order.
    """
    cfg = params.config
    hs, rs, x = cache["hs"], cache["rs"], cache["x"]
    ch, ce, ct = cfg.hidden_dim, cfg.embed_dim, cfg.tod_dim
    grads = {}
    dy = loss_grad
    grads["w_o"] = np.einsum("bnl,bnm->lm", dy, hs[-1])
    grads["b_o"] = dy.sum(axis=(0, 1))
    dh = dy @ params.w_o
    d_emb_graph = None
    for i in range(cfg.num_blocks - 1, -1, -1):
        if cfg.use_graph and i == 0:
            adp, h_pre = cache["graph"], cache["h_premix"]
            e = cache["embedding"].values
            d_adj = np.einsum("buf,bvf->uv", dh, h_pre)
            dh = np.einsum("uv,buf->bvf", adp.weights, dh)
            a = adp.weights
            d_logits = a * (d_adj - (a * d_adj).sum(axis=1, keepdims=True))
            d_gram = d_logits * (np.maximum(e @ e.T, 0.0) > 0)
            d_emb_graph = (d_gram + d_gram.T) @ e
        blk = params.blocks[i]
        grads[f"b2_{i}"] = dh.sum(axis=(0, 1))
        grads[f"w2_{i}"] = np.einsum("bnm,bnk->mk", dh, rs[i])
        dz = (dh @ blk["w2"]) * (rs[i] > 0)
        grads[f"b1_{i}"] = dz.sum(axis=(0, 1))
        grads[f"w1_{i}"] = np.einsum("bnm,bnk->mk", dz, hs[i])
        dh = dh + dz @ blk["w1"]
    du = dh[:, :, :ch]
    grads["w_x"] = np.einsum("bnc,bnl->cl", du, x)
    grads["b_x"] = du.sum(axis=(0, 1))
    grads["embedding"] = dh[:, :, ch : ch + ce].sum(axis=0)
    if d_emb_graph is not None:
        grads["embedding"] = grads["embedding"] + d_emb_graph
    grads["tod"] = np.zeros_like(params.tod)
    np.add.at(grads["tod"], cache["tod_idx"],
              dh[:, :, ch + ce : ch + ce + ct].sum(axis=1))
    grads["dow"] = np.zeros_like(params.dow)
    np.add.at(grads["dow"], cache["dow_idx"], dh[:, :, ch + ce + ct :].sum(axis=1))
    return grads


class TestMaskedMaeLoss:
    def test_hand_computed(self):
        # denorm(pred) = (5, 8), target = (0, 10): only the second cell counts
        norm = Normalizer(mean=0.0, std=1.0)
        pred = np.array([[[5.0, 8.0]]])
        target = np.array([[[0.0, 10.0]]])
        loss, grad = masked_mae_loss(pred, target, norm)
        assert loss == 2.0
        np.testing.assert_array_equal(grad, [[[0.0, -1.0]]])

    def test_perfect_prediction(self):
        target = np.array([[[3.0, 7.0]]])
        pred = NORM.apply(target)
        loss, grad = masked_mae_loss(pred, target, NORM)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_grad_scale_and_sign(self):
        target = np.array([[[10.0, 20.0]]])
        pred = NORM.apply(np.array([[[12.0, 15.0]]]))
        loss, grad = masked_mae_loss(pred, target, NORM)
        assert math.isclose(loss, 3.5)
        np.testing.assert_allclose(grad, [[[NORM.std / 2, -NORM.std / 2]]])

    def test_empty_mask_warns_not_raises(self):
        target = np.zeros((1, 2, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss, grad = masked_mae_loss(np.ones_like(target), target, NORM)
        assert math.isnan(loss)
        np.testing.assert_array_equal(grad, 0.0)
        assert any("no valid" in str(w.message) for w in caught)

    def test_finite_difference_on_loss(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(1, 20, size=(2, 3, 4))
        target[0, 0, 0] = 0.0
        pred = rng.normal(size=(2, 3, 4))
        _, grad = masked_mae_loss(pred, target, NORM)
        h = 1e-6
        worst = 0.0
        for ix in np.ndindex(pred.shape):
            p = pred.copy(); p[ix] += h
            lp, _ = masked_mae_loss(p, target, NORM)
            p = pred.copy(); p[ix] -= h
            lm, _ = masked_mae_loss(p, target, NORM)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grad[ix]), 1e-8)
            if max(abs(fd), abs(grad[ix])) > 1e-9:
                worst = max(worst, abs(fd - grad[ix]) / denom)
        assert worst < 1e-6

    def test_loss_invariant_under_node_permutation(self):
        rng = np.random.default_rng(2)
        target = rng.uniform(0, 20, size=(3, 6, 4))
        pred = rng.normal(size=(3, 6, 4))
        loss, _ = masked_mae_loss(pred, target, NORM)
        perm = rng.permutation(6)
        loss_p, _ = masked_mae_loss(pred[:, perm], target[:, perm], NORM)
        assert math.isclose(loss, loss_p, rel_tol=1e-12)


class TestBackward:
    def test_zero_loss_grad_gives_zero_gradients(self):
        params = init_params(toy_config(), 5, seed=0)
        x, _, ti, di = batch_arrays(toy_windows(3), NORM)
        _, cache = forward(params, None, x, ti, di, cache=True)
        grads = backward(params, cache, np.zeros((3, 5, 4)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_duplicated_batch_doubles_gradient(self):
        params = init_params(toy_config(), 5, seed=0)
        ws = toy_windows(3)
        x, y, ti, di = batch_arrays(ws, NORM)
        pred, cache = forward(params, None, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        g1 = backward(params, cache, lgrad)

        x2 = np.concatenate([x, x]); y2 = np.concatenate([y, y])
        ti2 = np.concatenate([ti, ti]); di2 = np.concatenate([di, di])
        pred2, cache2 = forward(params, None, x2, ti2, di2, cache=True)
        _, lgrad2 = masked_mae_loss(pred2, y2, NORM)
        # same per-cell grad scale: feed the single-batch grad duplicated
        g2 = backward(params, cache2, np.concatenate([lgrad, lgrad]))
        for name in g1:
            np.testing.assert_allclose(g2[name], 2 * g1[name], atol=1e-12)

    # with two blocks the graph block (block 0) receives block 1's gradient
    @pytest.mark.parametrize("num_blocks,use_graph", [
        pytest.param(1, False, id="False"),
        pytest.param(1, True, id="True"),
        pytest.param(2, True, id="two_blocks-True"),
    ])
    def test_finite_difference_toy(self, num_blocks, use_graph):
        cfg = toy_config(num_blocks=num_blocks, use_graph=use_graph)
        params = init_params(cfg, 5, seed=11)
        rng = np.random.default_rng(3)
        for name, tensor in params.tensors().items():
            if name.startswith("b"):
                tensor += rng.normal(0, 0.05, size=tensor.shape)
        errs = finite_difference_check(params, toy_windows(6, seed=4), NORM)
        assert max(errs.values()) < 1e-4

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_matches_einsum_reference(self, use_graph):
        cfg = toy_config(num_blocks=2, use_graph=use_graph)
        params = init_params(cfg, 5, seed=5)
        rng = np.random.default_rng(6)
        for name, tensor in params.tensors().items():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x, y, ti, di = batch_arrays(toy_windows(7, seed=8), NORM)
        pred, cache = forward(params, None, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        grads = backward(params, cache, lgrad)
        reference = einsum_backward(params, cache, lgrad)
        assert set(grads) == set(params.trainable_names())
        for name, g in grads.items():
            scale = np.abs(reference[name]).max()
            assert scale > 0, name
            assert np.abs(g - reference[name]).max() <= 1e-12 * scale, name

    def test_non_finite_gradient_names_tensor(self):
        params = init_params(toy_config(), 5, seed=0)
        x, _, ti, di = batch_arrays(toy_windows(3), NORM)
        _, cache = forward(params, None, x, ti, di, cache=True)
        lgrad = np.zeros((3, 5, 4))
        lgrad[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="gradient for b_o"):
            backward(params, cache, lgrad, trainable=["b_o"])

    def test_frozen_embedding_gets_no_gradient(self):
        params = init_params(toy_config(), 5, seed=0)
        params = set_embedding(
            params, EmbeddingTable(values=params.embedding.values, strategy="pca"))
        x, y, ti, di = batch_arrays(toy_windows(3), NORM)
        pred, cache = forward(params, None, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        grads = backward(params, cache, lgrad)
        assert "embedding" not in grads


def textbook_adam(params, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam: per-tensor moments, explicit bias-corrected m_hat, v_hat."""
    m, v = {}, {}
    tensors = params.tensors()
    for t, grads in enumerate(grads_seq, start=1):
        for name, g in grads.items():
            m[name] = beta1 * m.get(name, 0.0) + (1 - beta1) * g
            v[name] = beta2 * v.get(name, 0.0) + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1 ** t)
            v_hat = v[name] / (1 - beta2 ** t)
            tensors[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_matches_textbook_adam(self):
        rng = np.random.default_rng(0)
        fast = init_params(toy_config(num_blocks=2), 5, seed=0)
        slow = fast.clone()
        grads_seq = [{name: rng.normal(size=t.shape) * 10.0 ** rng.integers(-4, 2)
                      for name, t in fast.tensors().items()} for _ in range(20)]
        state = AdamState()
        for grads in grads_seq:
            adam_step(state, fast, {k: g.copy() for k, g in grads.items()}, lr=1e-2)
        textbook_adam(slow, grads_seq, lr=1e-2)
        assert state.t == 20
        for name, tensor in fast.tensors().items():
            ref = slow.tensors()[name]
            assert np.abs(tensor - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_gradient_set_must_not_change(self):
        params = init_params(toy_config(), 2, seed=0)
        state = AdamState()
        adam_step(state, params, {"w_x": np.ones_like(params.w_x)}, lr=1e-3)
        with pytest.raises(ValueError, match="Adam state"):
            adam_step(state, params, {"b_x": np.ones_like(params.b_x)}, lr=1e-3)

    def test_first_step_magnitude(self):
        cfg = toy_config()
        params = init_params(cfg, 2, seed=0)
        before = params.w_x.copy()
        grads = {"w_x": np.ones_like(params.w_x)}
        adam_step(AdamState(), params, grads, lr=1e-3)
        np.testing.assert_allclose(before - params.w_x, 1e-3 / (1 + 1e-8),
                                   atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        params = init_params(toy_config(), 2, seed=0)
        before = {k: v.copy() for k, v in params.tensors().items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        adam_step(AdamState(), params, grads, lr=1e-3)
        for k, v in params.tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_global_norm_clipping(self):
        g = {"a": np.full(25, 10.0)}  # norm 50
        clipped, total = clip_gradients(g, 5.0)
        assert math.isclose(total, 50.0)
        np.testing.assert_allclose(clipped["a"], 1.0)

    def test_no_clip_below_threshold(self):
        g = {"a": np.array([3.0, 4.0])}  # norm 5
        clipped, total = clip_gradients(g, 5.0)
        np.testing.assert_array_equal(clipped["a"], g["a"])


class TestEarlyStopping:
    def test_spec_sequence(self):
        # patience 2, val MAE 5, 4, 4.5, 4.6 -> stop after epoch 4, best epoch 2
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1, 5.0)
        assert not stopper.update(2, 4.0)
        assert not stopper.update(3, 4.5)
        assert stopper.update(4, 4.6)
        assert stopper.best_epoch == 2
        assert stopper.best == 4.0

    def test_ties_do_not_improve(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(1, 3.0)
        assert stopper.update(2, 3.0)
        assert stopper.best_epoch == 1


class TestFit:
    def make_data(self, n_train=40, n_val=12, seed=0):
        return toy_windows(n_train, seed=seed), toy_windows(n_val, seed=seed + 1)

    def test_single_epoch_bound(self):
        params = init_params(toy_config(), 5, seed=0)
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0)
        _, report = fit(params, train, val, NORM, cfg)
        assert len(report.epochs) == 1
        assert report.stopping_reason == "max_epochs"

    def test_same_seed_identical_reports(self):
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=5, patience=5, batch_size=8, seed=3)
        _, r1 = fit(init_params(toy_config(), 5, seed=1), train, val, NORM, cfg)
        _, r2 = fit(init_params(toy_config(), 5, seed=1), train, val, NORM, cfg)
        assert r1.epochs == r2.epochs
        assert r1.best_epoch == r2.best_epoch

    def test_best_val_is_minimum(self):
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=8, patience=8, batch_size=8, seed=0)
        _, report = fit(init_params(toy_config(), 5, seed=1), train, val, NORM, cfg)
        assert report.best_val_mae == min(e[2] for e in report.epochs)

    @pytest.mark.parametrize("strategy", ["pca", "zero"])
    def test_frozen_embedding_bitwise(self, strategy):
        params = init_params(toy_config(), 5, seed=2)
        if strategy == "pca":
            rng = np.random.default_rng(7)
            table = EmbeddingTable(values=rng.normal(size=(5, 3)), strategy="pca")
        else:
            table = zero_embedding(5, 3)
        params = set_embedding(params, table)
        frozen_bytes = params.embedding.values.tobytes()
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=4, patience=4, batch_size=8, seed=0)
        best, _ = fit(params, train, val, NORM, cfg)
        assert params.embedding.values.tobytes() == frozen_bytes
        assert best.embedding.values.tobytes() == frozen_bytes

    def test_adaptive_embedding_moves(self):
        params = init_params(toy_config(), 5, seed=2)
        before = params.embedding.values.copy()
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=0)
        fit(params, train, val, NORM, cfg)
        assert np.abs(params.embedding.values - before).max() > 0

    def test_trainable_subset_only_embedding(self):
        params = init_params(toy_config(), 5, seed=2)
        snap = {k: v.copy() for k, v in params.tensors().items()}
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=0)
        fit(params, train, val, NORM, cfg, trainable=["embedding"])
        for name, tensor in params.tensors().items():
            if name == "embedding":
                assert np.abs(tensor - snap[name]).max() > 0
            else:
                np.testing.assert_array_equal(tensor, snap[name])

    def test_overfit_single_batch_loss_decreases(self):
        # repeated identical batch: loss over the first 50 steps trends down
        params = init_params(toy_config(), 5, seed=4)
        ws = toy_windows(8, seed=9, zero_frac=0.0)
        x, y, ti, di = batch_arrays(ws, NORM)
        from stpca.training import AdamState, adam_step, backward as bwd
        state = AdamState()
        losses = []
        for _ in range(50):
            pred, cache = forward(params, None, x, ti, di, cache=True)
            loss, lgrad = masked_mae_loss(pred, y, NORM)
            losses.append(loss)
            grads = bwd(params, cache, lgrad)
            adam_step(state, params, grads, lr=1e-3, grad_clip_norm=5.0)
        assert losses[-1] < losses[0]
        assert min(losses) == losses[-1] or losses[-1] < losses[0] * 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=10, max_epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)
