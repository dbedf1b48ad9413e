import math
import warnings

import numpy as np
import pytest

from stpca import model, training
from stpca.dataset import Normalizer, Windows
from stpca.graph import build_adaptive_graph
from stpca.metrics import masked_mae
from stpca.model import ModelConfig, forward, init_params, set_embedding
from stpca.pca import EmbeddingTable, zero_embedding
from stpca.training import (AdamState, FlatTensors, TrainConfig, adam_step,
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
    history, target, tod, dow = [], [], [], []
    for _ in range(n_windows):
        y = rng.uniform(0.5, 25, size=(n_nodes, l2))
        y[rng.random(y.shape) < zero_frac] = 0.0
        target.append(y)
        history.append(rng.uniform(0, 25, size=(n_nodes, l1)))
        tod.append(int(rng.integers(0, t)))
        dow.append(int(rng.integers(0, 7)))
    return Windows(history=np.stack(history), target=np.stack(target),
                   tod=np.array(tod), dow=np.array(dow))


def batch(windows):
    """Raw (history, y, tod_idx, dow_idx) of a whole Windows record; `forward`
    z-scores the history by NORM."""
    return windows.history, windows.target, windows.tod, windows.dow


def flat_grads(arrays):
    """The arrays copied into one `FlatTensors` vector, the layout `backward`
    fills and `clip_gradients` and `adam_step` take."""
    return FlatTensors(np.concatenate([np.ravel(a) for a in arrays.values()]),
                       {name: np.shape(a) for name, a in arrays.items()})


def vector(params, names=None):
    """A gradient vector for the named tensors (default: the trainable ones)."""
    return FlatTensors.of(params, params.trainable_names() if names is None else names)


def einsum_backward(params, cache, loss_grad):
    """Reference gradients in per-axis einsum form, one contraction per tensor.

    The production backward contracts batch and nodes as one flat axis through
    BLAS matmuls; this slow form sums the same products in another order.
    """
    cfg = params.config
    b, n, _ = loss_grad.shape

    def features(rows):  # [B x N x F] of node-major rows that end in a ones column
        return rows[:, :-1].reshape(n, b, -1).swapaxes(0, 1)

    hs, rs = [features(a) for a in cache["hs"]], [features(a) for a in cache["rs"]]
    x = features(cache["x"])
    ch, ce, ct = cfg.hidden_dim, cfg.embed_dim, cfg.tod_dim
    w = params.weights
    grads = {}
    dy = loss_grad
    grads["w_o"] = np.einsum("bnl,bnm->lm", dy, hs[-1])
    grads["b_o"] = dy.sum(axis=(0, 1))
    dh = dy @ w["w_o"]
    d_emb_graph = None
    for i in range(cfg.num_blocks - 1, -1, -1):
        if cfg.use_graph and i == 0:
            a, h_pre = cache["graph"], features(cache["h_premix"])
            e = params.embedding.values
            d_adj = np.einsum("buf,bvf->uv", dh, h_pre)
            dh = np.einsum("uv,buf->bvf", a, dh)
            d_logits = a * (d_adj - (a * d_adj).sum(axis=1, keepdims=True))
            d_gram = d_logits * (np.maximum(e @ e.T, 0.0) > 0)
            d_emb_graph = (d_gram + d_gram.T) @ e
        grads[f"b2_{i}"] = dh.sum(axis=(0, 1))
        grads[f"w2_{i}"] = np.einsum("bnm,bnk->mk", dh, rs[i])
        dz = (dh @ w[f"w2_{i}"]) * (rs[i] > 0)
        grads[f"b1_{i}"] = dz.sum(axis=(0, 1))
        grads[f"w1_{i}"] = np.einsum("bnm,bnk->mk", dz, hs[i])
        dh = dh + dz @ w[f"w1_{i}"]
    du = dh[:, :, :ch]
    grads["w_x"] = np.einsum("bnc,bnl->cl", du, x)
    grads["b_x"] = du.sum(axis=(0, 1))
    grads["embedding"] = dh[:, :, ch : ch + ce].sum(axis=0)
    if d_emb_graph is not None:
        grads["embedding"] = grads["embedding"] + d_emb_graph
    grads["tod"] = np.zeros_like(w["tod"])
    np.add.at(grads["tod"], cache["tod_idx"],
              dh[:, :, ch + ce : ch + ce + ct].sum(axis=1))
    grads["dow"] = np.zeros_like(w["dow"])
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

    @pytest.mark.parametrize("with_work", [False, True], ids=["fresh", "workspace"])
    def test_bits_match_where_form(self, with_work):
        # reference: the masked difference as np.where(mask, d, 0.0), whose
        # masked cells are +0.0 even where d < 0
        rng = np.random.default_rng(5)
        work = model.Workspace() if with_work else None
        for _ in range(3):
            target = rng.uniform(0, 20, size=(4, 5, 6))
            target[rng.random(target.shape) < 0.3] = 0.0
            pred = rng.normal(scale=5.0, size=target.shape)  # some below -mean/std
            mask = target != 0
            diff = np.where(mask, NORM.invert(pred) - target, 0.0)
            count = int(mask.sum())
            loss, grad = masked_mae_loss(pred, target, NORM, mask=mask, work=work)
            assert loss == float(np.abs(diff).sum() / count)
            assert grad.tobytes() == (np.sign(diff) * (NORM.std / count)).tobytes()

    def test_direct_calls_return_fresh_gradients(self):
        rng = np.random.default_rng(7)
        target = rng.uniform(1, 20, size=(3, 4, 5))
        _, first = masked_mae_loss(rng.normal(size=target.shape), target, NORM)
        kept = first.copy()
        target[0] = 0.0  # another cell count, so other gradient values
        _, second = masked_mae_loss(rng.normal(size=target.shape), target, NORM)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

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
        x, _, ti, di = batch(toy_windows(3))
        _, cache = forward(params, NORM, x, ti, di, cache=True)
        grads = backward(params, cache, np.zeros((3, 5, 4)), vector(params))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_duplicated_batch_doubles_gradient(self):
        params = init_params(toy_config(), 5, seed=0)
        ws = toy_windows(3)
        x, y, ti, di = batch(ws)
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        g1 = backward(params, cache, lgrad, vector(params))

        x2 = np.concatenate([x, x]); y2 = np.concatenate([y, y])
        ti2 = np.concatenate([ti, ti]); di2 = np.concatenate([di, di])
        pred2, cache2 = forward(params, NORM, x2, ti2, di2, cache=True)
        _, lgrad2 = masked_mae_loss(pred2, y2, NORM)
        # same per-cell grad scale: feed the single-batch grad duplicated
        g2 = backward(params, cache2, np.concatenate([lgrad, lgrad]), vector(params))
        for name in g1:
            np.testing.assert_allclose(g2[name], 2 * g1[name], atol=1e-12)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_direct_calls_return_fresh_gradients(self, use_graph):
        params = init_params(toy_config(use_graph=use_graph), 5, seed=0)

        def gradients(seed):
            x, y, ti, di = batch(toy_windows(3, seed=seed))
            pred, cache = forward(params, NORM, x, ti, di, cache=True)
            _, lgrad = masked_mae_loss(pred, y, NORM)
            return backward(params, cache, lgrad, vector(params))

        first = gradients(1)
        kept = first.flat.copy()
        second = gradients(2)
        assert not np.shares_memory(first.flat, second.flat)
        np.testing.assert_array_equal(first.flat, kept)

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
        x, y, ti, di = batch(toy_windows(7, seed=8))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        reference = einsum_backward(params, cache, lgrad)
        grads = backward(params, cache, lgrad, vector(params))
        assert set(grads) == set(params.trainable_names())
        for name, g in grads.items():
            scale = np.abs(reference[name]).max()
            assert scale > 0, name
            assert np.abs(g - reference[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("use_graph", [False, True])
    @pytest.mark.parametrize("requested", [
        ["embedding"], ["w_o"], ["tod", "dow"], ["b1_0", "w2_1", "b_x"], None,
    ], ids=["embedding", "w_o", "tod-dow", "bias-weight-bias", "all"])
    def test_requested_gradients_only(self, monkeypatch, use_graph, requested):
        cfg = toy_config(num_blocks=2, use_graph=use_graph)
        params = init_params(cfg, 5, seed=5)
        rng = np.random.default_rng(6)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x, y, ti, di = batch(toy_windows(7, seed=8))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        names = list(params.tensors())
        full = backward(params, cache, lgrad, vector(params, names))
        requested = names if requested is None else requested
        _, cache = forward(params, NORM, x, ti, di, cache=True)  # one backward per cache

        class NumpyWithoutScatter:
            """numpy, except that `np.add.at` raises."""

            class add:
                @staticmethod
                def at(*args):
                    raise AssertionError("np.add.at ran for an unrequested table")

            def __getattr__(self, name):
                return getattr(np, name)

        if not {"tod", "dow"} & set(requested):
            monkeypatch.setattr(training, "np", NumpyWithoutScatter())
        grads = backward(params, cache, lgrad, vector(params, requested))
        assert list(grads) == requested
        for name, g in grads.items():
            np.testing.assert_array_equal(g, full[name], err_msg=name)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_cache_serves_one_backward(self, use_graph):
        # backward writes gradients over the cached activations it has read
        params = init_params(toy_config(num_blocks=2, use_graph=use_graph), 5, seed=0)
        x, y, ti, di = batch(toy_windows(3))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        backward(params, cache, lgrad, vector(params))
        with pytest.raises(ValueError, match="one backward"):
            backward(params, cache, lgrad, vector(params, ["w_o"]))

    def test_non_finite_gradient_names_tensor(self):
        params = init_params(toy_config(), 5, seed=0)
        x, _, ti, di = batch(toy_windows(3))
        _, cache = forward(params, NORM, x, ti, di, cache=True)
        lgrad = np.zeros((3, 5, 4))
        lgrad[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="gradient for b_o"):
            backward(params, cache, lgrad, vector(params, ["b_o"]))

    @pytest.mark.parametrize("requested,named", [
        (["b_o", "w_o", "w_x", "b_x"], "w_x"),
        (["w_x", "b_o"], "w_x"),
        (["b_x", "w_x"], "w_x"),
    ])
    def test_non_finite_gradient_names_first_bad_tensor(self, requested, named):
        # a non-finite input reaches only w_x's gradient; the check names it,
        # not the finite gradients before it, whatever the request order
        params = init_params(toy_config(), 5, seed=0)
        x, y, ti, di = batch(toy_windows(3))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        cache["x"][0, 0] = np.inf  # the input rows backward reads
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match=f"gradient for {named}$"):
            backward(params, cache, lgrad, vector(params, requested))

    def test_frozen_embedding_gets_no_gradient(self):
        params = init_params(toy_config(), 5, seed=0)
        params = set_embedding(
            params, EmbeddingTable(values=params.embedding.values, strategy="pca"))
        x, y, ti, di = batch(toy_windows(3))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        grads = backward(params, cache, lgrad, vector(params))
        assert "embedding" not in grads

    @pytest.mark.parametrize("strategy", ["pca", "zero"])
    def test_frozen_table_skips_graph_chain(self, monkeypatch, strategy):
        cfg = toy_config(num_blocks=2, use_graph=True)
        params = init_params(cfg, 5, seed=5)
        rng = np.random.default_rng(6)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        table = (EmbeddingTable(values=params.embedding.values, strategy="pca")
                 if strategy == "pca" else zero_embedding(5, 3))
        params = set_embedding(params, table)
        x, y, ti, di = batch(toy_windows(7, seed=8))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        full = backward(params, cache, lgrad, vector(params, list(params.tensors())))
        _, cache = forward(params, NORM, x, ti, di, cache=True)  # one backward per cache

        take = model.Workspace.take

        def take_no_adjacency_gradient(work, name, *args):
            if name == "d_adj":
                raise AssertionError("graph-embedding chain ran for a frozen table")
            return take(work, name, *args)

        monkeypatch.setattr(model.Workspace, "take", take_no_adjacency_gradient)
        grads = backward(params, cache, lgrad, vector(params))
        assert set(grads) == set(params.trainable_names())
        for name, g in grads.items():
            np.testing.assert_array_equal(g, full[name], err_msg=name)
        errs = finite_difference_check(params, toy_windows(6, seed=4), NORM)
        assert max(errs.values()) < 1e-4


class TestBiasGradients:
    """Each bias gradient is the last column of its layer's weight GEMM."""

    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("num_blocks", [1, 2, 3])
    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    def test_equal_row_sums_of_upstream_gradients(self, use_graph, num_blocks, n):
        params = init_params(toy_config(num_blocks=num_blocks, use_graph=use_graph),
                             n, seed=2)
        rng = np.random.default_rng(n)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x, y, ti, di = batch(toy_windows(6, n_nodes=n, seed=3))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        reference = einsum_backward(params, cache, lgrad)  # sums over windows and nodes
        biases = [name for name in params.tensors() if name.startswith("b")]
        for trainable in (params.trainable_names(), biases):
            _, cache = forward(params, NORM, x, ti, di, cache=True)  # one backward per cache
            grads = backward(params, cache, lgrad, vector(params, trainable))
            for name in biases:
                scale = np.abs(reference[name]).max()
                assert np.abs(grads[name] - reference[name]).max() <= 1e-12 * scale, name
        np.testing.assert_allclose(grads["b_o"], lgrad.sum(axis=(0, 1)), rtol=1e-12)


class TestBackwardPemsShape:
    """The PEMS sizes: N=307, B=32, mix_dim 52. There BLAS runs the mix and its
    transpose as packed GEMMs rather than through its small-matrix kernel."""

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_matches_einsum_reference(self, use_graph):
        params = init_params(ModelConfig(use_graph=use_graph), 307, seed=5)
        rng = np.random.default_rng(6)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.1, size=tensor.shape)
        x, y, ti, di = batch(toy_windows(32, n_nodes=307, l1=12, l2=12, t=288, seed=8))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        reference = einsum_backward(params, cache, lgrad)
        grads = backward(params, cache, lgrad, vector(params))
        assert set(grads) == set(params.trainable_names())
        for name, g in grads.items():
            scale = np.abs(reference[name]).max()
            assert scale > 0, name
            assert np.abs(g - reference[name]).max() <= 1e-12 * scale, name


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
        state = AdamState.bound(fast, list(fast.tensors()))
        for grads in grads_seq:
            adam_step(state, flat_grads(grads), lr=1e-2)
        textbook_adam(slow, grads_seq, lr=1e-2)
        assert state.t == 20
        for name, tensor in fast.tensors().items():
            ref = slow.tensors()[name]
            assert np.abs(tensor - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_gradient_set_must_not_change(self):
        params = init_params(toy_config(), 2, seed=0)
        state = AdamState.bound(params, ["w_x"])
        w = params.weights
        adam_step(state, flat_grads({"w_x": np.ones_like(w["w_x"])}), lr=1e-3)
        with pytest.raises(ValueError, match="Adam state"):
            adam_step(state, flat_grads({"b_x": np.ones_like(w["b_x"])}), lr=1e-3)

    def test_backward_gradient_set_must_not_change(self):
        params = init_params(toy_config(), 5, seed=0)
        x, y, ti, di = batch(toy_windows(3))
        pred, cache = forward(params, NORM, x, ti, di, cache=True)
        _, lgrad = masked_mae_loss(pred, y, NORM)
        state = AdamState.bound(params, params.trainable_names())
        adam_step(state, backward(params, cache, lgrad, vector(params)), lr=1e-3)
        _, cache = forward(params, NORM, x, ti, di, cache=True)  # one backward per cache
        with pytest.raises(ValueError, match="Adam state"):
            adam_step(state, backward(params, cache, lgrad, vector(params, ["w_o"])),
                      lr=1e-3)

    def test_state_is_bound_to_its_model(self):
        # bound at construction: before any step the named tensors are views
        # of theta holding their old values, and the others are left alone
        params = init_params(toy_config(), 2, seed=0)
        before = {k: v.copy() for k, v in params.tensors().items()}
        state = AdamState.bound(params, ["b_x", "w_x"])
        assert list(state.theta) == ["b_x", "w_x"] and state.t == 0
        for name, tensor in params.tensors().items():
            assert np.shares_memory(tensor, state.theta.flat) == (name in state.theta)
            assert tensor.tobytes() == before[name].tobytes(), name
        adam_step(state, flat_grads({"b_x": np.ones(6), "w_x": np.ones((6, 4))}), lr=1e-3)
        assert (params.weights["w_x"] < before["w_x"]).all()

    def test_first_step_magnitude(self):
        cfg = toy_config()
        params = init_params(cfg, 2, seed=0)
        before = params.weights["w_x"].copy()
        grads = flat_grads({"w_x": np.ones_like(before)})
        adam_step(AdamState.bound(params, ["w_x"]), grads, lr=1e-3)
        np.testing.assert_allclose(before - params.weights["w_x"], 1e-3 / (1 + 1e-8),
                                   atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        params = init_params(toy_config(), 2, seed=0)
        before = {k: v.copy() for k, v in params.tensors().items()}
        grads = flat_grads({k: np.zeros_like(v) for k, v in params.tensors().items()})
        adam_step(AdamState.bound(params, list(params.tensors())), grads, lr=1e-3)
        for k, v in params.tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_global_norm_clipping(self):
        g = flat_grads({"a": np.full(25, 10.0)})  # norm 50
        clipped, total = clip_gradients(g, 5.0)
        assert math.isclose(total, 50.0)
        np.testing.assert_allclose(clipped["a"], 1.0)

    def test_no_clip_below_threshold(self):
        g = flat_grads({"a": np.array([3.0, 4.0])})  # norm 5
        clipped, total = clip_gradients(g, 5.0)
        assert total == 5.0
        np.testing.assert_array_equal(clipped["a"], [3.0, 4.0])


def scripted_fit(monkeypatch, maes, patience):
    """`fit` on toy data whose validation passes score `maes` in turn, with an
    epoch cap it must not reach; returns (best, report, the params each pass
    scored)."""
    left, scored = iter(maes), []

    def scripted(params, *args):
        scored.append(params.clone())
        return next(left)

    monkeypatch.setattr(training, "_scored_mae", scripted)
    cfg = TrainConfig(max_epochs=len(maes) + 5, patience=patience, batch_size=8)
    best, report = fit(init_params(toy_config(), 5, seed=0), toy_windows(16),
                       toy_windows(4, seed=1), NORM, cfg)
    assert [row[2] for row in report.epochs] == maes
    assert report.stopping_reason == "early_stopping"
    return best, report, scored


def assert_same_tensors(a, b):
    """Two models hold the same bits in every tensor."""
    b_tensors = b.tensors()
    for name, tensor in a.tensors().items():
        assert tensor.tobytes() == b_tensors[name].tobytes(), name


class TestEarlyStopping:
    def test_spec_sequence(self, monkeypatch):
        # patience 2, val MAE 5, 4, 4.5, 4.6 -> stop after epoch 4, best epoch 2
        best, report, scored = scripted_fit(monkeypatch, [5.0, 4.0, 4.5, 4.6], 2)
        assert (report.best_epoch, report.best_val_mae) == (2, 4.0)
        assert_same_tensors(best, scored[1])

    def test_ties_do_not_improve(self, monkeypatch):
        best, report, scored = scripted_fit(monkeypatch, [3.0, 3.0], 1)
        assert (report.best_epoch, report.best_val_mae) == (1, 3.0)
        assert_same_tensors(best, scored[0])


def reference_fit(params, train, val, normalizer, config, trainable=None):
    """The training loop as plain code: fresh arrays at every step, Adam and
    clipping tensor by tensor. Returns (best params, report rows, skipped)."""
    names = params.trainable_names() if trainable is None else list(trainable)
    graph = None
    if params.config.use_graph and "embedding" not in names:
        graph = build_adaptive_graph(params.embedding.values)
    rng = np.random.default_rng(config.seed)
    m, v, t = {}, {}, 0
    best_mae, stale = float("inf"), 0
    best, rows, skipped = params.clone(), [], 0
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(len(train))
        losses = []
        for lo in range(0, len(train), config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            y = train.target[idx]
            if not (y != 0).any():
                skipped += 1
                continue
            pred, cache = forward(params, normalizer, train.history[idx],
                                  train.tod[idx], train.dow[idx], cache=True,
                                  graph=graph)
            loss, lgrad = masked_mae_loss(pred, y, normalizer)
            grads = backward(params, cache, lgrad, vector(params, names))
            flat = np.concatenate([g.ravel() for g in grads.values()])
            norm = math.sqrt(float(flat @ flat))
            if norm > config.grad_clip_norm:
                for g in grads.values():
                    g *= config.grad_clip_norm / norm
            t += 1
            root_c2 = math.sqrt(1 - 0.999 ** t)
            step = config.lr * root_c2 / (1 - 0.9 ** t)
            tensors = params.tensors()
            for name, g in grads.items():
                m[name] = m.get(name, 0.0) * 0.9 + (1 - 0.9) * g
                v[name] = v.get(name, 0.0) * 0.999 + (1 - 0.999) * (g * g)
                tensors[name] -= m[name] / (np.sqrt(v[name]) + 1e-8 * root_c2) * step
            losses.append(loss)
        val_mae = masked_mae(model.predict(params, val, normalizer), val.target)
        rows.append((epoch, float(np.mean(losses)) if losses else float("nan"), val_mae))
        if val_mae < best_mae:  # only a strict improvement resets patience
            best_mae, stale, best = val_mae, 0, params.clone()
        else:
            stale += 1
        if stale >= config.patience:
            break
    return best, rows, skipped


def reference_params(strategy, use_graph):
    params = init_params(toy_config(num_blocks=2, use_graph=use_graph), 5, seed=3)
    if strategy == "pca":
        table = np.random.default_rng(1).normal(size=(5, 3))
        params = set_embedding(params, EmbeddingTable(values=table, strategy="pca"))
    elif strategy == "zero":
        params = set_embedding(params, zero_embedding(5, 3))
    return params


REFERENCE_FIT_CONFIG = TrainConfig(max_epochs=6, patience=6, batch_size=8, seed=1,
                                   lr=5e-3)


def assert_fit_matches_reference(params, train, val, trainable=None):
    """Fit and `reference_fit` leave the same bits; returns (report, skipped)."""
    cfg = REFERENCE_FIT_CONFIG
    ref_params = params.clone()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, report = fit(params, train, val, NORM, cfg, trainable=trainable)
    ref_best, ref_rows, skipped = reference_fit(ref_params, train, val, NORM, cfg,
                                                trainable=trainable)
    assert report.epochs == ref_rows
    assert sum("batch skipped" in str(w.message) for w in caught) == skipped
    assert_same_tensors(best, ref_best)
    assert_same_tensors(params, ref_params)
    return report, skipped


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

    def test_diverging_fit_raises(self):
        train, val = self.make_data()
        cfg = TrainConfig(lr=1e300, max_epochs=2, patience=1, batch_size=8, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite activations"):
            fit(init_params(toy_config(), 5, seed=0), train, val, NORM, cfg)
        # finite outputs whose loss overflows in original units
        params = init_params(toy_config(), 5, seed=0)
        params.weights["b_o"][:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite training loss"):
            fit(params, train, val, NORM, cfg)

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

    @pytest.mark.parametrize("strategy", ["adaptive", "pca"])
    def test_graph_builds_per_fit(self, monkeypatch, strategy):
        params = init_params(toy_config(use_graph=True), 5, seed=2)
        if strategy == "pca":
            table = np.random.default_rng(7).normal(size=(5, 3))
            params = set_embedding(params, EmbeddingTable(values=table, strategy="pca"))
        builds = {}
        for module in (model, training):
            def counted(emb, fn=module.build_adaptive_graph, key=module.__name__):
                builds[key] = builds.get(key, 0) + 1
                return fn(emb)
            monkeypatch.setattr(module, "build_adaptive_graph", counted)
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=0)
        _, report = fit(params, train, val, NORM, cfg)
        steps = len(report.epochs) * 5
        # one build per validation pass, plus one per step for a trained
        # table or one per fit for a frozen one
        if strategy == "pca":
            assert builds == {"stpca.model": 3, "stpca.training": 1}
        else:
            assert builds == {"stpca.model": 3 + steps}

    @pytest.mark.parametrize("case", ["plain", "ragged", "skipped"])
    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    @pytest.mark.parametrize("strategy", ["adaptive", "pca", "zero"])
    def test_matches_reference_loop(self, strategy, use_graph, case):
        params = reference_params(strategy, use_graph)
        train = toy_windows(43 if case == "ragged" else 40, seed=0)
        if case == "skipped":
            # 3 windows with targets: some batches of 8 hold none
            target = train.target.copy()
            target[3:] = 0.0
            train = Windows(history=train.history, target=target, tod=train.tod,
                            dow=train.dow)
        _, skipped = assert_fit_matches_reference(params, train, toy_windows(12, seed=1))
        assert (skipped > 0) == (case == "skipped")

    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    def test_clips_once_per_optimizer_step(self, monkeypatch, use_graph):
        # the bench tracer counts clipped steps from clip_gradients' calls and
        # expects epochs x batches - skipped of them, each given the clip norm
        # as its second positional argument
        calls = []

        def spy(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return clip_gradients(*args, **kwargs)

        monkeypatch.setattr(training, "clip_gradients", spy)
        train = toy_windows(33, seed=0)  # batches of 8: 5 per epoch, the last of 1
        target = train.target.copy()
        target[:8] = 0.0  # over the fit, one batch draws only these windows
        train = Windows(history=train.history, target=target, tod=train.tod,
                        dow=train.dow)
        report, skipped = assert_fit_matches_reference(
            reference_params("adaptive", use_graph), train, toy_windows(12, seed=1))
        assert skipped == 1
        assert len(calls) == len(report.epochs) * 5 - skipped
        assert calls == [((REFERENCE_FIT_CONFIG.grad_clip_norm,), {})] * len(calls)

    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    def test_matches_reference_loop_embedding_only(self, use_graph):
        assert_fit_matches_reference(reference_params("adaptive", use_graph),
                                     toy_windows(40, seed=0), toy_windows(12, seed=1),
                                     trainable=["embedding"])

    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    @pytest.mark.parametrize("windows_per_block", [1, 5, None])
    def test_val_mae_equals_masked_mae_of_predict(self, monkeypatch, use_graph,
                                                  windows_per_block):
        # validation scores block by block; each epoch's val MAE keeps the
        # bits of scoring the whole prediction array of that epoch's weights
        if windows_per_block is not None:
            monkeypatch.setattr(model, "PREDICT_ROWS", windows_per_block * 5)
        train, val = self.make_data(n_val=23)
        for epochs in (1, 2, 3):
            params = reference_params("adaptive", use_graph)
            cfg = TrainConfig(max_epochs=epochs, patience=epochs, batch_size=8, seed=1)
            _, report = fit(params, train, val, NORM, cfg)
            # the live model holds the last epoch's weights
            assert report.epochs[-1][2] == masked_mae(
                model.predict(params, val, NORM), val.target)

    def test_best_shares_no_memory_with_live_model(self):
        params = init_params(toy_config(num_blocks=2), 5, seed=1)
        train, val = self.make_data()
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=0)
        best, _ = fit(params, train, val, NORM, cfg)
        live = params.tensors()
        for name, tensor in best.tensors().items():
            assert not np.shares_memory(tensor, live[name]), name
        # further steps on the live model leave the snapshot alone
        snapshot = {k: v.copy() for k, v in best.tensors().items()}
        fit(params, train, val, NORM, cfg)
        for name, tensor in best.tensors().items():
            np.testing.assert_array_equal(tensor, snapshot[name], err_msg=name)

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
        x, y, ti, di = batch(ws)
        state = AdamState.bound(params, params.trainable_names())
        grads = vector(params)
        losses = []
        for _ in range(50):
            pred, cache = forward(params, NORM, x, ti, di, cache=True)
            loss, lgrad = masked_mae_loss(pred, y, NORM)
            losses.append(loss)
            clip_gradients(backward(params, cache, lgrad, grads), 5.0)
            adam_step(state, grads, lr=1e-3)
        assert losses[-1] < losses[0]
        assert min(losses) == losses[-1] or losses[-1] < losses[0] * 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=10, max_epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)
        for name in ("lr", "grad_clip_norm"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError,
                                   match=rf"^{name} must be in \(0, inf\), got {value}$"):
                    TrainConfig(**{name: float(value)})
