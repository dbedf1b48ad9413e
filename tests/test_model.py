import numpy as np
import pytest

from stpca import model, training
from stpca.dataset import Normalizer, Windows
from stpca.model import ModelConfig, forward, init_params, predict, set_embedding
from stpca.pca import EmbeddingTable, zero_embedding

NORM = Normalizer(mean=0.0, std=1.0)


def toy_config(**overrides):
    base = dict(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2, hidden_dim=6,
                num_blocks=2, use_graph=False, steps_per_day=8)
    base.update(overrides)
    return ModelConfig(**base)


def toy_windows(n_windows, n_nodes, l1=4, l2=4, t=8, seed=0):
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0, 10, size=(n_nodes, l1)),
              rng.uniform(0, 10, size=(n_nodes, l2)),
              int(rng.integers(0, t)), int(rng.integers(0, 7)))
             for _ in range(n_windows)]
    history, target, tod, dow = zip(*draws)
    return Windows(history=np.stack(history), target=np.stack(target),
                   tod=np.array(tod), dow=np.array(dow))


def batch(windows):
    """Model-ready (x, tod_idx, dow_idx) of a whole Windows record."""
    return NORM.apply(windows.history), windows.tod, windows.dow


def einsum_forward(params, x, tod_idx, dow_idx):
    """Reference forward: every product an `einsum` against the stored
    [out x in] weights, the graph written out as softmax(relu(E E^T))."""
    cfg = params.config
    b, n, _ = x.shape
    e, w = params.embedding.values, params.weights
    u = np.einsum("bnl,hl->bnh", x, w["w_x"]) + w["b_x"]
    h = np.concatenate([
        u, np.broadcast_to(e, (b, n, cfg.embed_dim)),
        np.broadcast_to(w["tod"][tod_idx][:, None, :], (b, n, cfg.tod_dim)),
        np.broadcast_to(w["dow"][dow_idx][:, None, :], (b, n, cfg.dow_dim)),
    ], axis=2)
    for i in range(cfg.num_blocks):
        r = np.maximum(np.einsum("bnk,mk->bnm", h, w[f"w1_{i}"]) + w[f"b1_{i}"], 0.0)
        h = h + np.einsum("bnk,mk->bnm", r, w[f"w2_{i}"]) + w[f"b2_{i}"]
        if cfg.use_graph and i == 0:
            logits = np.maximum(e @ e.T, 0.0)
            a = np.exp(logits - logits.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            h = np.einsum("uv,bvf->buf", a, h)
    return np.einsum("bnk,lk->bnl", h, w["w_o"]) + w["b_o"]


class TestInit:
    def test_deterministic(self):
        cfg = toy_config()
        a = init_params(cfg, 5, seed=7)
        b = init_params(cfg, 5, seed=7)
        for (ka, va), (kb, vb) in zip(a.tensors().items(), b.tensors().items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    def test_biases_zero(self):
        params = init_params(toy_config(), 5, seed=1)
        for name, tensor in params.tensors().items():
            if name.startswith("b"):
                np.testing.assert_array_equal(tensor, 0.0)

    def test_seeds_differ(self):
        cfg = toy_config()
        a = init_params(cfg, 5, seed=1)
        b = init_params(cfg, 5, seed=2)
        assert any(
            not np.array_equal(va, vb)
            for va, vb in zip(a.tensors().values(), b.tensors().values())
        )

    def test_xavier_bounds(self):
        params = init_params(toy_config(), 5, seed=3)
        a = np.sqrt(6.0 / (params.config.l1 + params.config.hidden_dim))
        assert np.abs(params.weights["w_x"]).max() <= a

    def test_adaptive_strategy_by_default(self):
        params = init_params(toy_config(), 5, seed=0)
        assert params.embedding.strategy == "adaptive"
        assert params.trainable_names().count("embedding") == 1

    @pytest.mark.parametrize("n", [1, 5, 307])
    @pytest.mark.parametrize("num_blocks", [1, 2, 3])
    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    def test_equals_per_tensor_xavier_construction(self, use_graph, num_blocks, n):
        # the reference: each tensor drawn by name, in this order, from one rng
        def xavier(rng, out_dim, in_dim):
            a = np.sqrt(6.0 / (in_dim + out_dim))
            return rng.uniform(-a, a, size=(out_dim, in_dim))

        cfg = toy_config(use_graph=use_graph, num_blocks=num_blocks)
        rng, cm = np.random.default_rng(11), cfg.mix_dim
        ref = {"w_x": xavier(rng, cfg.hidden_dim, cfg.l1), "b_x": np.zeros(cfg.hidden_dim),
               "embedding": rng.normal(0.0, 0.01, size=(n, cfg.embed_dim)),
               "tod": xavier(rng, cfg.steps_per_day, cfg.tod_dim),
               "dow": xavier(rng, 7, cfg.dow_dim)}
        for i in range(num_blocks):
            ref.update({f"w1_{i}": xavier(rng, cm, cm), f"b1_{i}": np.zeros(cm),
                        f"w2_{i}": xavier(rng, cm, cm), f"b2_{i}": np.zeros(cm)})
        ref.update(w_o=xavier(rng, cfg.l2, cm), b_o=np.zeros(cfg.l2))

        params = init_params(cfg, n, seed=11)
        assert params.embedding.strategy == "adaptive"
        assert list(params.tensors()) == list(ref)
        for name, tensor in params.tensors().items():
            assert tensor.dtype == ref[name].dtype, name
            np.testing.assert_array_equal(tensor, ref[name], err_msg=name)

    @pytest.mark.parametrize("num_blocks", [1, 3])
    def test_tensors_follow_the_tensor_list(self, num_blocks):
        cfg = toy_config(num_blocks=num_blocks)
        params = set_embedding(init_params(cfg, 5, seed=0),
                               EmbeddingTable(np.ones((4, cfg.embed_dim)), "pca"))
        listed = [(name, tuple(4 if d is None else d for d in shape))
                  for name, shape in model._tensor_shapes(cfg)]
        assert [(name, t.shape) for name, t in params.tensors().items()] == listed


class TestForward:
    def test_zero_params_zero_output(self):
        params = init_params(toy_config(), 5, seed=0)
        for tensor in params.tensors().values():
            tensor[...] = 0.0
        x, ti, di = batch(toy_windows(3, 5))
        np.testing.assert_array_equal(forward(params, NORM, x, ti, di), 0.0)

    def test_output_shape(self):
        cfg = toy_config(l2=12)
        params = init_params(cfg, 5, seed=0)
        ws = toy_windows(2, 5, l1=4, l2=12)
        x, ti, di = batch(ws)
        assert forward(params, NORM, x, ti, di).shape == (2, 5, 12)

    def test_embedding_slot_is_live(self):
        params = init_params(toy_config(), 5, seed=0)
        x, ti, di = batch(toy_windows(3, 5))
        rng = np.random.default_rng(1)
        pca_table = EmbeddingTable(values=rng.normal(size=(5, 3)), strategy="pca")
        out_pca = forward(set_embedding(params, pca_table), NORM, x, ti, di)
        out_zero = forward(set_embedding(params, zero_embedding(5, 3)), NORM, x, ti, di)
        assert np.abs(out_pca - out_zero).max() > 1e-8

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_matches_einsum_reference(self, use_graph):
        params = init_params(toy_config(use_graph=use_graph), 5, seed=4)
        rng = np.random.default_rng(9)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x, ti, di = batch(toy_windows(7, 5, seed=2))
        out = forward(params, NORM, x, ti, di)
        reference = einsum_forward(params, x, ti, di)
        scale = np.abs(reference).max()
        assert np.abs(out - reference).max() <= 1e-12 * scale

    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    @pytest.mark.parametrize("cache", [False, True])
    def test_raw_history_equals_unit_normalizer_on_its_z_score(self, cache, use_graph):
        # forward z-scores raw history into its input rows: the bits of the
        # z-scored batch under Normalizer(0, 1), whose (x - 0) / 1 is x
        params = init_params(toy_config(use_graph=use_graph), 5, seed=4)
        ws = toy_windows(6, 5, seed=3)
        norm = Normalizer(mean=4.7, std=2.9)
        raw = forward(params, norm, ws.history, ws.tod, ws.dow, cache=cache)
        unit = forward(params, NORM, norm.apply(ws.history), ws.tod, ws.dow, cache=cache)
        if cache:
            assert raw[1]["x"].tobytes() == unit[1]["x"].tobytes()
            raw, unit = raw[0], unit[0]
        assert raw.tobytes() == unit.tobytes()

    def test_deterministic(self):
        params = init_params(toy_config(use_graph=True), 5, seed=0)
        x, ti, di = batch(toy_windows(3, 5))
        a = forward(params, NORM, x, ti, di)
        b = forward(params, NORM, x, ti, di)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_node_permutation_equivariance(self, use_graph):
        cfg = toy_config(use_graph=use_graph)
        params = init_params(cfg, 6, seed=2)
        ws = toy_windows(3, 6)
        x, ti, di = batch(ws)
        out = forward(params, NORM, x, ti, di)
        perm = np.random.default_rng(0).permutation(6)
        emb_p = EmbeddingTable(values=params.embedding.values[perm],
                               strategy="adaptive")
        out_p = forward(set_embedding(params, emb_p), NORM, x[:, perm, :], ti, di)
        if use_graph:
            # the mixing matmul reorders its reduction under permutation
            np.testing.assert_allclose(out_p, out[:, perm, :], rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(out_p, out[:, perm, :])

    def test_shape_errors(self):
        params = init_params(toy_config(), 5, seed=0)
        x, ti, di = batch(toy_windows(2, 5))
        with pytest.raises(ValueError, match="embedding rows"):
            forward(set_embedding(params, zero_embedding(4, 3)), NORM, x, ti, di)
        with pytest.raises(ValueError, match="history length"):
            forward(params, NORM, x[:, :, :3], ti, di)

    def test_non_finite_reported_with_block(self):
        params = init_params(toy_config(), 5, seed=0)
        params.weights["w2_1"][0, 0] = np.inf
        x, ti, di = batch(toy_windows(2, 5))
        with pytest.raises(FloatingPointError, match="block 1"):
            forward(params, NORM, x, ti, di)

    def test_predict_independent_of_batch_size(self, monkeypatch):
        ws = toy_windows(10, 5)
        x, ti, di = batch(ws)
        for use_graph in (False, True):
            params = init_params(toy_config(use_graph=use_graph), 5, seed=0)
            single = NORM.invert(forward(params, NORM, x, ti, di))
            for batch_size in (1, 3, 10, 100):
                monkeypatch.setattr(model, "PREDICT_ROWS", batch_size * 5)
                np.testing.assert_array_equal(predict(params, ws, NORM), single)


def ones_columns(work, cache, n, b, cfg):
    """Every buffer of rows that a forward multiplies by an `_in_out` operand."""
    if cache is not None:
        rows = [cache["x"], *cache["hs"], *cache["rs"]]
        return rows + ([cache["h_premix"]] if cache["h_premix"] is not None else [])
    shape = (n * b, cfg.mix_dim + 1)
    return [work.take("x", (n * b, cfg.l1 + 1)), work.take("h0", shape),
            work.take("h1", shape), work.take("r0", shape)]


class TestBiasFold:
    """Every bias rides in its layer's GEMM, through a column of ones."""

    @pytest.mark.parametrize("n", [1, 5, 40, 307])
    @pytest.mark.parametrize("num_blocks", [1, 2, 3])
    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    @pytest.mark.parametrize("cache", [False, True])
    def test_matches_layer_by_layer_reference(self, cache, use_graph, num_blocks, n):
        params = init_params(toy_config(use_graph=use_graph, num_blocks=num_blocks),
                             n, seed=4)
        rng = np.random.default_rng(n)
        for tensor in params.tensors().values():  # biases far from zero
            tensor += rng.normal(0, 0.3, size=tensor.shape)
        x, ti, di = batch(toy_windows(3, n, seed=2))
        work = model.Workspace()
        out = forward(params, NORM, x, ti, di, cache=cache, work=work)
        out, held = out if cache else (out, None)
        reference = einsum_forward(params, x, ti, di)
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()
        for rows in ones_columns(work, held, n, 3, params.config):
            assert (rows[:, -1] == 1.0).all()

    @pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
    def test_ones_columns_survive_reused_buffers(self, use_graph):
        # a buffer name taken at another shape shifts where its last column
        # lies, so each forward writes its ones afresh
        params = init_params(toy_config(use_graph=use_graph), 5, seed=0)
        work = model.Workspace()
        for windows, cache in ((7, True), (3, False), (2, True), (7, False)):
            x, ti, di = batch(toy_windows(windows, 5, seed=windows))
            out = forward(params, NORM, x, ti, di, cache=cache, work=work)
            held = out[1] if cache else None
            for rows in ones_columns(work, held, 5, windows, params.config):
                assert (rows[:, -1] == 1.0).all()


class TestBuffers:
    """Reused buffers never leak into what a direct call returns."""

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_direct_forward_calls_return_fresh_arrays(self, use_graph):
        params = init_params(toy_config(use_graph=use_graph), 5, seed=0)
        x1, ti1, di1 = batch(toy_windows(3, 5, seed=1))
        x2, ti2, di2 = batch(toy_windows(3, 5, seed=2))
        first = forward(params, NORM, x1, ti1, di1)
        pred, cache = forward(params, NORM, x1, ti1, di1, cache=True)
        kept = [a.copy() for a in [first, pred, *cache["hs"], *cache["rs"]]]
        forward(params, NORM, x2, ti2, di2)
        forward(params, NORM, x2, ti2, di2, cache=True)
        for a, b in zip([first, pred, *cache["hs"], *cache["rs"]], kept):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_predict_calls_return_fresh_arrays(self, monkeypatch, use_graph):
        monkeypatch.setattr(model, "PREDICT_ROWS", 3 * 5)  # ragged blocks of 3
        params = init_params(toy_config(use_graph=use_graph), 5, seed=0)
        first = predict(params, toy_windows(10, 5, seed=1), NORM)
        kept = first.copy()
        second = predict(params, toy_windows(10, 5, seed=2), NORM)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_one_workspace_across_passes(self, monkeypatch, use_graph):
        # passes of different sizes through one workspace, each with a ragged
        # last block, give the bits of passes with buffers of their own
        monkeypatch.setattr(model, "PREDICT_ROWS", 4 * 5)
        params = init_params(toy_config(use_graph=use_graph), 5, seed=0)
        work = model.Workspace()
        for n_windows, seed in ((10, 1), (3, 2), (17, 3), (10, 1)):
            ws = toy_windows(n_windows, 5, seed=seed)
            np.testing.assert_array_equal(predict(params, ws, NORM, work=work),
                                          predict(params, ws, NORM))

    def test_workspace_buffers(self):
        work = model.Workspace()
        a = work.take("h", (4, 5))
        assert a.flags.c_contiguous and a.shape == (4, 5)
        assert work.take("h", (4, 5)) is a
        smaller = work.take("h", (2, 5))  # a leading slice of the same buffer
        assert smaller.shape == (2, 5) and np.shares_memory(a, smaller)
        grown = work.take("h", (8, 5))
        assert grown.shape == (8, 5) and not np.shares_memory(a, grown)
        mask = work.take("mask", (4, 5), bool)
        assert mask.dtype == bool and not np.shares_memory(mask, grown)


class Spy:
    """Counts the calls of a wrapped function and keeps their arguments."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.fn(*args, **kwargs)


class TestPredictBlocks:
    """Cache-sized inference blocks at the PEMS node count."""

    N = 307

    def pems_model(self, use_graph=True):
        params = init_params(ModelConfig(use_graph=use_graph), self.N, seed=0)
        table = np.random.default_rng(1).normal(size=(self.N, 8))
        return set_embedding(params, EmbeddingTable(values=table, strategy="pca"))

    def test_blocks_bit_identical_with_graph(self, monkeypatch):
        ws = toy_windows(26, self.N, l1=12, l2=12, t=288)
        params = self.pems_model()
        outputs = []
        for windows_per_block in (1, 7, 13, len(ws)):
            monkeypatch.setattr(model, "PREDICT_ROWS", windows_per_block * self.N)
            outputs.append(predict(params, ws, NORM))
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_graph_built_once_per_pass(self, monkeypatch, use_graph):
        ws = toy_windows(30, self.N, l1=12, l2=12, t=288)
        params = self.pems_model(use_graph)
        build = Spy(model.build_adaptive_graph)
        monkeypatch.setattr(model, "build_adaptive_graph", build)
        predict(params, ws, NORM)
        predict(set_embedding(params, zero_embedding(self.N, 8)), ws, NORM)
        assert len(build.calls) == (2 if use_graph else 0)

    @pytest.mark.parametrize("n_nodes", [5, 307, model.PREDICT_ROWS + 1])
    def test_forward_calls_within_row_budget(self, monkeypatch, n_nodes):
        ws = toy_windows(40, n_nodes)
        params = init_params(toy_config(use_graph=True), n_nodes, seed=0)
        fwd = Spy(model.forward)
        monkeypatch.setattr(model, "forward", fwd)
        predict(params, ws, NORM)
        rows = [args[2].shape[0] * args[2].shape[1] for args, _ in fwd.calls]
        assert all(r <= max(model.PREDICT_ROWS, n_nodes) for r in rows)
        assert sum(args[2].shape[0] for args, _ in fwd.calls) == len(ws)
        assert len(fwd.calls) == -(-len(ws) // max(1, model.PREDICT_ROWS // n_nodes))


class TestPemsShape:
    """The PEMS sizes: N=307, B=32, mix_dim 52. There BLAS runs the mix as a
    packed GEMM rather than through its small-matrix kernel, as at N=5."""

    N, B = 307, 32

    def batch(self, use_graph):
        params = init_params(ModelConfig(use_graph=use_graph), self.N, seed=4)
        rng = np.random.default_rng(9)
        for tensor in params.tensors().values():
            tensor += rng.normal(0, 0.1, size=tensor.shape)
        x = rng.normal(size=(self.B, self.N, 12))
        return params, x, rng.integers(0, 288, self.B), rng.integers(0, 7, self.B)

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_matches_einsum_reference(self, use_graph):
        params, x, ti, di = self.batch(use_graph)
        reference = einsum_forward(params, x, ti, di)
        scale = np.abs(reference).max()
        for cache in (False, True):
            out = forward(params, NORM, x, ti, di, cache=cache)
            out = out[0] if cache else out
            assert np.abs(out - reference).max() <= 1e-12 * scale

    @pytest.mark.parametrize("use_graph", [False, True])
    def test_layout_guard(self, use_graph):
        params, x, ti, di = self.batch(use_graph)
        norm, history = Normalizer(mean=40.0, std=20.0), 40.0 + 20.0 * x  # raw units
        node_major = np.ascontiguousarray(history.swapaxes(0, 1)).swapaxes(0, 1)
        assert not node_major.flags.c_contiguous
        np.testing.assert_array_equal(node_major, history)
        for cache in (False, True):
            plain = forward(params, norm, history, ti, di, cache=cache)
            viewed = forward(params, norm, node_major, ti, di, cache=cache)
            if cache:
                plain, viewed = plain[0], viewed[0]
            assert plain.tobytes() == viewed.tobytes()

        work = model.Workspace()
        pred, cache = forward(params, norm, node_major, ti, di, cache=True, work=work)
        held = cache["hs"] + cache["rs"]
        if use_graph:
            held.append(cache["h_premix"])
        # node-major rows, (node, window) at row node * B + window, each one
        # ending in a column of ones
        for a in held:
            assert a.shape == (self.N * self.B, params.config.mix_dim + 1)
            assert a.flags.c_contiguous and (a[:, -1] == 1.0).all()
        assert pred.shape == (self.B, self.N, 12) and pred.swapaxes(0, 1).flags.c_contiguous
        grads = training.FlatTensors.of(params, params.trainable_names())
        training.backward(params, cache, np.ones_like(pred), grads)
        # every full-size buffer of a step holds an activation, then the
        # gradient written over it, or a relu mask; none is a node-major copy
        # of another
        per_step = {"h0", "h1", "h2", "r0", "r1", "finite", "relu"}
        if use_graph:
            per_step |= {"h3"}
        rows = self.N * self.B * params.config.mix_dim
        full_size = {name for name, buf in work._buffers.items() if buf.size >= rows}
        assert full_size == per_step


class TestSetEmbedding:
    def test_swap_changes_node_count(self):
        params = init_params(toy_config(), 40, seed=0)
        rng = np.random.default_rng(5)
        table = EmbeddingTable(values=rng.normal(size=(25, 3)), strategy="pca")
        swapped = set_embedding(params, table)
        assert swapped.num_nodes == 25
        ws = toy_windows(2, 25)
        x, ti, di = batch(ws)
        assert forward(swapped, NORM, x, ti, di).shape == (2, 25, 4)

    def test_zero_strategy_table_with_a_nonzero_entry_cannot_be_built(self):
        values = np.zeros((5, 3))
        values[2, 1] = 5.0
        with pytest.raises(ValueError, match="zero-strategy embedding has nonzero"):
            EmbeddingTable(values=values, strategy="zero")

    def test_identity_swap_preserves_outputs(self):
        params = init_params(toy_config(), 5, seed=0)
        table = EmbeddingTable(values=params.embedding.values.copy(),
                               strategy="adaptive")
        swapped = set_embedding(params, table)
        x, ti, di = batch(toy_windows(3, 5))
        np.testing.assert_array_equal(forward(swapped, NORM, x, ti, di),
                                      forward(params, NORM, x, ti, di))

    def test_dim_mismatch(self):
        params = init_params(toy_config(), 5, seed=0)
        with pytest.raises(ValueError, match="embed_dim"):
            set_embedding(params, zero_embedding(5, 4))

    def test_original_params_untouched(self):
        params = init_params(toy_config(), 5, seed=0)
        before = params.embedding.values.copy()
        set_embedding(params, zero_embedding(5, 3))
        np.testing.assert_array_equal(params.embedding.values, before)
