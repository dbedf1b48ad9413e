"""Masked loss, exact reverse-mode gradients, Adam, and the training loop."""

import contextvars
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model
from .dataset import Normalizer, _check, _check_fields, _setting
from .graph import _embedding_grad, build_adaptive_graph
from .metrics import _scored_mae
from .model import ModelParams, Workspace, _rows_matmul, forward

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
# entries per dot product of the clip norm: OpenBLAS threads `ddot` above
# ~10,000 entries, and a threaded dot adds in another order, so a vector's
# norm is a sum of dots over fixed chunks, one BLAS thread each, added in order
NORM_CHUNK = 8192


@dataclass
class TrainConfig:
    lr: float = _setting(1e-3, "(0, inf)")
    max_epochs: int = _setting(200, "[1, inf)")
    patience: int = _setting(20, "[1, inf)")
    batch_size: int = _setting(32, "[1, inf)")
    grad_clip_norm: float = _setting(5.0, "(0, inf)")
    seed: int = _setting(0, "[0, inf)")

    def __post_init__(self):
        _check_fields(self)
        _check("patience", self.patience, f"[1, {self.max_epochs}]")


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # (epoch, train_loss, val_mae)
    best_epoch: int = 0
    best_val_mae: float = float("inf")
    stopping_reason: str = ""


def masked_mae_loss(pred: np.ndarray, target: np.ndarray, normalizer: Normalizer,
                    mask=None, work: Optional[Workspace] = None):
    """Mean absolute error over nonzero-target cells, in original units.

    pred is normalized, target is raw; predictions are de-normalized inside so
    the masking matches evaluation exactly. Returns (loss, d loss / d pred).
    `mask` is `target != 0` when the caller has it already. Passes walk pred's
    memory order, and the gradient, laid out like pred, goes into `work` or
    else a workspace of the call's own. A batch with no valid cells yields
    (nan, zeros) and a warning; callers skip it rather than fail.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if mask is None:
        mask = target != 0
    count = np.count_nonzero(mask)
    if count == 0:
        warnings.warn("batch skipped: no valid (nonzero) targets")
        return float("nan"), np.zeros_like(pred)
    work = Workspace() if work is None else work
    axes = sorted(range(pred.ndim), key=lambda k: -pred.strides[k])  # memory order
    pred, target, mask = (a.transpose(axes) for a in (pred, target, mask))
    denorm = normalizer.invert(pred, out=work.take("loss_denorm", pred.shape))
    diff = np.subtract(denorm, target, out=work.take("loss_diff", pred.shape))
    diff *= mask  # masked cells become +-0.0, which abs and sign both map to +0.0
    loss = float(np.abs(diff, out=denorm).sum() / count)
    grad = np.sign(diff, out=denorm)  # sign(0) = 0 covers ties; in place is slower
    grad *= normalizer.std / count
    return loss, grad.transpose(sorted(range(len(axes)), key=axes.__getitem__))


class FlatTensors(dict):
    """Arrays by name, each a view of one flat vector `flat`, laid out in
    name order."""

    def __init__(self, flat: np.ndarray, shapes: dict):
        super().__init__()
        self.flat = flat
        lo = 0
        for name, shape in shapes.items():
            hi = lo + math.prod(shape)
            self[name] = flat[lo:hi].reshape(shape)
            lo = hi

    @classmethod
    def of(cls, params: ModelParams, names) -> "FlatTensors":
        """An uninitialized vector shaped like the model's named tensors."""
        tensors = params.tensors()
        shapes = {name: tensors[name].shape for name in names}
        return cls(np.empty(sum(map(math.prod, shapes.values()))), shapes)


def _layer_grads(grads, w, b, d, rows, work):
    """Gradients of weight `w` and bias `b` of a layer that read `rows`, which
    end in a ones column, and got back d: one GEMM d.T @ rows."""
    if w in grads or b in grads:
        wb = np.matmul(d.T, rows, out=work.take("wb", (d.shape[1], rows.shape[1])))
        for name, part in ((w, wb[:, :-1]), (b, wb[:, -1])):
            if name in grads:
                grads[name][...] = part


def backward(params: ModelParams, cache: dict, loss_grad: np.ndarray,
             grads: FlatTensors) -> FlatTensors:
    """Exact gradients of the cached forward pass, written into `grads`.

    Only the tensors that `grads` names are differentiated, while the `dh`
    chain runs through every block. Batch and node axes are contracted as one
    flat node-major [N*B] axis: a layer's weight and bias gradients are one
    BLAS matmul against its input rows and their ones column, and each graph
    product one GEMM on [N x B*F] views; gradient rows end in a column of
    exact zeros, which adds exact zeros to those GEMMs. Temporaries come from
    the forward's workspace, and each activation gradient is written over
    the cached activation just read for the last time, so a cache serves one
    backward: a second raises ValueError. The graph's share of the embedding
    gradient is computed only when the embedding is requested; with two
    blocks or more the `_helper` thread computes it, in a copy of this
    context, while this thread writes the pre-mix gradient into block 1's
    spent rows and runs block 0 and `w_x`. Neither writes what the other
    reads, and every exit waits for it.
    """
    cfg = params.config
    work, hs, rs = cache["work"], cache.pop("hs", None), cache["rs"]
    if hs is None:
        raise ValueError("a forward cache serves one backward: it holds gradients now")
    b, n, _ = loss_grad.shape
    ch, ce, ct, cm = cfg.hidden_dim, cfg.embed_dim, cfg.tod_dim, cfg.mix_dim
    rows = n * b
    w = params.weights
    dy = np.ascontiguousarray(loss_grad.swapaxes(0, 1)).reshape(rows, -1)

    def dead(a):  # cached rows read for the last time, to hold a gradient
        a[:, cm] = 0.0
        return a

    _layer_grads(grads, "w_o", "b_o", dy, hs[-1], work)
    dh = _rows_matmul(dy, w["w_o"], dead(hs[-1]))

    d_emb_graph = pending = None  # the graph's share, or the helper's future of it
    try:
        for i in range(cfg.num_blocks - 1, -1, -1):
            if cfg.use_graph and i == 0:
                a, h_premix, dh_mixed = cache["graph"], cache["h_premix"], dh.reshape(n, -1)
                if "embedding" in grads:
                    args = (a, dh_mixed, h_premix.reshape(n, -1), params.embedding.values,
                            work.take("d_adj", (n, n)), work.take("d_gram", (n, n)))
                    helper = cfg.num_blocks > 1 and model._helper(n * rows * (cm + 1))
                    if not helper:
                        d_emb_graph = _embedding_grad(*args)
                    else:
                        pending = helper.submit(contextvars.copy_context().run,
                                                _embedding_grad, *args)
                # pre-mix gradient: into block 1's spent rows, else over pre-mix rows read
                dh = hs[1] if cfg.num_blocks > 1 else h_premix
                np.matmul(a.T, dh_mixed, out=dh.reshape(n, -1))
            _layer_grads(grads, f"w2_{i}", f"b2_{i}", dh[:, :cm], rs[i], work)
            relu = np.greater(rs[i], 0.0, out=work.take("relu", rs[i].shape, bool))
            dz = _rows_matmul(dh[:, :cm], w[f"w2_{i}"], dead(rs[i]))
            dz *= relu
            _layer_grads(grads, f"w1_{i}", f"b1_{i}", dz[:, :cm], hs[i], work)
            dh += _rows_matmul(dz[:, :cm], w[f"w1_{i}"], dead(hs[i]))

        _layer_grads(grads, "w_x", "b_x", dh[:, :ch], cache["x"], work)
        dh = dh.reshape(n, b, -1)
        ones = work.take("ones", (max(n, b),))
        ones.fill(1.0)
        if "embedding" in grads:
            np.matmul(ones[:b], dh[:, :, ch : ch + ce], out=grads["embedding"])
        if "tod" in grads or "dow" in grads:
            # each window's sums over nodes, one product for both tables
            dh_sum = np.matmul(ones[:n], dh.reshape(n, -1),
                               out=work.take("dh_sum", (b * (cm + 1),))).reshape(b, -1)
        for name, lo, hi in (("tod", ch + ce, ch + ce + ct), ("dow", ch + ce + ct, cm)):
            if name in grads:
                grads[name].fill(0.0)
                np.add.at(grads[name], cache[f"{name}_idx"], dh_sum[:, lo:hi])
    finally:  # every exit waits; a helper error, first in one-thread order, wins
        if pending is not None:
            d_emb_graph = pending.result()
    if d_emb_graph is not None:
        grads["embedding"] += d_emb_graph

    if not np.isfinite(grads.flat).all():
        for name, g in grads.items():  # name the first bad tensor
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name}")
    return grads


def clip_gradients(grads: FlatTensors, max_norm: float):
    """Scale the gradient vector down, in place, if its global norm exceeds
    max_norm. Returns (grads, pre-clip norm), whose bits do not depend on
    the BLAS thread count."""
    g = grads.flat
    total = math.sqrt(sum(float(g[lo : lo + NORM_CHUNK] @ g[lo : lo + NORM_CHUNK])
                          for lo in range(0, len(g), NORM_CHUNK)))
    if total > max_norm:
        grads.flat *= max_norm / total
    return grads, total


@dataclass
class AdamState:
    """Adam over one flat vector `theta` of the trained tensors, which the
    model's tensors are views of; `m` and `v` are its moments and `scratch`
    a vector the update works in."""

    theta: FlatTensors
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def bound(cls, params: ModelParams, names) -> "AdamState":
        """A fresh state whose `theta` holds the named tensors' values, the
        model's tensors rebound to its views. A table that enters `theta` is
        trained, so its tag becomes adaptive."""
        theta = FlatTensors.of(params, names)
        tensors = params.tensors()
        np.concatenate([tensors[name].ravel() for name in theta], out=theta.flat)
        params.bind(theta)
        if "embedding" in theta:
            params.embedding.strategy = "adaptive"
        flat = theta.flat
        return cls(theta, np.zeros_like(flat), np.zeros_like(flat), np.empty_like(flat))


def adam_step(state: AdamState, grads: FlatTensors, lr: float):
    """One bias-corrected Adam update of `state.theta` by the (clipped)
    gradient vector of the same tensors.

    The update is a dozen whole-vector operations, and both bias corrections
    fold into two scalars: lr * m_hat / (sqrt(v_hat) + EPS) equals
    step * m / (sqrt(v) + eps_hat) with step = lr * sqrt(c2) / c1 and
    eps_hat = EPS * sqrt(c2), where c1, c2 are 1 - BETA1**t, 1 - BETA2**t.
    """
    if list(grads) != list(state.theta):
        raise ValueError(f"Adam state holds {list(state.theta)}, got {list(grads)}")
    state.t += 1
    root_c2 = math.sqrt(1 - BETA2 ** state.t)
    step = lr * root_c2 / (1 - BETA1 ** state.t)
    eps_hat = EPS * root_c2
    g, m, v, s = grads.flat, state.m, state.v, state.scratch
    m *= BETA1
    m += np.multiply(g, 1 - BETA1, out=s)
    np.multiply(g, g, out=s)
    s *= 1 - BETA2
    v *= BETA2
    v += s
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= step
    state.theta.flat -= s


def fit(params: ModelParams, train_windows, val_windows, normalizer,
        config: TrainConfig, trainable=None):
    """Train with seeded shuffling, keep the best validation snapshot.

    Only a strictly lower validation MAE is a new best; training stops after
    `patience` epochs in a row without one, or at the epoch cap (the report's
    stopping_reason says which). A non-finite loss, like non-finite
    activations in `forward`, raises FloatingPointError. The trained tensors
    become views of Adam's vector before the first step. The embedding slot
    is one of them only under the adaptive strategy or an explicit trainable
    list, which tags it adaptive; otherwise it is untouched, bit for bit.
    """
    if not train_windows or not val_windows:
        raise ValueError("train and validation windows must be non-empty")
    names = params.trainable_names() if trainable is None else list(trainable)
    n_train = len(train_windows)
    n, l2 = train_windows.target.shape[1:]
    # a table that no step updates keeps one graph for the whole fit
    frozen_graph = None
    if params.config.use_graph and "embedding" not in names:
        frozen_graph = build_adaptive_graph(params.embedding.values)

    rng = np.random.default_rng(config.seed)
    state = AdamState.bound(params, names)
    grads = FlatTensors.of(params, names)
    report = TrainReport()
    stale = 0  # epochs since the last improvement
    best = params.clone()
    # every step and every validation pass draws its arrays from here
    work = Workspace()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_train)
        losses = []
        for lo in range(0, n_train, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            # the batch gathered straight into node-major [N x B x .] buffers;
            # forward and the loss take their [B x N x .] transposed views
            y_batch = work.take("y_batch", (n, len(idx), l2))
            np.copyto(y_batch, train_windows.target[idx].swapaxes(0, 1))
            mask = np.not_equal(y_batch, 0.0, out=work.take("mask", y_batch.shape, bool))
            if not mask.any():
                warnings.warn("batch skipped: no valid (nonzero) targets")
                continue
            pred, cache = forward(params, normalizer, train_windows.history[idx],
                                  train_windows.tod[idx], train_windows.dow[idx],
                                  cache=True, graph=frozen_graph, work=work)
            loss, lgrad = masked_mae_loss(pred, y_batch.swapaxes(0, 1), normalizer,
                                          mask=mask.swapaxes(0, 1), work=work)
            if not np.isfinite(loss):
                raise FloatingPointError("non-finite training loss")
            backward(params, cache, lgrad, grads)
            clip_gradients(grads, config.grad_clip_norm)
            adam_step(state, grads, config.lr)
            losses.append(loss)

        val_mae = _scored_mae(params, val_windows, normalizer, work)
        train_loss = float(np.mean(losses)) if losses else float("nan")
        report.epochs.append((epoch, train_loss, val_mae))
        if val_mae < report.best_val_mae:
            report.best_epoch, report.best_val_mae, stale = epoch, val_mae, 0
            best = params.clone()
        else:
            stale += 1
        if stale >= config.patience:
            report.stopping_reason = "early_stopping"
            break
    else:
        report.stopping_reason = "max_epochs"
    return best, report


def finite_difference_check(params: ModelParams, windows, normalizer,
                            h: float = 1e-5):
    """Central-difference check of backward, scalar by scalar.

    Returns {tensor name: max relative error}. Relative error uses
    max(|analytic|, |numeric|) as denominator; pairs where both magnitudes
    are below 1e-7 count as exact (the difference is pure roundoff).
    """
    names = params.trainable_names()
    pred, cache = forward(params, normalizer, windows.history, windows.tod, windows.dow,
                          cache=True)
    _, lgrad = masked_mae_loss(pred, windows.target, normalizer)
    grads = backward(params, cache, lgrad, FlatTensors.of(params, names))

    work = Workspace()

    def loss_at():
        return _scored_mae(params, windows, normalizer, work)

    errors = {}
    tensors = params.tensors()
    for name in names:
        tensor = tensors[name]
        analytic = grads[name]
        worst = 0.0
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + h
            lp = loss_at()
            tensor[ix] = orig - h
            lm = loss_at()
            tensor[ix] = orig
            fd = (lp - lm) / (2 * h)
            a = analytic[ix]
            denom = max(abs(a), abs(fd))
            if denom < 1e-7:
                continue
            worst = max(worst, abs(a - fd) / denom)
        errors[name] = worst
    return errors
