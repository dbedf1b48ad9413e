"""Masked loss, exact reverse-mode gradients, Adam, and the training loop."""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import Normalizer
from .metrics import masked_metrics
from .model import ModelParams, forward, predict


@dataclass
class TrainConfig:
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    batch_size: int = 32
    grad_clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if min(self.lr, self.max_epochs, self.patience, self.batch_size,
               self.grad_clip_norm) <= 0:
            raise ValueError("training hyperparameters must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # (epoch, train_loss, val_mae)
    best_epoch: int = 0
    best_val_mae: float = float("inf")
    stopping_reason: str = ""


def masked_mae_loss(pred: np.ndarray, target: np.ndarray, normalizer: Normalizer):
    """Mean absolute error over nonzero-target cells, in original units.

    pred is normalized, target is raw; predictions are de-normalized inside so
    the masking matches evaluation exactly. Returns (loss, d loss / d pred).
    A batch with no valid cells yields (nan, zeros) and a warning; callers
    skip it rather than fail.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    mask = target != 0
    count = int(mask.sum())
    if count == 0:
        warnings.warn("batch skipped: no valid (nonzero) targets")
        return float("nan"), np.zeros_like(pred)
    diff = np.where(mask, normalizer.invert(pred) - target, 0.0)
    loss = float(np.abs(diff).sum() / count)
    grad = np.sign(diff) * (normalizer.std / count)  # sign(0) = 0 covers ties
    return loss, grad


def _flat(a: np.ndarray) -> np.ndarray:
    """[B x N x F] -> [B*N x F] view: batch and node axes contract together."""
    return a.reshape(-1, a.shape[-1])


def _node_major(a: np.ndarray) -> np.ndarray:
    """[B x N x F] -> [N x B*F] copy, so a node-pair contraction is one matmul."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def backward(params: ModelParams, cache: dict, loss_grad: np.ndarray,
             trainable=None):
    """Exact gradients of the cached forward pass for every trainable tensor.

    Batch and node axes are contracted as one flat [B*N] axis, so every
    weight gradient is a single BLAS matmul and every bias sum a ones-vector
    product.
    """
    cfg = params.config
    names = params.trainable_names() if trainable is None else list(trainable)
    hs, rs = cache["hs"], cache["rs"]
    x = cache["x"]
    b, n, _ = x.shape
    ch, ce, ct = cfg.hidden_dim, cfg.embed_dim, cfg.tod_dim
    ones = np.ones(b * n)

    grads = {}
    dy = _flat(loss_grad)
    grads["w_o"] = dy.T @ _flat(hs[-1])
    grads["b_o"] = ones @ dy
    dh = dy @ params.w_o  # [B*N x mix_dim] from here on

    d_emb_graph = None
    for i in range(cfg.num_blocks - 1, -1, -1):
        if cfg.use_graph and i == 0:
            adp, h_pre = cache["graph"], cache["h_premix"]
            dh_mixed = dh.reshape(b, n, -1)
            d_adj = _node_major(dh_mixed) @ _node_major(h_pre).T
            dh = _flat(adp.weights.T @ dh_mixed)
            # softmax rows -> relu -> gram -> embedding
            a = adp.weights
            e = cache["embedding"].values
            d_logits = a * (d_adj - (a * d_adj).sum(axis=1, keepdims=True))
            d_gram = d_logits * (e @ e.T > 0)
            d_emb_graph = (d_gram + d_gram.T) @ e
        blk = params.blocks[i]
        grads[f"b2_{i}"] = ones @ dh
        grads[f"w2_{i}"] = dh.T @ _flat(rs[i])
        dz = dh @ blk["w2"]
        dz *= _flat(rs[i]) > 0
        grads[f"b1_{i}"] = ones @ dz
        grads[f"w1_{i}"] = dz.T @ _flat(hs[i])
        dh += dz @ blk["w1"]

    du = dh[:, :ch]
    grads["w_x"] = du.T @ _flat(x)
    grads["b_x"] = ones @ du

    dh = dh.reshape(b, n, -1)
    d_emb = dh[:, :, ch : ch + ce].sum(axis=0)
    if d_emb_graph is not None:
        d_emb = d_emb + d_emb_graph
    grads["embedding"] = d_emb

    d_tod = np.zeros_like(params.tod)
    np.add.at(d_tod, cache["tod_idx"], dh[:, :, ch + ce : ch + ce + ct].sum(axis=1))
    grads["tod"] = d_tod
    d_dow = np.zeros_like(params.dow)
    np.add.at(d_dow, cache["dow_idx"], dh[:, :, ch + ce + ct :].sum(axis=1))
    grads["dow"] = d_dow

    out = {name: grads[name] for name in names}
    for name, g in out.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
    return out


def clip_gradients(grads: dict, max_norm: float):
    """Scale the whole gradient set down, in place, if its global norm
    exceeds max_norm. Returns (grads, pre-clip norm)."""
    total = math.sqrt(sum(float(g.ravel() @ g.ravel()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads, total


@dataclass
class AdamState:
    """Adam moments of every trained tensor, concatenated in gradient order."""

    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0
    names: tuple = ()  # the gradient names m and v were laid out for


def adam_step(state: AdamState, params: ModelParams, grads: dict, lr: float,
              beta1=0.9, beta2=0.999, eps=1e-8, grad_clip_norm=None):
    """One bias-corrected Adam update, applied in place (clipping scales
    `grads` in place too).

    The moments live in one flat buffer each, updated in place, and both bias
    corrections fold into two scalars: lr * m_hat / (sqrt(v_hat) + eps)
    equals step * m / (sqrt(v) + eps_hat) with step = lr * sqrt(c2) / c1 and
    eps_hat = eps * sqrt(c2), where c1, c2 are 1 - beta1**t, 1 - beta2**t.
    """
    if grad_clip_norm is not None:
        grads, _ = clip_gradients(grads, grad_clip_norm)
    names = tuple(grads)
    if state.m is None:
        size = sum(g.size for g in grads.values())
        state.m, state.v, state.names = np.zeros(size), np.zeros(size), names
    elif names != state.names:
        raise ValueError(f"Adam state holds {state.names}, got gradients for {names}")
    flat = np.concatenate([g.ravel() for g in grads.values()])
    state.t += 1
    root_c2 = math.sqrt(1 - beta2 ** state.t)
    step = lr * root_c2 / (1 - beta1 ** state.t)
    eps_hat = eps * root_c2
    m, v = state.m, state.v
    m *= beta1
    m += (1 - beta1) * flat
    flat *= flat
    v *= beta2
    v += (1 - beta2) * flat
    update = np.sqrt(v)
    update += eps_hat
    np.divide(m, update, out=update)
    update *= step
    tensors = params.tensors()
    lo = 0
    for name, grad in grads.items():
        hi = lo + grad.size
        tensors[name] -= update[lo:hi].reshape(grad.shape)
        lo = hi


class EarlyStopping:
    """Patience counter on strictly-improving validation MAE."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = float("inf")
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, val_mae: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_mae < self.best:
            self.best = val_mae
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def fit(params: ModelParams, train_windows, val_windows, normalizer,
        config: TrainConfig, trainable=None):
    """Train with seeded shuffling, keep the best validation snapshot.

    Stops on patience exhaustion, the epoch cap, or a non-finite loss (the
    report's stopping_reason says which). The model's embedding slot is
    updated only when the adaptive strategy (or an explicit trainable list)
    includes it; otherwise it is untouched, bit for bit.
    """
    if not train_windows or not val_windows:
        raise ValueError("train and validation windows must be non-empty")
    names = params.trainable_names() if trainable is None else list(trainable)
    n_train = len(train_windows)

    rng = np.random.default_rng(config.seed)
    state = AdamState()
    report = TrainReport()
    stopper = EarlyStopping(config.patience)
    best = params.clone()

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n_train)
        losses = []
        for lo in range(0, n_train, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            y_batch = train_windows.target[idx]
            if not (y_batch != 0).any():
                warnings.warn("batch skipped: no valid (nonzero) targets")
                continue
            x = normalizer.apply(train_windows.history[idx])
            pred, cache = forward(params, None, x, train_windows.tod[idx],
                                  train_windows.dow[idx], cache=True)
            loss, lgrad = masked_mae_loss(pred, y_batch, normalizer)
            if not np.isfinite(loss):
                report.stopping_reason = "diverged"
                report.best_epoch = stopper.best_epoch
                report.best_val_mae = stopper.best
                return best, report
            grads = backward(params, cache, lgrad, trainable=names)
            adam_step(state, params, grads, config.lr,
                      grad_clip_norm=config.grad_clip_norm)
            losses.append(loss)

        val_mae = masked_metrics(predict(params, None, val_windows, normalizer),
                                 val_windows.target).mae
        train_loss = float(np.mean(losses)) if losses else float("nan")
        report.epochs.append((epoch, train_loss, val_mae))
        improved = val_mae < stopper.best
        should_stop = stopper.update(epoch, val_mae)
        if improved:
            best = params.clone()
        if should_stop:
            report.stopping_reason = "early_stopping"
            break
    else:
        report.stopping_reason = "max_epochs"

    report.best_epoch = stopper.best_epoch
    report.best_val_mae = stopper.best
    return best, report


def finite_difference_check(params: ModelParams, windows, normalizer,
                            h: float = 1e-5):
    """Central-difference check of backward, scalar by scalar.

    Returns {tensor name: max relative error}. Relative error uses
    max(|analytic|, |numeric|) as denominator; pairs where both magnitudes
    are below 1e-7 count as exact (the difference is pure roundoff).
    """
    names = params.trainable_names()
    x = normalizer.apply(windows.history)
    pred, cache = forward(params, None, x, windows.tod, windows.dow, cache=True)
    _, lgrad = masked_mae_loss(pred, windows.target, normalizer)
    grads = backward(params, cache, lgrad, trainable=names)

    def loss_at():
        return masked_metrics(predict(params, None, windows, normalizer),
                              windows.target).mae

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
