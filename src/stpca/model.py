"""Node-shared residual MLP forecaster with a pluggable embedding slot.

Every weight is shared across nodes; the only per-node quantity is the
embedding table. That is what lets a trained model run on a different node set
once the table is swapped, and what the optional graph step mixes over.
"""

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import build_adaptive_graph, graph_mix
from .pca import EmbeddingTable, zero_embedding


@dataclass
class ModelConfig:
    l1: int = 12
    l2: int = 12
    embed_dim: int = 8
    tod_dim: int = 8
    dow_dim: int = 4
    hidden_dim: int = 32
    num_blocks: int = 2
    use_graph: bool = False
    steps_per_day: int = 288

    def __post_init__(self):
        dims = (self.l1, self.l2, self.embed_dim, self.tod_dim, self.dow_dim,
                self.hidden_dim, self.num_blocks, self.steps_per_day)
        if any(d < 1 for d in dims):
            raise ValueError("all config dimensions must be >= 1")

    @property
    def mix_dim(self) -> int:
        return self.hidden_dim + self.embed_dim + self.tod_dim + self.dow_dim


@dataclass
class ModelParams:
    """All tensors of the forecaster plus the embedding slot."""

    config: ModelConfig
    w_x: np.ndarray
    b_x: np.ndarray
    embedding: EmbeddingTable
    tod: np.ndarray
    dow: np.ndarray
    blocks: list  # per block: dict with w1, b1, w2, b2
    w_o: np.ndarray
    b_o: np.ndarray

    def tensors(self):
        """Named views of every tensor, in the fixed serialization order."""
        out = {"w_x": self.w_x, "b_x": self.b_x, "embedding": self.embedding.values,
               "tod": self.tod, "dow": self.dow}
        for i, blk in enumerate(self.blocks):
            for key in ("w1", "b1", "w2", "b2"):
                out[f"{key}_{i}"] = blk[key]
        out["w_o"] = self.w_o
        out["b_o"] = self.b_o
        return out

    def trainable_names(self):
        """Embedding is a trainable tensor only under the adaptive strategy."""
        names = list(self.tensors())
        if self.embedding.strategy != "adaptive":
            names.remove("embedding")
        return names

    def clone(self) -> "ModelParams":
        return copy.deepcopy(self)

    @property
    def num_nodes(self) -> int:
        return self.embedding.num_nodes


def _xavier(rng, out_dim, in_dim):
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-a, a, size=(out_dim, in_dim))


def init_params(config: ModelConfig, n: int, seed: int) -> ModelParams:
    """Deterministic initialization: Xavier-uniform weights, zero biases,
    small-normal adaptive embedding."""
    rng = np.random.default_rng(seed)
    cm = config.mix_dim
    w_x = _xavier(rng, config.hidden_dim, config.l1)
    emb = rng.normal(0.0, 0.01, size=(n, config.embed_dim))
    tod = _xavier(rng, config.steps_per_day, config.tod_dim)
    dow = _xavier(rng, 7, config.dow_dim)
    blocks = []
    for _ in range(config.num_blocks):
        blocks.append({
            "w1": _xavier(rng, cm, cm),
            "b1": np.zeros(cm),
            "w2": _xavier(rng, cm, cm),
            "b2": np.zeros(cm),
        })
    w_o = _xavier(rng, config.l2, cm)
    return ModelParams(
        config=config,
        w_x=w_x,
        b_x=np.zeros(config.hidden_dim),
        embedding=EmbeddingTable(values=emb, strategy="adaptive"),
        tod=tod,
        dow=dow,
        blocks=blocks,
        w_o=w_o,
        b_o=np.zeros(config.l2),
    )


def set_embedding(params: ModelParams, table: EmbeddingTable) -> ModelParams:
    """Return a copy of the model with the embedding slot replaced.

    A zero-strategy table always lands as exact zeros. The node count may
    change freely; no other tensor depends on it.
    """
    if table.dim != params.config.embed_dim:
        raise ValueError(
            f"embedding dim {table.dim} does not match model embed_dim "
            f"{params.config.embed_dim}"
        )
    out = params.clone()
    if table.strategy == "zero":
        out.embedding = zero_embedding(table.num_nodes, table.dim)
    else:
        out.embedding = EmbeddingTable(values=table.values.copy(),
                                       strategy=table.strategy)
    return out


def forward(params: ModelParams, embedding: Optional[EmbeddingTable],
            x: np.ndarray, tod_idx, dow_idx, cache: bool = False):
    """Run the forecaster on a normalized batch.

    x: [B x N x l1]; returns predictions [B x N x l2] in normalized units.
    With cache=True also returns the intermediates needed for the backward
    pass. The embedding defaults to the model's own slot.
    """
    cfg = params.config
    emb = params.embedding if embedding is None else embedding
    b, n, l1 = x.shape
    if l1 != cfg.l1:
        raise ValueError(f"history length {l1} != l1 {cfg.l1}")
    if emb.num_nodes != n:
        raise ValueError(f"embedding rows {emb.num_nodes} != batch nodes {n}")
    if emb.dim != cfg.embed_dim:
        raise ValueError(f"embedding dim {emb.dim} != embed_dim {cfg.embed_dim}")

    u = x @ params.w_x.T
    u += params.b_x
    tod_vec = params.tod[tod_idx]  # [B x Ct]
    dow_vec = params.dow[dow_idx]
    h = np.concatenate(
        [
            u,
            np.broadcast_to(emb.values, (b, n, cfg.embed_dim)),
            np.broadcast_to(tod_vec[:, None, :], (b, n, cfg.tod_dim)),
            np.broadcast_to(dow_vec[:, None, :], (b, n, cfg.dow_dim)),
        ],
        axis=2,
    )

    adp = build_adaptive_graph(emb) if cfg.use_graph else None

    # intermediates are kept only when the backward pass will need them
    hs, rs = [h], []
    h_premix = None
    for i, blk in enumerate(params.blocks):
        r = h @ blk["w1"].T
        r += blk["b1"]
        np.maximum(r, 0.0, out=r)  # relu in place: r > 0 exactly where z > 0
        h_next = r @ blk["w2"].T
        h_next += h
        h_next += blk["b2"]
        if cfg.use_graph and i == 0:
            if cache:
                h_premix = h_next
            h_next = graph_mix(adp, h_next)
        if not np.isfinite(h_next).all():
            raise FloatingPointError(f"non-finite activations in block {i}")
        if cache:
            rs.append(r)
            hs.append(h_next)
        h = h_next

    y = h @ params.w_o.T
    y += params.b_o
    if not np.isfinite(y).all():
        raise FloatingPointError("non-finite output")
    if not cache:
        return y
    return y, {
        "x": x, "tod_idx": tod_idx, "dow_idx": dow_idx,
        "hs": hs, "rs": rs, "h_premix": h_premix,
        "graph": adp, "embedding": emb,
    }


def predict(params: ModelParams, embedding, windows, normalizer,
            batch_size: int = 256) -> np.ndarray:
    """Forward the windows in batches: predictions [W x N x l2] in original units.

    Histories are normalized one batch at a time and each batch is written
    into an array allocated once; a window's prediction does not depend on the
    batch it falls in.
    """
    pred = np.empty(windows.history.shape[:2] + (params.config.l2,))
    for lo in range(0, len(windows), batch_size):
        hi = lo + batch_size
        x = normalizer.apply(windows.history[lo:hi])
        y = forward(params, embedding, x, windows.tod[lo:hi], windows.dow[lo:hi])
        pred[lo:hi] = normalizer.invert(y)
    return pred
