"""Row-stochastic adaptive adjacency built from node embeddings."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pca import EmbeddingTable


@dataclass
class AdaptiveGraph:
    """[N x N] non-negative weights; every row sums to 1."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = self.weights.shape[0]
        if self.weights.shape != (n, n):
            raise ValueError("graph weights must be square")
        if (self.weights < 0).any():
            raise ValueError("negative graph weight")
        if np.abs(self.weights.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("rows must sum to 1")

    @property
    def num_nodes(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def weights_t(self) -> np.ndarray:
        """C-contiguous transpose, made once per graph for the backward mix.

        `weights_t @ dh` runs BLAS's NN kernel where `weights.T @ dh` takes the
        slower TN kernel; the products are bit-identical.
        """
        return np.ascontiguousarray(self.weights.T)


def row_softmax(logits: np.ndarray) -> np.ndarray:
    # max subtraction changes nothing mathematically, only avoids overflow;
    # summing each row in sorted order makes its denominator independent of
    # element order, so permuting nodes permutes the output bit-exactly
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = np.cumsum(np.sort(e, axis=1), axis=1)[:, -1]
    return e / denom[:, None]


def build_adaptive_graph(embedding) -> AdaptiveGraph:
    """Similarity graph: row-wise softmax of the rectified embedding Gram matrix.

    Non-positive similarities become zero logits (not -inf), so a node with no
    positive neighbor gets uniform outgoing weights.
    """
    e = embedding.values if isinstance(embedding, EmbeddingTable) else np.asarray(embedding)
    if e.ndim != 2 or e.shape[0] < 1:
        raise ValueError("embedding must be [N x C] with N >= 1")
    if not np.isfinite(e).all():
        raise ValueError("non-finite embedding")
    logits = np.maximum(e @ e.T, 0.0)
    return AdaptiveGraph(weights=row_softmax(logits))


def graph_mix(g: AdaptiveGraph, h: np.ndarray, out=None) -> np.ndarray:
    """One propagation step: each node receives the weighted mean of its neighbors.

    h is [N x F] or a batch [B x N x F]; a batch is one BLAS matmul per row.
    The result goes to `out` when it is given.
    """
    h = np.asarray(h, dtype=np.float64)
    rows = h.shape[-2] if h.ndim > 1 else len(h)
    if rows != g.num_nodes:
        raise ValueError(
            f"feature rows ({rows}) do not match graph nodes ({g.num_nodes})"
        )
    return np.matmul(g.weights, h, out=out)
