"""Row-stochastic adaptive adjacency built from node embeddings."""

import numpy as np


def row_softmax(logits: np.ndarray, out=None) -> np.ndarray:
    # written into `out` when given, which may be `logits`. The max subtraction
    # only avoids overflow; summing each row in sorted order makes its
    # denominator independent of element order, so permuting nodes permutes
    # the output bit-exactly
    out = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    denom = np.sort(out, axis=1)  # the one scratch array
    np.cumsum(denom, axis=1, out=denom)
    out /= denom[:, -1:]
    return out


def _gram(e: np.ndarray) -> np.ndarray:
    # a fresh [N x N] array. einsum sums each entry over C on its own, so
    # permuting nodes permutes it bit-exactly; BLAS's `e @ e.T` does not at
    # PEMS size (N=307, C=8)
    return np.einsum("nc,mc->nm", e, e)


def build_adaptive_graph(e: np.ndarray) -> np.ndarray:
    """Similarity graph of an [N x C] embedding array: row-wise softmax of the
    rectified Gram matrix, [N x N] non-negative weights whose every row sums
    to 1. Permuting the nodes permutes the graph bit-exactly.

    Non-positive similarities become zero logits (not -inf), so a node with no
    positive neighbor gets uniform outgoing weights.
    """
    e = np.asarray(e)
    if e.ndim != 2 or e.shape[0] < 1:
        raise ValueError("embedding must be [N x C] with N >= 1")
    if not np.isfinite(e).all():
        raise ValueError("non-finite embedding")
    weights = _gram(e)  # fresh per build (a forward cache keeps it), then in place
    np.maximum(weights, 0.0, out=weights)
    return row_softmax(weights, out=weights)


def graph_mix(g: np.ndarray, h: np.ndarray, out=None, per_window=False):
    """One propagation step: each node receives the weighted mean of its neighbors.

    g is the [N x N] graph and h is node-major, [N x ...]: a batch [N x B x F]
    mixes in one [N x N] @ [N x B*F] GEMM, into `out` (C-contiguous) when it
    is given. BLAS picks kernels by shape, so a column's bits can depend on the
    rest of its call: `per_window` runs one GEMM per window, whose bits the
    batch cannot change.
    """
    h = np.asarray(h, dtype=np.float64)
    if len(h) != len(g):
        raise ValueError(f"feature rows ({len(h)}) do not match graph nodes ({len(g)})")
    out = np.empty(h.shape) if out is None else out
    if per_window:
        np.matmul(g, h.swapaxes(0, 1), out=out.swapaxes(0, 1))
    else:
        np.matmul(g, h.reshape(len(h), -1), out=out.reshape(len(h), -1))
    return out
