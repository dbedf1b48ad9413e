"""Node-shared residual MLP forecaster with a pluggable embedding slot.

Every weight is shared across nodes; the only per-node quantity is the
embedding table. That is what lets a trained model run on a different node set
once the table is swapped, and what the optional graph step mixes over.
Activations are held node-major, [N x B x F]: node-shared weights see one flat
row axis, and the graph mix is one [N x N] @ [N x B*F] GEMM. `forward` takes
raw history [B x N x l1] and returns transposed node-major buffers [B x N x l2].
"""

import contextvars
import copy
import math
import os
from concurrent import futures
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import _check_fields, _setting, _usable_cpus
from .graph import build_adaptive_graph, graph_mix
from .pca import EmbeddingTable

# windows x nodes per block (`_blocks`) of inference and scoring, so a block's
# [rows x mix_dim] activations (0.85 MB at the default sizes) stay in a core's
# L2 cache; with the helper thread of `_predict_blocks` two blocks are in
# flight, one per core. With node-major activations on one BLAS thread, 1024,
# 2048 and 4096 rows ran within 6% of each other per window at N = 40, 170 and
# 307, and the order changed between runs (N=307 with the graph: 722/731/774,
# 675/702/662 us).
PREDICT_ROWS = 2048
# multiply-adds per BLAS call of a node-shared product, OpenBLAS's small-matrix
# limit. One BLAS thread ran [9824 x 52] @ [52 x 52] in 2.18 ms as one call and
# 1.49 ms in chunks of <= 369 rows (this budget); 1.62 ms at half, 2.18 at twice.
CHUNK_MACS = 1_000_000
# multiply-adds below which a task's hand-off to the helper thread does not
# pay, measured on one BLAS thread: inference passes took 1.03x as long with
# it below 15M, 0.92x at 30-60M. Single training tasks break even lower
# (CHANGES.md has the sweeps), but every workload's tasks lie below 4M or
# above 20M, where one threshold makes the same choice.
HELPER_MACS = 20_000_000


@dataclass
class ModelConfig:
    l1: int = _setting(12, "[1, inf)")
    l2: int = _setting(12, "[1, inf)")
    embed_dim: int = _setting(8, "[1, inf)")
    tod_dim: int = _setting(8, "[1, inf)")
    dow_dim: int = _setting(4, "[1, inf)")
    hidden_dim: int = _setting(32, "[1, inf)")
    num_blocks: int = _setting(2, "[1, inf)")
    use_graph: bool = False
    steps_per_day: int = _setting(288, "[1, inf)")

    def __post_init__(self):
        _check_fields(self)

    @property
    def mix_dim(self) -> int:
        return self.hidden_dim + self.embed_dim + self.tod_dim + self.dow_dim


@dataclass
class ModelParams:
    """All tensors of the forecaster: the embedding slot, and every other
    tensor in `weights` under its `_tensor_shapes` (checkpoint) name."""

    config: ModelConfig
    embedding: EmbeddingTable
    weights: dict

    def tensors(self):
        """Named views of every tensor, in the fixed serialization order."""
        return {name: self.embedding.values if name == "embedding" else self.weights[name]
                for name, _ in _tensor_shapes(self.config)}

    def bind(self, arrays: dict):
        """Point the named tensors at the given arrays, e.g. views of an
        optimizer's flat parameter vector."""
        for name, array in arrays.items():
            if name == "embedding":
                self.embedding.values = array
            else:
                self.weights[name] = array

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


class Workspace:
    """Arrays reused from call to call, one buffer per name.

    `take` returns a C-contiguous array of the asked shape with undefined
    contents. A name's buffer grows to the largest size asked for, and a
    smaller shape (a ragged last batch or block) gets a leading slice of it,
    so a loop over blocks of one pass allocates nothing after its first block.
    A workspace serves one thread at a time, which alone calls `take` and
    lends the helper thread views until they join: a training `forward` the
    upper node half's rows of its buffers, and backward's graph step its two
    [N x N] buffers. `lane` is its pair, which the helper thread of
    `_predict_blocks` forwards the odd blocks into.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}
        self._lane = None

    @property
    def lane(self) -> "Workspace":
        if self._lane is None:
            self._lane = Workspace()
        return self._lane

    def take(self, name, shape, dtype=np.float64):
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get(name)
            if buf is None or buf.size < size or buf.dtype != dtype:
                buf = self._buffers[name] = np.empty(size, dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = self._views[name, shape] = buf[:size].reshape(shape)
        return view


def _tensor_shapes(cfg: ModelConfig):
    """(name, shape) of every tensor in serialization order; None is the node
    count. A generator, so a damaged header claiming billions of blocks stops
    at the first tensor the file does not hold instead of listing them all."""
    cm = cfg.mix_dim
    yield from (("w_x", (cfg.hidden_dim, cfg.l1)), ("b_x", (cfg.hidden_dim,)),
                ("embedding", (None, cfg.embed_dim)),
                ("tod", (cfg.steps_per_day, cfg.tod_dim)), ("dow", (7, cfg.dow_dim)))
    for i in range(cfg.num_blocks):
        yield from ((f"w1_{i}", (cm, cm)), (f"b1_{i}", (cm,)),
                    (f"w2_{i}", (cm, cm)), (f"b2_{i}", (cm,)))
    yield from (("w_o", (cfg.l2, cm)), ("b_o", (cfg.l2,)))


def _from_tensors(config: ModelConfig, tensors: dict, strategy: str) -> ModelParams:
    """The model of the tensors `_tensor_shapes` names, its table tagged `strategy`."""
    weights = dict(tensors)
    return ModelParams(config, EmbeddingTable(weights.pop("embedding"), strategy), weights)


def init_params(config: ModelConfig, n: int, seed: int) -> ModelParams:
    """Deterministic initialization: Xavier-uniform weights, zero biases,
    small-normal adaptive embedding, drawn in serialization order."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _tensor_shapes(config):
        if len(shape) == 1:
            tensors[name] = np.zeros(shape)
        elif name == "embedding":
            tensors[name] = rng.normal(0.0, 0.01, size=(n, shape[1]))
        else:
            a = np.sqrt(6.0 / sum(shape))
            tensors[name] = rng.uniform(-a, a, size=shape)
    return _from_tensors(config, tensors, "adaptive")


def set_embedding(params: ModelParams, table: EmbeddingTable) -> ModelParams:
    """Return a copy of the model with the embedding slot replaced by a copy
    of `table`. The node count may change freely; no other tensor depends on
    it.
    """
    if table.dim != params.config.embed_dim:
        raise ValueError(
            f"embedding dim {table.dim} does not match model embed_dim "
            f"{params.config.embed_dim}"
        )
    out = params.clone()
    out.embedding = EmbeddingTable(values=table.values.copy(), strategy=table.strategy)
    return out


def _in_out(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-contiguous [in + 1 x out] operand [w.T; b] of an [out x in] weight and
    its bias: rows ending in a 1 (`forward`'s) times it are `w @ row + b`, run by
    BLAS's NN kernel (`h @ w.T`, a transposed view, takes the NT kernel, 25-40%
    slower at these shapes on OpenBLAS). The copy costs microseconds a call."""
    wb = np.empty((w.shape[1] + 1, w.shape[0]))
    wb[:-1], wb[-1] = w.T, b
    return wb


def _rows_matmul(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`a @ w` into the first F' columns of `out` for a node-shared weight w
    [F x F'], the leading axes of a and out one row axis, in even chunks of at
    most CHUNK_MACS // (F * F') rows; returns `out`. A row has the same bits
    in every call of two or more rows; a call of one row (a one-row `a`)
    takes BLAS's matrix-vector path, whose last bits may differ."""
    a2, out2 = a.reshape(-1, a.shape[-1]), out.reshape(-1, out.shape[-1])[:, : w.shape[1]]
    rows = len(a2)
    chunks = -(-rows // max(1, CHUNK_MACS // w.size))
    for i in range(chunks):
        lo, hi = rows * i // chunks, rows * (i + 1) // chunks
        np.matmul(a2[lo:hi], w, out=out2[lo:hi])
    return out


def forward(params: ModelParams, normalizer, history: np.ndarray, tod_idx, dow_idx,
            cache: bool = False, graph: Optional[np.ndarray] = None,
            work: Optional[Workspace] = None):
    """Run the forecaster on a raw batch, with the model's own embedding slot.

    history: [B x N x l1] in original units, z-scored by `normalizer` straight
    into node-major rows that end in a 1; returns predictions [B x N x l2] in
    normalized units. With cache=True also returns the intermediates needed
    for the backward pass. With use_graph, `graph` is the [N x N] adaptive
    graph of the slot, passed in by a caller that forwards several batches
    while the table stays fixed; when it is None the graph is built here.
    Activations, the cache's included, are written into `work`, so the next
    call with it overwrites them; without one the call takes a workspace of
    its own.

    Rows are node-major, so the nodes split the rows: with cache=True and a
    `_helper` thread for the upper half's work, the helper runs the upper
    half of the nodes while this thread runs the lower half and builds the
    graph. They join for the graph mix, which this thread runs as the one
    GEMM of one thread (a row or column split of it can move last bits:
    OpenBLAS tiles a GEMM by the offsets in the call), and then run the later
    blocks on their halves again. Each half's products stay chunked as
    `_rows_matmul` cuts them, so every row keeps the bits of one thread. Every
    buffer is taken here, on this thread, and every exit waits for the
    helper; the non-finite check that fails first in block order is the one
    raised, and the output is checked last, whole.
    """
    cfg = params.config
    work = Workspace() if work is None else work
    emb = params.embedding
    b, n, l1 = history.shape
    if l1 != cfg.l1:
        raise ValueError(f"history length {l1} != l1 {cfg.l1}")
    if emb.num_nodes != n:
        raise ValueError(f"embedding rows {emb.num_nodes} != batch nodes {n}")

    ch, ce, ct, cm = cfg.hidden_dim, cfg.embed_dim, cfg.tod_dim, cfg.mix_dim
    rows, blocks = n * b, cfg.num_blocks
    # activation k goes to buffer h{k}, node-major rows [N*B x mix_dim + 1]
    # that end in a 1. The backward pass reads every one, but inference reads
    # only activation k-1 while writing k, so two alternate.
    # all taken here, before either half runs, the activations in the order of
    # first use: where the buffers land in memory moved a 40-node fit by 3%
    xs, acts, rs = work.take("x", (rows, l1 + 1)), [work.take("h0", (rows, cm + 1))], []
    for i in range(blocks if cache else 1):
        rs.append(work.take(f"r{i}", (rows, cm + 1)))
        for _ in range(1 + (cache and cfg.use_graph and i == 0)):
            acts.append(work.take(f"h{len(acts)}", (rows, cm + 1)))
    finite = work.take("finite", (rows, cm + 1), bool)
    ys = work.take("y", (rows, cfg.l2))
    w = params.weights
    ops = [_in_out(w[f"{name}_{i}"], w[f"b{name[1]}_{i}"])
           for i in range(blocks) for name in ("w1", "w2")]
    w_x, w_o = _in_out(w["w_x"], w["b_x"]), _in_out(w["w_o"], w["b_o"])
    tod, dow = w["tod"][tod_idx], w["dow"][dow_idx]
    adp = graph if cfg.use_graph else None

    def nodes(a):  # [N x B x F] view of rows that end in a 1
        return a[:, :-1].reshape(len(a) // b, b, -1)

    def run(lo, hi):
        """Nodes lo:hi through the net, writing only their rows: yields None
        at the graph mix, then the block whose check failed, or None."""
        part = slice(lo * b, hi * b)
        x = xs[part]
        x[:, l1] = 1.0  # ones first: stale memory could overflow
        np.subtract(history[:, lo:hi].swapaxes(0, 1), normalizer.mean,
                    out=x[:, :l1].reshape(hi - lo, b, l1))
        x /= normalizer.std  # one division over whole rows, then the ones again
        x[:, l1] = 1.0
        h = acts[0][part]  # [history features | embedding | time of day | day of week]
        h[:, cm] = 1.0
        _rows_matmul(x, w_x, h)
        nodes(h)[:, :, ch : ch + ce] = emb.values[lo:hi, None, :]
        nodes(h)[:, :, ch + ce : ch + ce + ct] = tod
        nodes(h)[:, :, ch + ce + ct :] = dow
        k = 0
        for i in range(blocks):
            r = rs[i if cache else 0][part]
            r[:, cm] = 1.0
            _rows_matmul(h, ops[2 * i], r)
            np.maximum(r, 0.0, out=r)  # relu in place: r > 0 exactly where z > 0
            k += 1
            h_next = acts[k if cache else k % 2][part]
            h_next[:, cm] = 0.0
            _rows_matmul(r, ops[2 * i + 1], h_next)
            h_next += h  # the residual, whose 1 lands on the 0 of the ones column
            if cfg.use_graph and i == 0:
                yield  # the pre-mix rows are written; the caller mixes every node's
                k += 1
                h_next = acts[k if cache else 0][part]
            if not np.isfinite(h_next, out=finite[part]).all():
                yield i
                return
            h = h_next
        _rows_matmul(h, w_o, ys[part])
        yield None

    helper = None
    if cache and n > 1:  # the multiply-adds of the helper's half
        helper = _helper((n - n // 2) * b * (
            (l1 + 1) * ch + (cm + 1) * (2 * blocks * cm + cfg.l2)))
    halves = [run(0, n)] if helper is None else [run(0, n // 2), run(n // 2, n)]
    for phase in range(1 + cfg.use_graph):  # a graph model's halves join for the mix
        if phase:
            premix, mixed = acts[1], acts[2 if cache else 0]
            if cache:  # one GEMM, over the ones column too: it sums to 1 within an ulp
                graph_mix(adp, premix.reshape(n, b, -1), out=mixed.reshape(n, b, -1))
            else:  # per window: a prediction is the same in any block
                graph_mix(adp, nodes(premix), out=nodes(mixed), per_window=True)
            mixed[:, cm] = 1.0
        task = None if helper is None else helper.submit(
            contextvars.copy_context().run, next, halves[1])
        failed = []
        try:
            failed.append(next(halves[0]))
            if cfg.use_graph and adp is None:
                adp = build_adaptive_graph(emb.values)
        finally:  # a helper error, like a later half in one-thread order, wins
            if task is not None:
                failed.append(task.result())
    failed = [i for i in failed if i is not None]
    if failed:
        raise FloatingPointError(f"non-finite activations in block {min(failed)}")
    if not np.isfinite(ys, out=work.take("finite", ys.shape, bool)).all():
        raise FloatingPointError("non-finite output")
    y = ys.reshape(n, b, -1).swapaxes(0, 1)
    if not cache:
        return y
    return y, {
        "x": xs, "hs": acts[:1] + acts[1 + cfg.use_graph :], "rs": rs,
        "h_premix": acts[1] if cfg.use_graph else None,
        "tod_idx": tod_idx, "dow_idx": dow_idx,
        "graph": adp, "work": work,
    }


def _blocks(count: int, n: int):
    """Slices over `count` rows of n cells each, max(1, PREDICT_ROWS // n) rows
    a slice: the one block rule of inference and of scoring, so that a block
    of predictions and the block of errors it is scored in coincide."""
    step = max(1, PREDICT_ROWS // max(1, n))
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


_HELPER = None  # (process id, its helper thread or None)


def _helper(macs):
    """The one helper thread of this process, made on first use, for `macs`
    multiply-adds of work; None below HELPER_MACS or on one CPU. It forwards
    the odd inference blocks of `_predict_blocks`, and a training `forward`'s
    upper node half and `backward`'s graph chain, each in a copy of the
    caller's context; a training task calls no public function. A forked
    child makes its own: its copy of the parent's executor has no thread."""
    global _HELPER
    if _HELPER is None or _HELPER[0] != os.getpid():
        _HELPER = os.getpid(), futures.ThreadPoolExecutor(1) if _usable_cpus() > 1 else None
    return _HELPER[1] if macs >= HELPER_MACS else None


def _predict_blocks(params, windows, normalizer, work: Workspace):
    """Forward the windows in blocks: yields each block's predictions in
    original units with its targets, both [b x N x l2].

    Blocks are the windows' `_blocks` of N nodes, and the adaptive graph is
    built once per pass. Every block is normalized, forwarded and
    de-normalized in place through buffers of `work`, so it is valid until
    the next one is drawn. A block's predictions depend on its own windows
    alone, so blocks may run at the same time. A window's prediction has the
    same bits in every block of two or more rows (windows x nodes); in a
    block of one row, one window of a one-node model, the products take
    BLAS's matrix-vector path (see `_rows_matmul`) and the last bits may
    differ. With a `_helper` thread for the multiply-adds of blocks 3, 5,
    ..., the odd blocks go into `work.lane`, and from block 3 on the helper
    forwards each odd block while this thread forwards the even one before
    it (and blocks 0 and 1, so both lanes' buffers come from its allocator).
    Blocks are yielded in order, so the error raised is the first in block
    order. A helper block runs in a copy of this thread's context, so
    `np.errstate` holds there too, and a pass that ends early waits for its
    helper block.
    """
    count, n = windows.history.shape[:2]
    blocks, cfg = list(_blocks(count, n)), params.config
    graph = build_adaptive_graph(params.embedding.values) if cfg.use_graph else None

    def run(rows, into):
        y = forward(params, normalizer, windows.history[rows], windows.tod[rows],
                    windows.dow[rows], graph=graph, work=into)
        return normalizer.invert(y, out=y), windows.target[rows]

    helper = _helper(n * sum(len(range(count)[s]) for s in blocks[3::2]) * cfg.mix_dim
                     * (2 * cfg.num_blocks * cfg.mix_dim + cfg.use_graph * n))
    lane = work if helper is None else work.lane
    pending = None
    try:
        for i, rows in enumerate(blocks):
            if i % 2:
                yield run(rows, lane) if pending is None else pending.result()
                pending = None
                continue
            if helper is not None and 0 < i < len(blocks) - 1:
                pending = helper.submit(contextvars.copy_context().run, run,
                                        blocks[i + 1], lane)
            yield run(rows, work)
    finally:
        if pending is not None and not pending.cancel():
            futures.wait((pending,))


def predict(params: ModelParams, windows, normalizer,
            work: Optional[Workspace] = None) -> np.ndarray:
    """Predictions [W x N x l2] in original units, gathered from the blocks of
    `_predict_blocks` (through `work`'s buffers, or else the pass's own)."""
    pred = np.empty(windows.history.shape[:2] + (params.config.l2,))
    lo = 0
    for block, _ in _predict_blocks(params, windows, normalizer,
                                     Workspace() if work is None else work):
        pred[lo : lo + len(block)] = block
        lo += len(block)
    return pred
