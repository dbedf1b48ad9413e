"""The helper thread (`model._helper`), forced off and on whatever the runner's
CPU count and the work handed to it. In inference (`model._predict_blocks`)
and in graph training (the embedding-gradient chain of `training.backward`)
both paths give the same bits, the same first error and the same
floating-point rules, and no helper task outlives the call that submitted it."""

import os
import signal
import sys
import threading
import time
from concurrent import futures

import numpy as np
import pytest

from stpca import model, training
from stpca.dataset import Normalizer, Windows
from stpca.metrics import evaluate
from stpca.model import ModelConfig, forward, init_params, predict
from stpca.training import FlatTensors, TrainConfig, backward, fit, masked_mae_loss

N = 5
NORM = Normalizer(mean=5.0, std=3.0)


def toy_params(use_graph, seed=0, num_blocks=2):
    config = ModelConfig(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2, hidden_dim=6,
                         num_blocks=num_blocks, use_graph=use_graph, steps_per_day=64)
    params = init_params(config, N, seed=seed)
    params.embedding.values[:] = np.random.default_rng(seed + 1).normal(size=(N, 3))
    return params


def toy_windows(n_windows, seed=0):
    """Windows whose time-of-day index is their position, so a block is known
    by the first `tod` it forwards."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(0, 10, size=(n_windows, N, 4))
    target[rng.random(target.shape) < 0.1] = 0.0
    return Windows(history=rng.uniform(0, 10, size=(n_windows, N, 4)), target=target,
                   tod=np.arange(n_windows) % 64, dow=np.arange(n_windows) % 7)


class Recording(futures.ThreadPoolExecutor):
    """A one-thread executor that keeps every future it hands out."""

    def __init__(self):
        super().__init__(1)
        self.submitted = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.submitted.append(future)
        return future


@pytest.fixture
def helper(monkeypatch):
    """`helper(on)` forces the helper off or on, for any amount of work;
    returns its executor."""
    executor = Recording()

    def use(on):
        monkeypatch.setattr(model, "_helper", lambda macs: executor if on else None)
        return executor

    yield use
    executor.shutdown()


@pytest.fixture
def slow_helper(monkeypatch):
    """Every forward in a thread other than the main one first sleeps 0.2 s."""
    real = model.forward

    def forward(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "forward", forward)


@pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
@pytest.mark.parametrize("n_windows, n_blocks", [(3, 1), (6, 2), (15, 5), (18, 6),
                                                 (14, 5), (17, 6)],
                         ids=["1", "2", "odd", "even", "odd-ragged", "even-ragged"])
def test_both_paths_bit_identical(monkeypatch, helper, use_graph, n_windows, n_blocks):
    monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
    params, ws = toy_params(use_graph), toy_windows(n_windows)
    helper(False)
    pred, report = predict(params, ws, NORM), evaluate(params, None, ws, NORM)
    executor = helper(True)
    work = model.Workspace()
    for _ in range(2):  # a fresh lane, then a reused one
        assert predict(params, ws, NORM, work=work).tobytes() == pred.tobytes()
    assert evaluate(params, None, ws, NORM) == report
    # the helper forwards the odd blocks from the fourth on
    assert len(executor.submitted) == 3 * max(0, (n_blocks - 2) // 2)


@pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
def test_fit_bit_identical(monkeypatch, helper, use_graph):
    monkeypatch.setattr(model, "PREDICT_ROWS", 2 * N)  # 7 validation blocks
    config = TrainConfig(max_epochs=4, patience=4, batch_size=8, seed=1, lr=5e-3)
    train, val = toy_windows(24, seed=2), toy_windows(13, seed=3)
    runs = []
    for on in (False, True):
        executor = helper(on)
        runs.append(fit(toy_params(use_graph), train, val, NORM, config))
    (best_off, report_off), (best_on, report_on) = runs
    assert executor.submitted and report_on == report_off
    on_tensors = best_on.tensors()
    for name, tensor in best_off.tensors().items():
        assert tensor.tobytes() == on_tensors[name].tobytes(), name


def test_overflow_in_a_helper_block_raises(monkeypatch, helper):
    # with a tiny std every block's activations are huge but finite; block 3,
    # the helper's, overflows while it is z-scored
    params, ws = toy_params(False), toy_windows(15)
    ws.history[9:12] = 1e30
    norm = Normalizer(mean=0.0, std=1e-290)
    monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
    executor = helper(True)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        predict(params, ws, norm)
    with np.errstate(over="warn", invalid="ignore"), \
            pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(FloatingPointError, match="non-finite"):
        predict(params, ws, norm)
    assert len(executor.submitted) == 2


@pytest.mark.parametrize("first", [1, 3])
def test_first_error_in_block_order(monkeypatch, helper, slow_helper, first):
    # blocks `first` and `first + 1` both fail; the helper's block 3 is slow
    monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
    inner = model.forward

    def forward(params, normalizer, history, tod, *args, **kwargs):
        block = tod[0] // 3
        if block in (first, first + 1):
            raise ValueError(f"bad block {block}")
        return inner(params, normalizer, history, tod, *args, **kwargs)

    monkeypatch.setattr(model, "forward", forward)
    helper(True)
    with pytest.raises(ValueError, match=f"bad block {first}$"):
        predict(toy_params(True), toy_windows(18), NORM)


def test_early_close_waits_for_the_helper(monkeypatch, helper, slow_helper):
    monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
    params, ws = toy_params(True), toy_windows(18)
    helper(False)
    expected = predict(params, ws, NORM)
    executor = helper(True)
    work = model.Workspace()
    blocks = model._predict_blocks(params, ws, NORM, work)
    for _ in range(3):  # blocks 0-2; block 3 is in the helper's hands
        next(blocks)
    assert not executor.submitted[0].done()
    blocks.close()
    assert all(f.done() for f in executor.submitted)
    assert predict(params, ws, NORM, work=work).tobytes() == expected.tobytes()


def test_one_helper_per_process(monkeypatch):
    monkeypatch.setattr(model, "_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert model._helper(model.HELPER_MACS) is None
    monkeypatch.setattr(model, "_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    first = model._helper(model.HELPER_MACS)
    try:
        assert first is not None and model._helper(model.HELPER_MACS) is first
        assert model._helper(model.HELPER_MACS - 1) is None  # too little work
        monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
        params, ws = toy_params(True), toy_windows(18)
        expected = predict(params, ws, NORM)  # the helper's thread is running
        pid = os.fork()
        if pid == 0:  # the child: a fresh helper, or SIGALRM ends a hung pass
            code = 1
            try:
                signal.alarm(30)
                fresh = model._helper(model.HELPER_MACS)
                same = predict(params, ws, NORM).tobytes() == expected.tobytes()
                code = 0 if fresh not in (None, first) and same else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        first.shutdown()


@pytest.mark.parametrize("use_graph", [False, True], ids=["flat", "graph"])
@pytest.mark.parametrize("n_windows, helper_windows", [(9, 0), (14, 3), (17, 5), (18, 6)],
                         ids=["3", "5-ragged", "6-ragged", "6"])
def test_pass_asks_for_its_helper_share(monkeypatch, use_graph, n_windows, helper_windows):
    # blocks of 3 windows; the helper's are blocks 3, 5, ...
    monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
    asked = []
    monkeypatch.setattr(model, "_helper", lambda macs: asked.append(macs))
    params = toy_params(use_graph)
    predict(params, toy_windows(n_windows), NORM)
    cm = params.config.mix_dim
    assert asked == [helper_windows * N * cm * (2 * 2 * cm + use_graph * N)]


# ---------------------------------------------------------------- graph training

@pytest.fixture
def chain(monkeypatch):
    """Wraps backward's graph chain, which first sleeps 0.1 s off the main
    thread; returns the list of whether each call ran on the main thread."""
    real, on_main = training._embedding_grad, []

    def wrapped(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        if not on_main[-1]:
            time.sleep(0.1)
        return real(*args)

    monkeypatch.setattr(training, "_embedding_grad", wrapped)
    return on_main


def graph_params(table, num_blocks):
    """A graph model with an adaptive, fine-tuned or frozen pca table, and
    the trainable list `fit` takes for it."""
    params = toy_params(True, num_blocks=num_blocks)
    if table == "pca":
        params.embedding.strategy = "pca"
    return params, ["embedding"] if table == "finetune" else None


def one_backward(params, ws, names=None):
    pred, cache = forward(params, NORM, ws.history, ws.tod, ws.dow, cache=True)
    _, lgrad = masked_mae_loss(pred, ws.target, NORM)
    names = params.trainable_names() if names is None else names
    return backward(params, cache, lgrad, FlatTensors.of(params, names))


@pytest.mark.parametrize("table", ["adaptive", "finetune", "pca"])
@pytest.mark.parametrize("num_blocks", [1, 2, 3])
def test_backward_bit_identical(helper, chain, table, num_blocks):
    # the helper's chain starts 0.1 s late: it must still read the pre-mix rows
    params, trainable = graph_params(table, num_blocks)
    ws = toy_windows(7)
    flats = []
    for on in (False, True):
        executor = helper(on)
        flats.append(one_backward(params, ws, trainable).flat.tobytes())
    assert flats[0] == flats[1]
    on_helper = num_blocks > 1 and table != "pca"
    assert len(executor.submitted) == on_helper
    assert chain == ([] if table == "pca" else [True, not on_helper])


@pytest.mark.parametrize("table", ["adaptive", "finetune", "pca"])
@pytest.mark.parametrize("num_blocks", [1, 2, 3])
def test_graph_fit_bit_identical(helper, table, num_blocks):
    # 23 windows in batches of 8: the last batch of each epoch is ragged
    config = TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=1, lr=5e-3)
    train, val = toy_windows(23, seed=2), toy_windows(9, seed=3)
    runs = []
    for on in (False, True):
        executor = helper(on)
        params, trainable = graph_params(table, num_blocks)
        runs.append(fit(params, train, val, NORM, config, trainable=trainable))
    (best_off, report_off), (best_on, report_on) = runs
    assert report_on == report_off
    on_tensors = best_on.tensors()
    for name, tensor in best_off.tensors().items():
        assert tensor.tobytes() == on_tensors[name].tobytes(), name
    steps = 3 * 3 if num_blocks > 1 and table != "pca" else 0
    assert len(executor.submitted) == steps


@pytest.mark.parametrize("on", [False, True], ids=["off", "on"])
def test_overflow_in_the_graph_chain_raises(monkeypatch, helper, on):
    real, on_main = training._embedding_grad, []

    def overflowing(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args) * 1e300 * 1e300

    monkeypatch.setattr(training, "_embedding_grad", overflowing)
    helper(on)
    params, ws = toy_params(True), toy_windows(7)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        one_backward(params, ws)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(FloatingPointError, match="non-finite gradient for embedding"):
        one_backward(params, ws)
    assert on_main == [not on] * 2


def test_caller_error_waits_for_the_chain(monkeypatch, helper, chain):
    real = training._layer_grads

    def failing(grads, w, *args):
        if w == "w_x":  # after the chain was handed to the helper
            raise ValueError("caller fails")
        return real(grads, w, *args)

    monkeypatch.setattr(training, "_layer_grads", failing)
    executor = helper(True)
    with pytest.raises(ValueError, match="caller fails"):
        one_backward(toy_params(True), toy_windows(7))
    assert chain == [False] and executor.submitted[0].done()


def test_cache_serves_one_backward_with_the_helper(helper):
    executor = helper(True)
    params, ws = toy_params(True, num_blocks=3), toy_windows(7)
    pred, cache = forward(params, NORM, ws.history, ws.tod, ws.dow, cache=True)
    _, lgrad = masked_mae_loss(pred, ws.target, NORM)
    grads = FlatTensors.of(params, params.trainable_names())
    backward(params, cache, lgrad, grads)
    with pytest.raises(ValueError, match="serves one backward"):
        backward(params, cache, lgrad, grads)
    assert len(executor.submitted) == 1


def test_backward_under_fast_thread_switches(helper):
    # GIL hand-offs every microsecond: 30 backwards with the helper, each with
    # the bits of the one-thread order
    params, ws = toy_params(True, num_blocks=3), toy_windows(7)
    helper(False)
    expected = one_backward(params, ws).flat.tobytes()
    executor = helper(True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flats = [one_backward(params, ws).flat.tobytes() for _ in range(30)]
    finally:
        sys.setswitchinterval(interval)
    assert flats == [expected] * 30 and len(executor.submitted) == 30
