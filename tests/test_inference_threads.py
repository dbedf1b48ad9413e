"""The helper thread of `model._predict_blocks`, forced off and on whatever the
runner's CPU count: both paths give the same bits, the same first error and
the same floating-point rules, and no helper block outlives its pass."""

import os
import signal
import threading
import time
from concurrent import futures

import numpy as np
import pytest

from stpca import model
from stpca.dataset import Normalizer, Windows
from stpca.metrics import evaluate
from stpca.model import ModelConfig, init_params, predict
from stpca.training import TrainConfig, fit

N = 5
NORM = Normalizer(mean=5.0, std=3.0)


def toy_params(use_graph, seed=0):
    config = ModelConfig(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2, hidden_dim=6,
                         num_blocks=2, use_graph=use_graph, steps_per_day=64)
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
    """`helper(on)` forces the helper off or on; returns its executor."""
    executor = Recording()

    def use(on):
        monkeypatch.setattr(model, "_helper", lambda: executor if on else None)
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
    assert model._helper() is None
    monkeypatch.setattr(model, "_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    first = model._helper()
    try:
        assert first is not None and model._helper() is first
        monkeypatch.setattr(model, "PREDICT_ROWS", 3 * N)
        params, ws = toy_params(True), toy_windows(18)
        expected = predict(params, ws, NORM)  # the helper's thread is running
        pid = os.fork()
        if pid == 0:  # the child: a fresh helper, or SIGALRM ends a hung pass
            code = 1
            try:
                signal.alarm(30)
                fresh = model._helper()
                same = predict(params, ws, NORM).tobytes() == expected.tobytes()
                code = 0 if fresh not in (None, first) and same else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        first.shutdown()
