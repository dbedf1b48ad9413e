"""Memory bounded by the blocks in flight, not by the series.

`tracemalloc` sees numpy's array allocations, so a call's traced peak shows
whether it built a full-size [W x N x l2] prediction array, a full copy of
a file's text, a gradient buffer beside each cached activation, a second
series, or a copy of the days a PCA table is built from. The PEMS04-length
CLI chain is bounded by each command's peak RSS instead, in a fresh process.
"""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from stpca import dataset
from stpca.dataset import (Normalizer, TrafficSeries, fit_normalizer, ingest_csv,
                           make_windows, to_day_tensor, write_series_csv)
from stpca.metrics import evaluate
from stpca.model import ModelConfig, forward, init_params
from stpca.pca import pca_table
from stpca.synth import SynthSpec, generate
from stpca.training import TrainConfig, fit
from stpca.transfer import historical_average_baseline

N, T, L = 307, 288, 12
WINDOWS = 720  # [W x N x l2] predictions: 720 * 307 * 12 * 8 B = 21.2 MB
PRED_BYTES = WINDOWS * N * L * 8


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes allocated while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def series():
    """One day of history, then enough steps for WINDOWS windows."""
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 80.0, size=(T + WINDOWS + 2 * L - 1, N))
    values[rng.random(values.shape) < 0.05] = 0.0
    return TrafficSeries(values=values, steps_per_day=T, start_slot=0,
                         start_dow=0, node_ids=[f"n{i}" for i in range(N)])


def small_model(use_graph):
    config = ModelConfig(l1=L, l2=L, embed_dim=4, tod_dim=4, dow_dim=2,
                         hidden_dim=8, num_blocks=1, use_graph=use_graph)
    params = init_params(config, N, seed=0)
    params.embedding.values[:] = np.random.default_rng(1).normal(size=(N, 4))
    return params


def test_prediction_array_is_the_size_that_matters():
    assert PRED_BYTES >= 20 * 2**20


@pytest.mark.parametrize("use_graph", [False, True])
def test_evaluate_peak_below_a_quarter_of_predictions(series, use_graph):
    windows = make_windows(series, (T, series.total_steps), L, L)
    assert len(windows) == WINDOWS
    report, peak = traced_peak(evaluate, small_model(use_graph), None, windows,
                               Normalizer(mean=40.0, std=20.0))
    assert np.isfinite(report.horizons["avg"].mae)
    assert peak < PRED_BYTES / 4


def test_historical_average_peak_below_a_quarter_of_predictions(series):
    report, peak = traced_peak(historical_average_baseline, series,
                               (T, series.total_steps), L, L)
    assert np.isfinite(report.horizons["avg"].mae)
    assert peak < PRED_BYTES / 4


def test_fit_validation_peak_below_a_quarter_of_predictions(series):
    # a few small training batches, then one validation pass over WINDOWS
    train = make_windows(series, (0, 2 * L + 3), L, L)
    val = make_windows(series, (T, series.total_steps), L, L)
    config = TrainConfig(max_epochs=1, patience=1, batch_size=2)
    (_, report), peak = traced_peak(fit, small_model(False), train, val,
                                    Normalizer(mean=40.0, std=20.0), config)
    assert np.isfinite(report.best_val_mae)
    assert peak < PRED_BYTES / 4


@pytest.mark.parametrize("use_graph", [False, True])
def test_training_step_peak_below_one_and_a_half_forward_caches(series, use_graph):
    # one B=32 batch at the default sizes: backward writes each gradient over
    # the cached activation it has just read, not into buffers of its own
    batch = 32
    train = make_windows(series, (0, batch + 2 * L - 1), L, L)
    val = make_windows(series, (T, T + 2 * L + 1), L, L)
    assert len(train) == batch
    params = init_params(ModelConfig(use_graph=use_graph), N, seed=0)
    norm = Normalizer(mean=40.0, std=20.0)
    _, cache = forward(params, norm, train.history, train.tod, train.dow, cache=True)
    held = [cache["x"], *cache["hs"], *cache["rs"]]
    if use_graph:
        held.append(cache["h_premix"])
    cache_bytes = sum(a.nbytes for a in held)
    assert cache_bytes >= 20 * 2**20
    config = TrainConfig(max_epochs=1, patience=1, batch_size=batch)
    (_, report), peak = traced_peak(fit, params, train, val, norm, config)
    assert np.isfinite(report.best_val_mae)
    assert peak < 1.5 * cache_bytes


def test_synth_generate_peak_below_two_and_a_half_series():
    # the clean signal is added day by day, never held at full size
    spec = SynthSpec(n_nodes=N, days=21, steps_per_day=T)
    (train, _, _), peak = traced_peak(generate, spec)
    assert peak < 2.5 * train.values.nbytes


@pytest.mark.parametrize("processes", [1, 2], ids=["one-process", "two-processes"])
def test_write_series_csv_peak_below_file_size(series, tmp_path, monkeypatch, processes):
    # with two, this process's peak includes appending the child's rows
    monkeypatch.setattr(dataset, "FORK_BYTES", 2 ** 62 if processes == 1 else 0)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: processes)
    path = tmp_path / "series.csv"
    _, peak = traced_peak(write_series_csv, series, path)
    assert peak < os.path.getsize(path)


def test_ingest_csv_peak_below_file_size(series, tmp_path):
    # the lines stream into np.loadtxt; a list of them alone is the file's size
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    back, peak = traced_peak(ingest_csv, path)
    assert back.values.tobytes() == series.values.tobytes()
    assert peak < os.path.getsize(path)


@pytest.mark.parametrize("n_nodes", [1, 3])
def test_day_tensor_is_a_read_only_view(n_nodes):
    # one node makes the transposed days C-contiguous; a view all the same
    values = np.random.default_rng(2).uniform(1.0, 80.0, size=(2 * T, n_nodes))
    s = TrafficSeries(values=values, steps_per_day=T, start_slot=0, start_dow=0,
                      node_ids=[f"n{i}" for i in range(n_nodes)])
    z = to_day_tensor(s, (0, 2 * T))
    assert np.shares_memory(z, s.values)
    with pytest.raises(ValueError, match="read-only"):
        z[0, 0, 0] = 1.0


@pytest.mark.parametrize("fit", [True, False], ids=["fit", "fixed-projection"])
def test_pca_table_peak_below_a_quarter_of_the_day_tensor(fit):
    # PEMS04's training range: 35 days of 307 nodes, 24.8 MB as a day tensor
    days = 35
    values = np.random.default_rng(3).uniform(1.0, 80.0, size=(days * T, N))
    s = TrafficSeries(values=values, steps_per_day=T, start_slot=0, start_dow=0,
                      node_ids=[f"n{i}" for i in range(N)])
    step_range = (0, days * T)
    norm = fit_normalizer(s, step_range)
    proj = None if fit else pca_table(s, step_range, norm, n_components=8)[1]
    (table, _), peak = traced_peak(pca_table, s, step_range, norm, proj, n_components=8)
    assert table.values.shape == (N, 8)
    assert peak < values.nbytes / 4


# one stpca command in this process, then its peak RSS in MB as the last line.
# It reads VmHWM, the peak of the process's own memory since exec: ru_maxrss
# keeps the resident size of the process that forked it (the test runner's)
# across the exec
BOUNDED = """
import sys
from stpca.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024)
sys.exit(code)
"""


@pytest.mark.acceptance
def test_pems04_length_cli_peaks(tmp_path):
    # 307 nodes, 59 days of 5-minute slots, one BLAS thread: each command's
    # peak RSS stays under its bound in MB (~30 s and ~200 MB on disk)
    d = tmp_path
    for name, extra in [("run", []), ("graph", ["model.use_graph=true"]),
                        ("pca", ["embedding.strategy=pca"])]:
        (d / f"{name}.cfg").write_text("\n".join([
            f"data.csv={d / 'small' / 'train.csv'}", *extra, "train.max_epochs=1",
            "train.patience=1", f"run.out_dir={d / name}"]) + "\n")
    pems04 = ["--nodes", "307", "--steps-per-day", "288"]
    steps = [
        (140, ["synth", *pems04, "--days", "59", "--out-dir", str(d / "data")]),
        (140, ["synth", *pems04, "--days", "4", "--seed", "1",
               "--out-dir", str(d / "small")]),
        (200, ["train", "--config", str(d / "run.cfg")]),
        (85, ["train", "--config", str(d / "graph.cfg")]),
        (85, ["train", "--config", str(d / "pca.cfg")]),
        # the pca table of the 59-day series reads its days in place
        (110, ["export-embeddings", "--model", str(d / "pca" / "model.stpf"),
               "--data", str(d / "data" / "train.csv"), "--out", str(d / "emb.csv")]),
        (200, ["transfer", "--model", str(d / "run" / "model.stpf"),
               "--target", str(d / "data" / "shifted.csv"), "--strategies", "zero",
               "--include-baseline", "--out", str(d / "comparison.json")]),
    ]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    over = []
    for bound, argv in steps:
        done = subprocess.run([sys.executable, "-c", BOUNDED, *argv], env=env,
                              capture_output=True, text=True)
        command = " ".join(["stpca", *argv]).replace(f"{d}{os.sep}", "")
        assert done.returncode == 0, f"{command}: exit {done.returncode}: {done.stderr}"
        peak = float(done.stdout.splitlines()[-1])
        print(f"{command}: peak RSS {peak:.0f} MB (bound {bound} MB)")
        if peak > bound:
            over.append(f"{command}: peak RSS {peak:.0f} MB > {bound} MB")
    assert not over, "; ".join(over)
