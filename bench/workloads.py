"""One benchmark run of one workload, in its own process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --setups K --work-dir DIR

Set-up runs K times (its median is `setup_s`); the timed pass then repeats
until S seconds have been measured, at least once (a traced run makes exactly
one pass). The last stdout line is one JSON object with the per-pass stage
times, the correctness tally and, when traced, the per-module statistics.
`run.py` is the entry point that starts this process; see bench/README.md.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

# the program under test is the checkout's own source tree, never an installed copy
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import stpca  # noqa: E402
from stpca import cli
from stpca.model import ModelConfig, init_params, set_embedding
from stpca.pipeline import fit_training_embedding, prepare_data, train_run
from stpca.serialize import load_projection, save_projection
from stpca.synth import SynthSpec, generate
from stpca.training import TrainConfig
from stpca.transfer import (STRATEGIES, TransferPlan, cross_year_eval,
                            historical_average_baseline, split_adaptation,
                            zero_shot_transfer)

# the acceptance suite's shift scenario (tests/test_acceptance.py)
SHIFT_MODEL = dict(l1=12, l2=12, embed_dim=8, tod_dim=16, dow_dim=4,
                   hidden_dim=1, num_blocks=2, use_graph=False, steps_per_day=48)
SHIFT_TRAIN = dict(lr=2e-3, max_epochs=60, patience=12, batch_size=16)
# cross_year_eval's default fine-tune (50 epochs) without early stopping, so
# that every seed does the same work
FINETUNE = TrainConfig(max_epochs=50, patience=50)
STOP_REASONS = ("max_epochs", "early_stopping")
ADAPTATION = 0.25
# PEMS node count and 5-minute resolution; day counts sized so that every run,
# set-up included, stays well inside the benchmark's time budget
PEMS_EMBED_DAYS = 21
PEMS_CLI_DAYS = 4
# two epochs, so that training is the larger part of the CLI chain's pass
CLI_EPOCHS = 2
EIG_RTOL = 1e-8
PROBE_INTERVAL_S = 0.1
MIN_PROBES = 10
# the probe's mean duration on the reference host (2-core KVM guest, Xeon at
# 2.1 GHz); it fixes the unit of every reported time and nothing else
REF_PROBE_S = 3.5e-3


class HostSpeed:
    """How fast the host runs a fixed reference kernel while the worker runs.

    On a shared host the same work takes up to 1.5x longer whenever another
    tenant shares the physical core, and that state flips within seconds. A
    SIGALRM handler times a fixed ~3 ms kernel of small numpy operations (the
    training loop's mix, run once untimed first so that the program's cache
    footprint does not leak into it) every PROBE_INTERVAL_S. A measured
    interval is reported at reference speed: its seconds, minus the probes
    that ran inside it, times REF_PROBE_S / the mean duration of those probes
    (of the nearest MIN_PROBES when fewer ran inside).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(16, 40, 29))
        self._w = rng.normal(size=(29, 29))
        self.probes = []  # (start, timed duration, handler duration)

    def _kernel(self):
        h = self._a @ self._w
        np.maximum(h, 0.0).sum()
        np.einsum("bnm,bnk->mk", h, self._a)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self._kernel()  # untimed: reload the probe's arrays into cache
        t0 = time.perf_counter()
        for _ in range(8):
            self._kernel()
        end = time.perf_counter()
        self.probes.append((start, end - t0, end - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self, t0=-math.inf, t1=math.inf):
        """REF_PROBE_S over the mean duration of the probes inside [t0, t1),
        or of the MIN_PROBES probes nearest to it when fewer ran inside."""
        inside = [d for s, d, _ in self.probes if t0 <= s < t1]
        if len(inside) < MIN_PROBES:
            nearest = sorted(self.probes, key=lambda p: max(t0 - p[0], p[0] - t1))
            inside = [d for _, d, _ in nearest[:MIN_PROBES]]
        return REF_PROBE_S / statistics.mean(inside)

    def net(self, t0, t1):
        """Seconds of [t0, t1) not spent in probes."""
        return t1 - t0 - sum(busy for s, _, busy in self.probes if t0 <= s < t1)

    def scaled(self, t0, t1):
        """Seconds of [t0, t1) at reference speed."""
        return self.net(t0, t1) * self.factor(t0, t1)


class Checks:
    """Tally of operations attempted and failed; failures keep a message."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def call(self, fn, *args, **kwargs):
        """One program call. One that raises ends the run: the worker exits
        non-zero and no result is printed."""
        self.attempted += 1
        return fn(*args, **kwargs)


def report_finite(checks, label, report):
    values = [v for m in report.horizons.values() for v in m.as_dict().values()]
    checks.check(all(math.isfinite(v) for v in values), f"{label}: non-finite metric")


def stop_consistent(checks, label, epochs_run, reason, config):
    """The run stopped for a known reason after a consistent number of epochs."""
    ok = reason in STOP_REASONS and 1 <= epochs_run <= config.max_epochs
    if reason == "max_epochs":
        ok = ok and epochs_run == config.max_epochs
    elif reason == "early_stopping":
        ok = ok and epochs_run >= config.patience
    checks.check(ok, f"{label}: stop {reason!r} after {epochs_run} of "
                     f"{config.max_epochs} epochs")


def eigen_matches(checks, label, bundle, proj):
    """Rebuild the training covariance here and compare its LAPACK spectrum."""
    lo, hi = bundle.ranges[0]
    series = bundle.series
    T = series.steps_per_day
    first = lo + (-(series.start_slot + lo)) % T
    days = (hi - first) // T
    block = series.values[first : first + days * T]
    samples = ((block - bundle.normalizer.mean) / bundle.normalizer.std)
    samples = samples.reshape(days, T, series.num_nodes).transpose(0, 2, 1).reshape(-1, T)
    x = samples - samples.mean(axis=0)
    reference = np.maximum(np.linalg.eigvalsh((x.T @ x) / (len(x) - 1))[::-1], 0.0)
    err = np.abs(proj.eigenvalues - reference).max() / reference.max()
    checks.check(err <= EIG_RTOL, f"{label}: eigenvalues off by {err:.3g} relative")


# ---------------------------------------------------------------- shift_small

def setup_shift_small(seed, work_dir):
    source, shifted, _ = generate(SynthSpec(n_nodes=40, n_roles=4, days=28,
                                            steps_per_day=48, shift_fraction=0.5,
                                            noise_std=2.0, seed=seed))
    city, _, _ = generate(SynthSpec(n_nodes=25, n_roles=4, days=28, steps_per_day=48,
                                    shift_fraction=0.0, noise_std=2.0, seed=seed + 100))
    return {"source": source, "shifted": shifted, "city": city}


def pass_shift_small(inputs, seed, checks):
    train_cfg = TrainConfig(seed=seed, **SHIFT_TRAIN)
    t0 = time.perf_counter()
    runs = {}
    windows = 0
    for strategy in ("adaptive", "pca"):
        run = checks.call(train_run, inputs["source"], ModelConfig(**SHIFT_MODEL),
                          train_cfg, strategy=strategy)
        stop_consistent(checks, f"train_run {strategy}", len(run.report.epochs),
                        run.report.stopping_reason, train_cfg)
        windows += len(run.report.epochs) * len(run.bundle.train_windows)
        runs[strategy] = run
    t1 = time.perf_counter()
    mae = {}
    for strategy, run in runs.items():
        rep = checks.call(stpca.evaluate, run.params, None, run.bundle.test_windows,
                          run.bundle.normalizer)
        report_finite(checks, f"evaluate {strategy}", rep)
        mae[f"test_{strategy}"] = rep.horizons["avg"].mae
    t2 = time.perf_counter()
    for strategy in STRATEGIES:
        run = runs["pca" if strategy == "pca_emb" else "adaptive"]
        rep = checks.call(cross_year_eval, run.params, run.bundle.normalizer,
                          run.projection, inputs["shifted"],
                          TransferPlan(strategy=strategy, adaptation_fraction=ADAPTATION),
                          finetune_config=FINETUNE)
        report_finite(checks, f"cross_year_eval {strategy}", rep)
        mae[f"shift_{strategy}"] = rep.horizons["avg"].mae
    pca = runs["pca"]
    rep = checks.call(zero_shot_transfer, pca.params, pca.bundle.normalizer,
                      pca.projection, inputs["city"],
                      TransferPlan(strategy="pca_emb", adaptation_fraction=ADAPTATION))
    report_finite(checks, "zero_shot_transfer", rep)
    mae["zero_shot"] = rep.horizons["avg"].mae
    t3 = time.perf_counter()
    eigen_matches(checks, "pca projection", runs["pca"].bundle, runs["pca"].projection)
    checks.check(mae["shift_pca_emb"] < mae["shift_vanilla_adaptive"],
                 f"pca_emb shifted MAE {mae['shift_pca_emb']:.4f} not below "
                 f"vanilla_adaptive {mae['shift_vanilla_adaptive']:.4f}")
    return dict(intervals={"wall_s": (t0, t3), "fit_s": (t0, t1), "transfer_s": (t2, t3)},
                mae_test=mae["test_pca"], train_windows=windows, mae=mae,
                projection_fits=1)


# ---------------------------------------------------------------- pems_embed

def setup_pems_embed(seed, work_dir):
    source, _, _ = generate(SynthSpec(n_nodes=307, n_roles=8, days=PEMS_EMBED_DAYS,
                                      steps_per_day=288, shift_fraction=0.0,
                                      noise_std=2.0, seed=seed))
    target, _, _ = generate(SynthSpec(n_nodes=170, n_roles=8, days=14,
                                      steps_per_day=288, shift_fraction=0.0,
                                      noise_std=2.0, seed=seed + 100))
    paths = {"source": os.path.join(work_dir, "source.csv"),
             "target": os.path.join(work_dir, "target.csv"),
             "proj": os.path.join(work_dir, "proj.stpj")}
    stpca.write_series_csv(source, paths["source"])
    stpca.write_series_csv(target, paths["target"])
    return paths


def pass_pems_embed(paths, seed, checks):
    plan = TransferPlan(strategy="pca_emb", adaptation_fraction=ADAPTATION)
    t0 = time.perf_counter()
    source = checks.call(stpca.ingest_csv, paths["source"])
    bundle = checks.call(prepare_data, source)
    t1 = time.perf_counter()
    table, proj = checks.call(fit_training_embedding, bundle, n_components=8)
    t2 = time.perf_counter()
    checks.call(save_projection, proj, paths["proj"])
    loaded = checks.call(load_projection, paths["proj"])
    checks.check(np.array_equal(loaded.components, proj.components)
                 and np.array_equal(loaded.eigenvalues, proj.eigenvalues)
                 and np.array_equal(loaded.mean, proj.mean),
                 "projection changed in a save/load round trip")
    target = checks.call(stpca.ingest_csv, paths["target"])
    # an untrained forecaster carrying the PCA table: forward cost does not
    # depend on the weight values, and training is not this workload's subject
    params = set_embedding(init_params(ModelConfig(steps_per_day=288),
                                       source.num_nodes, seed), table)
    t3 = time.perf_counter()
    zero = checks.call(zero_shot_transfer, params, bundle.normalizer, loaded,
                       target, plan)
    _, eval_range = split_adaptation(target, ADAPTATION)
    base = checks.call(historical_average_baseline, target, eval_range)
    t4 = time.perf_counter()
    eigen_matches(checks, "pca projection", bundle, proj)
    report_finite(checks, "zero_shot_transfer", zero)
    report_finite(checks, "historical_average_baseline", base)
    mae = {"zero_shot": zero.horizons["avg"].mae,
           "hist_avg": base.horizons["avg"].mae}
    return dict(intervals={"wall_s": (t0, t4), "fit_s": (t1, t2), "transfer_s": (t3, t4)},
                mae_test=mae["hist_avg"], train_windows=0, mae=mae,
                projection_fits=1)


# ---------------------------------------------------------------- pems_graph_cli

def _cli(checks, label, argv):
    """Run one CLI command in this process; stdout is captured, not echoed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = checks.call(cli.main, argv)
    checks.check(code == 0, f"{label}: exit code {code}")
    return buf.getvalue()


def setup_pems_graph_cli(seed, work_dir):
    data_dir = os.path.join(work_dir, "data")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--nodes", "307", "--steps-per-day", "288",
                         "--days", str(PEMS_CLI_DAYS), "--seed", str(seed),
                         "--out-dir", data_dir])
    if code != 0:
        raise RuntimeError(f"stpca synth exited with code {code}")
    out_dir = os.path.join(work_dir, "run")
    config = os.path.join(work_dir, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"data.csv={os.path.join(data_dir, 'train.csv')}\n"
                 "embedding.strategy=adaptive\nmodel.use_graph=true\n"
                 f"train.max_epochs={CLI_EPOCHS}\ntrain.patience=1\ntrain.seed={seed}\n"
                 f"run.out_dir={out_dir}\n")
    return {"config": config, "train": os.path.join(data_dir, "train.csv"),
            "shifted": os.path.join(data_dir, "shifted.csv"),
            "model": os.path.join(out_dir, "model.stpf"),
            "log": os.path.join(out_dir, "train_log.csv"),
            "report": os.path.join(work_dir, "report.json"),
            "comparison": os.path.join(work_dir, "comparison.json")}


def pass_pems_graph_cli(paths, seed, checks):
    t0 = time.perf_counter()
    printed = _cli(checks, "train", ["train", "--config", paths["config"]])
    t1 = time.perf_counter()
    _cli(checks, "eval", ["eval", "--model", paths["model"], "--data", paths["train"],
                          "--split", "test", "--out", paths["report"]])
    t2 = time.perf_counter()
    _cli(checks, "transfer", ["transfer", "--model", paths["model"],
                              "--target", paths["shifted"],
                              "--strategies", "vanilla,zero",
                              "--adaptation-fraction", str(ADAPTATION),
                              "--include-baseline", "--out", paths["comparison"]])
    t3 = time.perf_counter()

    with open(paths["log"], encoding="utf-8") as fh:
        epochs_run = len(fh.read().splitlines()) - 1
    reason = printed.rsplit("(", 1)[-1].split(")", 1)[0]
    stop_consistent(checks, "stpca train", epochs_run, reason,
                    TrainConfig(max_epochs=CLI_EPOCHS, patience=1))
    with open(paths["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    with open(paths["comparison"], encoding="utf-8") as fh:
        comparison = json.load(fh)
    mae = {"test": report["horizons"]["avg"]["mae"]}
    for entry in comparison:
        mae[f"shift_{entry['strategy']}"] = entry["report"]["horizons"]["avg"]["mae"]
    values = [v for rep in [report] + [e["report"] for e in comparison]
              for m in rep["horizons"].values() for v in m.values()]
    checks.check(all(math.isfinite(v) for v in values), "non-finite metric in a report")
    checks.check(len(comparison) == 3, f"{len(comparison)} transfer entries, expected 3")
    # windows of 12 + 12 steps inside the 0.6 training split
    train_windows = math.floor(0.6 * PEMS_CLI_DAYS * 288) - 12 - 12 + 1
    return dict(intervals={"wall_s": (t0, t3), "fit_s": (t0, t1), "transfer_s": (t2, t3)},
                mae_test=mae["test"], train_windows=epochs_run * train_windows,
                mae=mae, projection_fits=0)


WORKLOADS = {
    "shift_small": (setup_shift_small, pass_shift_small),
    "pems_embed": (setup_pems_embed, pass_pems_embed),
    "pems_graph_cli": (setup_pems_graph_cli, pass_pems_graph_cli),
}


def run(workload, seed, seconds, trace, setups, work_dir):
    setup, one_pass = WORKLOADS[workload]
    checks = Checks()
    speed = HostSpeed()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(run_id="setup")
        tracer.install()
    speed.start()

    setup_intervals = []
    for _ in range(setups):
        t0 = time.perf_counter()
        inputs = setup(seed, work_dir)
        setup_intervals.append((t0, time.perf_counter()))

    passes = []
    measured = 0.0
    while not passes or (measured < seconds and not trace):
        if tracer is not None:
            tracer.run_id = f"pass{len(passes) + 1}"
        passes.append(one_pass(inputs, seed, checks))
        start, end = passes[-1]["intervals"]["wall_s"]
        measured += end - start
    speed.stop()

    # spans include the probes that ran inside them; so does this wall time
    start, end = passes[0]["intervals"]["wall_s"]
    span_wall_s = end - start
    for p in passes:
        intervals = p.pop("intervals")
        p["raw_s"] = {k: speed.net(*iv) for k, iv in intervals.items()}
        p.update({k: speed.scaled(*iv) for k, iv in intervals.items()})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"workload": workload, "seed": seed, "trace": trace,
              "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}",
              "speed_factor": speed.factor(), "probes": len(speed.probes),
              "raw_setup_s": [speed.net(*iv) for iv in setup_intervals],
              "setup_s": [speed.scaled(*iv) for iv in setup_intervals],
              "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": checks.attempted, "failures": checks.failures}
    if tracer is not None:
        tracer.uninstall()
        result["trace_stats"] = summarize(tracer, span_wall_s)
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
    return result


def summarize(tracer, wall_s):
    """Per-span statistics of the timed pass, plus setup-only spans and counters."""
    stats = {}
    for phase in ("pass1", "setup"):
        for name, entry in tracer.stats(phase).items():
            if name in stats:
                continue
            durations = sorted(entry["durations"])
            q = (statistics.quantiles(durations, n=100, method="inclusive")
                 if len(durations) > 1 else durations * 99)
            stats[name] = {"calls": entry["calls"], "s": entry["s"],
                           "self_s": entry["self_s"], "ms_p50": q[49] * 1e3,
                           "ms_p99": q[98] * 1e3, "phase": phase}
    return {"spans": stats, "counters": dict(tracer.counters),
            "span_count": len(tracer.spans), "pass_wall_s": wall_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work_dir, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.setups,
                 args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
