"""Acceptance gates.

Each test prints one `[ACCEPTANCE] ...` line (run with -s to see them inline).
Criteria 8-10 train real models on the synthetic shift scenario; the whole
module runs in a few minutes on one CPU core.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import stpca
from stpca.cli import main as cli_main
from stpca.dataset import Normalizer, Windows
from stpca.metrics import masked_metrics
from stpca.model import ModelConfig, init_params, set_embedding
from stpca.pca import EmbeddingTable, fit_projection, sym_eig, zero_embedding
from stpca.synth import SynthSpec, generate
from stpca.training import TrainConfig, finite_difference_check, fit
from stpca.transfer import (TransferPlan, cross_year_eval,
                            historical_average_baseline, split_adaptation,
                            zero_shot_transfer)

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3, 4, 5)

# shift-scenario model: the one-dimensional history channel keeps the
# forecaster from solving this (linearly continuable) synthetic task from
# history alone, which is what real traffic prevents at scale; embeddings
# then carry the node identity, as in the systems under study
SHIFT_MODEL = dict(l1=12, l2=12, embed_dim=8, tod_dim=16, dow_dim=4,
                   hidden_dim=1, num_blocks=2, use_graph=False,
                   steps_per_day=48)
SHIFT_TRAIN = dict(lr=2e-3, max_epochs=60, patience=12, batch_size=16)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number}: {status} — {detail}")
    return ok


def shift_spec(seed):
    return SynthSpec(n_nodes=40, n_roles=4, days=28, steps_per_day=48,
                     shift_fraction=0.5, noise_std=2.0, seed=seed)


@pytest.fixture(scope="module")
def shift_runs():
    """Per-seed trained models for the shift scenario (criteria 8 and 10)."""
    out = {}
    for seed in SEEDS:
        train_series, shifted_series, _ = generate(shift_spec(seed))
        runs = {}
        t0 = time.time()
        runs["adaptive"] = stpca.train_run(
            train_series, ModelConfig(**SHIFT_MODEL),
            TrainConfig(seed=seed, **SHIFT_TRAIN), strategy="adaptive")
        assert time.time() - t0 < 300
        for k in (2, 4, 8, 48):
            cfg = dict(SHIFT_MODEL)
            cfg["embed_dim"] = k
            t0 = time.time()
            runs[f"pca_{k}"] = stpca.train_run(
                train_series, ModelConfig(**cfg),
                TrainConfig(seed=seed, **SHIFT_TRAIN), strategy="pca")
            assert time.time() - t0 < 300
        out[seed] = {"train": train_series, "shifted": shifted_series,
                     "runs": runs}
    return out


def in_dist_mae(run):
    return stpca.evaluate(run.params, None, run.bundle.test_windows,
                          run.bundle.normalizer).horizons["avg"].mae


def shifted_mae(run, shifted_series, strategy, fraction):
    plan = TransferPlan(strategy=strategy, adaptation_fraction=fraction)
    rep = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                          shifted_series, plan)
    return rep.horizons["avg"].mae


def test_criterion_1_eigensolver_oracle():
    rng = np.random.default_rng(20240601)
    t0 = time.time()
    worst_rec = worst_orth = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n))
        a = (m + m.T) / 2
        lam, v = sym_eig(a)
        worst_rec = max(worst_rec, np.linalg.norm(a - v @ np.diag(lam) @ v.T))
        worst_orth = max(worst_orth, np.linalg.norm(v.T @ v - np.eye(n)))
    elapsed = time.time() - t0
    ok = worst_rec < 1e-9 and worst_orth < 1e-9 and elapsed < 1.0
    assert _report(1, ok, f"20 matrices: recon {worst_rec:.2e}, "
                          f"orth {worst_orth:.2e}, {elapsed:.2f}s")


def test_criterion_2_pca_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst_cos_gap = worst_eig_rel = 0.0
    for _ in range(10):
        data = rng.normal(size=(10, 5, 8))  # 50 samples, T=8
        proj = fit_projection(data, n_components=8)
        samples = data.reshape(-1, 8)
        mu = samples.mean(axis=0)
        cov = (samples - mu).T @ (samples - mu) / (samples.shape[0] - 1)
        lam, vec = np.linalg.eigh(cov)
        order = np.argsort(lam)[::-1]
        lam, vec = np.maximum(lam[order], 0.0), vec[:, order]
        worst_eig_rel = max(worst_eig_rel, float(np.max(
            np.abs(proj.eigenvalues - lam) / np.maximum(lam, 1e-300))))
        for j in range(8):
            cos = abs(proj.components[:, j] @ vec[:, j])
            worst_cos_gap = max(worst_cos_gap, 1.0 - cos)
    elapsed = time.time() - t0
    ok = worst_cos_gap <= 1e-8 and worst_eig_rel <= 1e-8 and elapsed < 1.0
    assert _report(2, ok, f"cosine gap {worst_cos_gap:.2e}, "
                          f"eig rel {worst_eig_rel:.2e}, {elapsed:.2f}s")


def test_criterion_3_projection_invariants():
    rng = np.random.default_rng(11)
    worst_orth = 0.0
    monotone = True
    for _ in range(6):
        data = rng.normal(size=(6, 4, 10))
        proj = fit_projection(data, n_components=10)
        c = proj.num_components
        worst_orth = max(worst_orth, float(np.abs(
            proj.components.T @ proj.components - np.eye(c)).max()))
        ratios = proj.explained_variance_ratio()
        monotone &= bool((np.diff(ratios) >= -1e-12).all())
        centered = data.reshape(-1, 10) - proj.mean
        errs = [np.linalg.norm(centered - centered @ proj.components[:, :k]
                               @ proj.components[:, :k].T)
                for k in range(1, c + 1)]
        monotone &= all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    ok = worst_orth <= 1e-8 and monotone
    assert _report(3, ok, f"orthonormality {worst_orth:.2e}, "
                          f"variance/reconstruction monotone: {monotone}")


def test_criterion_4_adaptive_graph():
    rng = np.random.default_rng(3)
    worst_rowsum = worst_oracle = 0.0
    perm_exact = True
    entries_ok = True
    for _ in range(20):
        e = rng.normal(size=(4, 3))
        g = stpca.build_adaptive_graph(e)
        worst_rowsum = max(worst_rowsum, float(np.abs(g.sum(axis=1) - 1).max()))
        entries_ok &= bool((g >= 0).all())
        logits = np.maximum(e @ e.T, 0.0)
        w = np.exp(logits)
        oracle = w / w.sum(axis=1, keepdims=True)
        worst_oracle = max(worst_oracle, float(np.abs(g - oracle).max()))
        perm = rng.permutation(4)
        gp = stpca.build_adaptive_graph(e[perm])
        perm_exact &= bool((gp == g[np.ix_(perm, perm)]).all())
    ok = (worst_rowsum <= 1e-9 and entries_ok and perm_exact
          and worst_oracle <= 1e-12)
    assert _report(4, ok, f"rowsum dev {worst_rowsum:.2e}, oracle dev "
                          f"{worst_oracle:.2e}, permutation exact: {perm_exact}")


def test_criterion_5_gradient_exactness():
    t0 = time.time()
    norm = Normalizer(mean=10.0, std=4.0)
    rng = np.random.default_rng(13)
    worst = 0.0
    for use_graph in (False, True):
        cfg = ModelConfig(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2,
                          hidden_dim=6, num_blocks=1, use_graph=use_graph,
                          steps_per_day=8)
        params = init_params(cfg, 5, seed=11)
        for name, tensor in params.tensors().items():
            if name.startswith("b"):
                tensor += rng.normal(0, 0.05, size=tensor.shape)
        history, targets, tod, dow = [], [], [], []
        for _ in range(6):
            target = rng.uniform(0.5, 25, size=(5, 4))
            target[rng.random(target.shape) < 0.15] = 0.0
            targets.append(target)
            history.append(rng.uniform(0, 25, size=(5, 4)))
            tod.append(int(rng.integers(0, 8)))
            dow.append(int(rng.integers(0, 7)))
        windows = Windows(history=np.stack(history), target=np.stack(targets),
                          tod=np.array(tod), dow=np.array(dow))
        errs = finite_difference_check(params, windows, norm, h=1e-5)
        worst = max(worst, max(errs.values()))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30
    assert _report(5, ok, f"max relative error {worst:.2e} over all trainable "
                          f"scalars (graph off+on), {elapsed:.1f}s")


def test_criterion_6_masked_metrics():
    m = masked_metrics(np.array([5.0, 8.0, 26.0]), np.array([0.0, 10.0, 20.0]))
    exact = (m.mae == 4.0 and math.isclose(m.rmse, math.sqrt(20), rel_tol=1e-12)
             and math.isclose(m.mape, 0.25, rel_tol=1e-12))
    rng = np.random.default_rng(0)
    ordered = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        target = rng.uniform(0, 10, size=n)
        target[rng.random(n) < 0.2] = 0.0
        if not (target != 0).any():
            continue
        ms = masked_metrics(rng.normal(size=n) * 5, target)
        ordered &= ms.mae <= ms.rmse + 1e-12
    ok = exact and ordered
    assert _report(6, ok, f"3-cell case exact: {exact}; MAE<=RMSE on 1000 "
                          f"random instances: {ordered}")


def test_criterion_7_frozen_embedding_bitwise():
    rng = np.random.default_rng(5)
    norm = Normalizer(mean=10.0, std=4.0)
    cfg = ModelConfig(l1=4, l2=4, embed_dim=3, tod_dim=2, dow_dim=2,
                      hidden_dim=6, num_blocks=1, steps_per_day=8)
    draws = [(rng.uniform(0, 25, size=(5, 4)), rng.uniform(0.5, 25, size=(5, 4)),
              int(rng.integers(0, 8)), int(rng.integers(0, 7)))
             for _ in range(30)]
    history, target, tod, dow = (np.array(column) for column in zip(*draws))

    def windows(lo, hi):
        return Windows(history=history[lo:hi], target=target[lo:hi],
                       tod=tod[lo:hi], dow=dow[lo:hi])

    ok = True
    for strategy in ("pca", "zero"):
        params = init_params(cfg, 5, seed=1)
        if strategy == "pca":
            table = EmbeddingTable(values=rng.normal(size=(5, 3)), strategy="pca")
        else:
            table = zero_embedding(5, 3)
        params = set_embedding(params, table)
        before = params.embedding.values.tobytes()
        best, _ = fit(params, windows(0, 20), windows(20, 30), norm,
                      TrainConfig(max_epochs=3, patience=3, batch_size=8, seed=0))
        ok &= params.embedding.values.tobytes() == before
        ok &= best.embedding.values.tobytes() == before
    assert _report(7, ok, "embedding bytes unchanged through fit under "
                          "pca and zero strategies")


def test_criterion_8a_adaptive_degrades_under_shift(shift_runs):
    hits = []
    for seed in SEEDS:
        entry = shift_runs[seed]
        run = entry["runs"]["adaptive"]
        ratio = (shifted_mae(run, entry["shifted"], "vanilla_adaptive", 0.5)
                 / in_dist_mae(run))
        hits.append(ratio >= 1.5)
    ok = sum(hits) >= 4
    assert _report("8a", ok, f"adaptive shifted/in-dist MAE >= 1.5 in "
                             f"{sum(hits)}/5 seeds (need >= 4)")


def test_criterion_8b_pca_refresh_holds_under_shift(shift_runs):
    hits = []
    for seed in SEEDS:
        entry = shift_runs[seed]
        run = entry["runs"]["pca_8"]
        ratio = (shifted_mae(run, entry["shifted"], "pca_emb", 0.5)
                 / in_dist_mae(run))
        hits.append(ratio <= 1.15)
    ok = sum(hits) >= 4
    assert _report("8b", ok, f"pca shifted/in-dist MAE <= 1.15 in "
                             f"{sum(hits)}/5 seeds (need >= 4)")


def test_criterion_8c_zero_embedding_beats_vanilla(shift_runs):
    """Fails at 3/5 seeds; the test prints each seed's zero/vanilla pair.
    The per-seed winner is not noise but which solution training finds.
    Scored per node on this evaluation range, on some seeds the vanilla
    forecast of a shifted node follows its old role (its MAE against the
    old-role series is far below its MAE against the real one): the model
    trusts its stale table, and zero wins. On others it follows the new
    role: the model overrides the table from the history channel, and
    vanilla wins. Zeroing `w_x` confirms it: unshifted nodes lose far more
    accuracy on the seeds where vanilla wins, whose forecasts lean on the
    history channel. A model that trusts its table cannot follow a spatial
    shift, which is the paper's thesis. The gate keeps its stated seeds and
    threshold."""
    hits = []
    pairs = []
    for seed in SEEDS:
        entry = shift_runs[seed]
        run = entry["runs"]["adaptive"]
        vanilla = shifted_mae(run, entry["shifted"], "vanilla_adaptive", 0.5)
        zero = shifted_mae(run, entry["shifted"], "zero_emb", 0.5)
        hits.append(zero < vanilla)
        pairs.append(f"{zero:.1f}/{vanilla:.1f}")
    ok = sum(hits) >= 4
    assert _report("8c", ok, f"zero-emb < vanilla on shifted test in "
                             f"{sum(hits)}/5 seeds (need >= 4; zero/vanilla: "
                             + " ".join(pairs) + ")")


def test_criterion_9_zero_shot_beats_historical_average():
    t0 = time.time()
    cfg = dict(SHIFT_MODEL)
    cfg["use_graph"] = True  # the transferred graph must rebuild at target size
    hits = []
    for seed in SEEDS:
        city_a, _, _ = generate(shift_spec(seed))
        city_b, _, _ = generate(SynthSpec(n_nodes=25, n_roles=4, days=28,
                                          steps_per_day=48, shift_fraction=0.0,
                                          noise_std=2.0, seed=seed + 100))
        run = stpca.train_run(city_a, ModelConfig(**cfg),
                              TrainConfig(seed=seed, **SHIFT_TRAIN),
                              strategy="pca")
        snap = {k: v.tobytes() for k, v in run.params.tensors().items()}
        plan = TransferPlan(adaptation_fraction=0.25, strategy="pca_emb")
        rep = zero_shot_transfer(run.params, run.bundle.normalizer,
                                 run.projection, city_b, plan)
        assert all(v.tobytes() == snap[k]
                   for k, v in run.params.tensors().items())
        _, eval_range = split_adaptation(city_b, 0.25)
        beat = historical_average_baseline(city_b, eval_range)
        hits.append(rep.horizons["avg"].mae < beat.horizons["avg"].mae)
    elapsed = time.time() - t0
    ok = sum(hits) >= 4 and elapsed < 300
    assert _report(9, ok, f"zero-shot (40 -> 25 nodes) beats historical "
                          f"average in {sum(hits)}/5 seeds, {elapsed:.0f}s")


def test_criterion_10_component_sweep(shift_runs):
    hits = []
    for seed in SEEDS:
        entry = shift_runs[seed]
        small = {k: shifted_mae(entry["runs"][f"pca_{k}"], entry["shifted"],
                                "pca_emb", 0.25)
                 for k in (2, 4, 8)}
        full = shifted_mae(entry["runs"]["pca_48"], entry["shifted"],
                           "pca_emb", 0.25)
        adaptive = shifted_mae(entry["runs"]["adaptive"], entry["shifted"],
                               "vanilla_adaptive", 0.25)
        best_small = min(small.values())
        hits.append(best_small < full and best_small < adaptive)
    ok = sum(hits) >= 4
    assert _report(10, ok, f"some k* <= 8 beats both k=T and the adaptive "
                           f"baseline in {sum(hits)}/5 seeds (need >= 4)")


CLI_CONFIG = """
data.csv={data}
model.l1=6
model.l2=6
model.embed_dim=3
model.tod_dim=4
model.dow_dim=2
model.hidden_dim=4
model.num_blocks=1
embedding.strategy=pca
train.lr=0.002
train.max_epochs=2
train.patience=2
train.batch_size=16
train.seed=11
run.out_dir={out_dir}
"""


def test_criterion_11_end_to_end_determinism(tmp_path):
    synth = tmp_path / "data"
    assert cli_main(["synth", "--nodes", "8", "--roles", "4", "--days", "10",
                     "--steps-per-day", "24", "--seed", "4",
                     "--out-dir", str(synth)]) == 0
    artifacts = {}
    for tag in ("run1", "run2"):
        d = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(CLI_CONFIG.format(data=synth / "train.csv",
                                         out_dir=d / "out"))
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert cli_main(["eval", "--model", str(d / "out" / "model.stpf"),
                         "--data", str(synth / "train.csv"),
                         "--out", str(d / "report.json")]) == 0
        assert cli_main(["transfer", "--model", str(d / "out" / "model.stpf"),
                         "--target", str(synth / "shifted.csv"),
                         "--strategies", "vanilla,zero,pca,finetune",
                         "--adaptation-fraction", "0.3",
                         "--out", str(d / "comparison.json")]) == 0
        artifacts[tag] = {
            name: (d / "out" / name).read_bytes()
            for name in ("model.stpf", "train_log.csv")
        }
        artifacts[tag]["report.json"] = (d / "report.json").read_bytes()
        artifacts[tag]["comparison.json"] = (d / "comparison.json").read_bytes()
    same = {name: artifacts["run1"][name] == artifacts["run2"][name]
            for name in artifacts["run1"]}
    ok = all(same.values())
    assert _report(11, ok, "byte-identical across reruns: "
                   + ", ".join(f"{k}={v}" for k, v in same.items()))


def test_criterion_12_real_data_smoke(tmp_path):
    # stands in for any user CSV meeting the ingest contract (PEMS-style
    # 15-minute export); no numeric targets asserted
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--nodes", "6", "--roles", "3", "--days", "6",
                     "--steps-per-day", "96", "--noise-std", "8",
                     "--seed", "2", "--out-dir", str(data_dir)]) == 0
    assert cli_main(["ingest", "--data", str(data_dir / "train.csv")]) == 0

    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_CONFIG.format(data=data_dir / "train.csv", out_dir=out))
    assert cli_main(["train", "--config", str(cfg)]) == 0
    assert cli_main(["eval", "--model", str(out / "model.stpf"),
                     "--data", str(data_dir / "train.csv"),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert cli_main(["transfer", "--model", str(out / "model.stpf"),
                     "--target", str(data_dir / "shifted.csv"),
                     "--strategies", "pca,zero",
                     "--adaptation-fraction", "0.34",
                     "--out", str(tmp_path / "cmp.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    comparison = json.loads((tmp_path / "cmp.json").read_text())
    ok = "horizons" in report and len(comparison) == 2
    assert _report(12, ok, "ingest -> train(2 epochs) -> eval -> transfer "
                           "pca/zero completed without error")
