import math

import numpy as np
import pytest

from stpca.dataset import DataError, TrafficSeries, fit_normalizer, make_windows
from stpca.metrics import evaluate, horizon_report_from_arrays
from stpca.model import ModelConfig, predict, set_embedding
from stpca.pca import refresh_embedding, zero_embedding
from stpca.pipeline import prepare_data, train_run
from stpca.serialize import load_model, save_model
from stpca.synth import SynthSpec, generate
from stpca.training import TrainConfig
from stpca.transfer import (TransferPlan, cross_year_eval,
                            historical_average_baseline, split_adaptation,
                            with_strategy, zero_shot_transfer)
from stpca.dataset import to_day_tensor

MODEL_KW = dict(l1=12, l2=12, embed_dim=4, tod_dim=8, dow_dim=4, hidden_dim=4,
                num_blocks=1, use_graph=False, steps_per_day=24)


@pytest.fixture(scope="module")
def trained():
    spec = SynthSpec(n_nodes=10, n_roles=4, days=21, steps_per_day=24,
                     shift_fraction=0.5, noise_std=2.0, seed=0)
    train_series, shifted_series, _ = generate(spec)
    cfg = TrainConfig(lr=2e-3, max_epochs=8, patience=8, batch_size=32, seed=0)
    run = train_run(train_series, ModelConfig(**MODEL_KW), cfg, strategy="pca")
    return run, train_series, shifted_series


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="adaptation_fraction"):
            TransferPlan(adaptation_fraction=0.0)
        with pytest.raises(ValueError, match="adaptation_fraction"):
            TransferPlan(adaptation_fraction=0.6)
        with pytest.raises(ValueError, match="strategy"):
            TransferPlan(strategy="magic")


class TestSplitAdaptation:
    def test_day_aligned_prefix(self):
        spec = SynthSpec(n_nodes=2, n_roles=2, days=10, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        series, _, _ = generate(spec)
        adapt, ev = split_adaptation(series, 0.25)
        assert adapt == (0, 48)  # 2.5 days floor to 2 whole days
        assert ev == (48, 240)

    def test_lacks_full_day(self):
        spec = SynthSpec(n_nodes=2, n_roles=2, days=10, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        series, _, _ = generate(spec)
        with pytest.raises(DataError, match="full day"):
            split_adaptation(series, 0.05)  # 12 steps < one day

    def test_no_leakage(self):
        spec = SynthSpec(n_nodes=2, n_roles=2, days=10, steps_per_day=24,
                         shift_fraction=0.0, noise_std=0.0, seed=0)
        series, _, _ = generate(spec)
        adapt, ev = split_adaptation(series, 0.3)
        assert adapt[1] <= ev[0]
        assert ev[1] == series.total_steps


class TestCrossYear:
    def test_degenerate_target_equals_in_distribution(self, trained):
        run, train_series, _ = trained
        # target = the training series itself; adaptation covers the train
        # range's days, so the refreshed table equals the training table
        plan = TransferPlan(strategy="pca_emb", adaptation_fraction=0.5)
        rep = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                              train_series, plan)
        adapt, ev = split_adaptation(train_series, 0.5)
        table = refresh_embedding(
            run.bundle.normalizer.apply(to_day_tensor(train_series, adapt)),
            run.projection)
        manual = evaluate(set_embedding(run.params, table), None,
                          make_windows(train_series, ev, 12, 12),
                          run.bundle.normalizer)
        for key in ("3", "6", "12", "avg"):
            assert math.isclose(rep.horizons[key].mae, manual.horizons[key].mae,
                                rel_tol=1e-12)

    def test_vanilla_keeps_params(self, trained):
        run, _, shifted = trained
        plan = TransferPlan(strategy="vanilla_adaptive", adaptation_fraction=0.5)
        rep = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                              shifted, plan)
        direct = evaluate(run.params, None,
                          make_windows(shifted, split_adaptation(shifted, 0.5)[1],
                                       12, 12),
                          run.bundle.normalizer)
        assert math.isclose(rep.horizons["avg"].mae, direct.horizons["avg"].mae,
                            rel_tol=1e-12)

    def test_zero_strategy_zeroes_embedding(self, trained):
        run, _, shifted = trained
        plan = TransferPlan(strategy="zero_emb", adaptation_fraction=0.5)
        rep = cross_year_eval(run.params, run.bundle.normalizer, None, shifted, plan)
        assert rep.metadata["strategy"] == "zero_emb"
        # reference: manual zero swap
        manual = evaluate(
            set_embedding(run.params, zero_embedding(10, 4)), None,
            make_windows(shifted, split_adaptation(shifted, 0.5)[1], 12, 12),
            run.bundle.normalizer)
        assert math.isclose(rep.horizons["avg"].mae, manual.horizons["avg"].mae,
                            rel_tol=1e-12)

    def test_finetune_only_moves_embedding(self, trained):
        run, _, shifted = trained
        snap = {k: v.copy() for k, v in run.params.tensors().items()}
        plan = TransferPlan(strategy="finetune_emb", adaptation_fraction=0.5)
        ft_cfg = TrainConfig(lr=5e-3, max_epochs=2, patience=2, batch_size=32, seed=1)
        cross_year_eval(run.params, run.bundle.normalizer, None, shifted, plan,
                        finetune_config=ft_cfg)
        # the passed-in params object is cloned inside; originals untouched
        for name, tensor in run.params.tensors().items():
            np.testing.assert_array_equal(tensor, snap[name])

    @pytest.mark.parametrize("source", ["zero", "pca"])
    def test_finetuned_table_is_adaptive(self, trained, tmp_path, source):
        # a fine-tuned table holds trained values, whatever table it started
        # from, so it saves and loads as an adaptive table
        run, _, shifted = trained
        params = (run.params if source == "pca"
                  else set_embedding(run.params, zero_embedding(10, 4)))
        ft_cfg = TrainConfig(lr=5e-3, max_epochs=2, patience=2, batch_size=32, seed=1)
        tuned = with_strategy(params, "finetune_emb", shifted,
                              split_adaptation(shifted, 0.5)[0], run.bundle.normalizer,
                              finetune_config=ft_cfg)
        assert params.embedding.strategy == source
        assert tuned.embedding.strategy == "adaptive"
        assert (tuned.embedding.values != params.embedding.values).any()
        save_model(tuned, run.bundle.normalizer, tmp_path / "tuned.stpf")
        back, _, _ = load_model(tmp_path / "tuned.stpf")
        assert back.embedding.strategy == "adaptive"
        assert back.embedding.values.tobytes() == tuned.embedding.values.tobytes()

    def test_node_count_mismatch_rejected(self, trained):
        run, _, _ = trained
        other = generate(SynthSpec(n_nodes=7, n_roles=4, days=10,
                                   steps_per_day=24, shift_fraction=0.0,
                                   noise_std=1.0, seed=3))[0]
        with pytest.raises(DataError, match="nodes"):
            cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                            other, TransferPlan(strategy="pca_emb",
                                                adaptation_fraction=0.5))

    def test_steps_per_day_mismatch_rejected(self, trained):
        run, _, _ = trained
        other = generate(SynthSpec(n_nodes=10, n_roles=4, days=10,
                                   steps_per_day=48, shift_fraction=0.0,
                                   noise_std=1.0, seed=3))[0]
        with pytest.raises(DataError, match="steps_per_day"):
            cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                            other, TransferPlan(strategy="pca_emb",
                                                adaptation_fraction=0.5))


class TestZeroShot:
    def test_different_node_count_end_to_end(self, trained):
        run, _, _ = trained
        city_b = generate(SynthSpec(n_nodes=6, n_roles=4, days=21,
                                    steps_per_day=24, shift_fraction=0.0,
                                    noise_std=2.0, seed=42))[0]
        plan = TransferPlan(adaptation_fraction=0.25)
        rep = zero_shot_transfer(run.params, run.bundle.normalizer,
                                 run.projection, city_b, plan)
        assert rep.metadata["protocol"] == "zero_shot"
        assert rep.horizons["avg"].mae > 0

    @pytest.mark.parametrize("strategy", ["vanilla_adaptive", "zero_emb",
                                          "finetune_emb"])
    def test_non_pca_plan_rejected(self, trained, strategy):
        run, _, _ = trained
        city_b = generate(SynthSpec(n_nodes=6, n_roles=4, days=21,
                                    steps_per_day=24, shift_fraction=0.0,
                                    noise_std=2.0, seed=42))[0]
        with pytest.raises(DataError, match="PCA table"):
            zero_shot_transfer(run.params, run.bundle.normalizer, run.projection,
                               city_b, TransferPlan(strategy=strategy,
                                                    adaptation_fraction=0.25))

    def test_source_params_never_mutated(self, trained):
        run, _, _ = trained
        snap = {k: v.tobytes() for k, v in run.params.tensors().items()}
        city_b = generate(SynthSpec(n_nodes=6, n_roles=4, days=21,
                                    steps_per_day=24, shift_fraction=0.0,
                                    noise_std=2.0, seed=43))[0]
        zero_shot_transfer(run.params, run.bundle.normalizer, run.projection,
                           city_b, TransferPlan(adaptation_fraction=0.25))
        for name, tensor in run.params.tensors().items():
            assert tensor.tobytes() == snap[name]

    def test_graph_variant_rebuilds_graph(self):
        spec = SynthSpec(n_nodes=10, n_roles=4, days=21, steps_per_day=24,
                         shift_fraction=0.0, noise_std=2.0, seed=7)
        series, _, _ = generate(spec)
        kw = dict(MODEL_KW)
        kw["use_graph"] = True
        cfg = TrainConfig(lr=2e-3, max_epochs=4, patience=4, batch_size=32, seed=0)
        run = train_run(series, ModelConfig(**kw), cfg, strategy="pca")
        city_b = generate(SynthSpec(n_nodes=5, n_roles=4, days=21,
                                    steps_per_day=24, shift_fraction=0.0,
                                    noise_std=2.0, seed=77))[0]
        rep = zero_shot_transfer(run.params, run.bundle.normalizer,
                                 run.projection, city_b,
                                 TransferPlan(adaptation_fraction=0.25))
        assert np.isfinite(rep.horizons["avg"].mae)

    def test_node_sees_the_city_only_through_the_tensor_normalizer(self, trained):
        # graph off: a node subset's zero-shot predictions are the full city's
        # rows for those nodes when the subset's table is scaled by the full
        # city's normalizer, and differ when it gets its own
        run, _, _ = trained
        assert not run.params.config.use_graph
        city = generate(SynthSpec(n_nodes=15, n_roles=4, days=21, steps_per_day=24,
                                  shift_fraction=0.0, noise_std=2.0, seed=5))[0]
        idx = [1, 4, 7, 9, 12]
        subset = TrafficSeries(values=city.values[:, idx], steps_per_day=24,
                               start_slot=city.start_slot, start_dow=city.start_dow,
                               node_ids=[city.node_ids[i] for i in idx])
        adapt, ev = split_adaptation(city, 0.25)

        def predictions(series, tensor_norm):
            # 5 or 15 nodes: every block has two or more rows (windows x nodes)
            scored = with_strategy(run.params, "pca_emb", series, adapt, tensor_norm,
                                   run.projection)
            return predict(scored, make_windows(series, ev, 12, 12),
                           run.bundle.normalizer)

        full = predictions(city, fit_normalizer(city, adapt))[:, idx]
        shared = predictions(subset, fit_normalizer(city, adapt))
        own = predictions(subset, fit_normalizer(subset, adapt))
        assert shared.tobytes() == full.tobytes()
        assert (own != full).any()

    def test_identity_transfer_equals_in_distribution(self, trained):
        run, train_series, _ = trained
        plan = TransferPlan(adaptation_fraction=0.5)
        rep = zero_shot_transfer(run.params, run.bundle.normalizer,
                                 run.projection, train_series, plan)
        assert np.isfinite(rep.horizons["avg"].mae)
        assert rep.metadata["eval_range"][1] == train_series.total_steps


class TestHistoricalAverage:
    def periodic_series(self, days=8, T=24, n=3):
        t = np.arange(days * T)
        base = 10 + 5 * np.sin(2 * np.pi * (t % T) / T)
        values = np.stack([base * (i + 1) for i in range(n)], axis=1)
        return TrafficSeries(values=values, steps_per_day=T, start_slot=0,
                             start_dow=0, node_ids=[f"n{i}" for i in range(n)])

    def test_perfectly_periodic_zero_error(self):
        s = self.periodic_series()
        rep = historical_average_baseline(s, (24, s.total_steps), l1=4, l2=4)
        assert rep.horizons["avg"].mae < 1e-9

    def test_constant_target(self):
        values = np.full((8 * 24, 2), 7.0)
        s = TrafficSeries(values=values, steps_per_day=24,
                          start_slot=0, start_dow=0, node_ids=["a", "b"])
        rep = historical_average_baseline(s, (24, s.total_steps), l1=4, l2=4)
        assert rep.horizons["avg"].mae == 0.0

    def test_random_walk_positive_error(self):
        rng = np.random.default_rng(0)
        steps = rng.normal(size=(10 * 24, 2))
        values = np.abs(np.cumsum(steps, axis=0)) + 1.0
        s = TrafficSeries(values=values, steps_per_day=24,
                          start_slot=0, start_dow=0, node_ids=["a", "b"])
        rep = historical_average_baseline(s, (48, s.total_steps), l1=4, l2=4)
        assert rep.horizons["avg"].mae > 0.1

    def test_matches_per_window_loop(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 30, size=(9 * 24, 3))
        values[rng.random(values.shape) < 0.1] = 0.0
        s = TrafficSeries(values=values, steps_per_day=24,
                          start_slot=5, start_dow=2, node_ids=["a", "b", "c"])
        eval_range, l2 = (40, s.total_steps), 6
        rep = historical_average_baseline(s, eval_range, l1=3, l2=l2)
        # reference: the slot means and one prediction per window, in loops
        T, lo = 24, eval_range[0]
        slot_mean = np.stack([values[:lo][[s.slot_of(i) == slot for i in range(lo)]]
                              .mean(axis=0) for slot in range(T)])
        ws = make_windows(s, eval_range, 3, l2)
        preds = np.stack([slot_mean[[(ws.tod[i] + k) % T for k in range(l2)]].T
                          for i in range(len(ws))])
        ref = horizon_report_from_arrays(preds, np.array(ws.target))
        for key in ("3", "6", "avg"):
            assert rep.horizons[key].as_dict() == ref.horizons[key].as_dict()

    def test_requires_full_day_before_eval(self):
        s = self.periodic_series()
        with pytest.raises(DataError, match="full day"):
            historical_average_baseline(s, (10, s.total_steps), l1=2, l2=2)


def test_composability_refresh_then_evaluate(trained):
    run, _, shifted = trained
    plan = TransferPlan(strategy="pca_emb", adaptation_fraction=0.5)
    auto = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                           shifted, plan)
    adapt, ev = split_adaptation(shifted, 0.5)
    z = run.bundle.normalizer.apply(to_day_tensor(shifted, adapt))
    table = refresh_embedding(z, run.projection)
    manual = evaluate(set_embedding(run.params, table), None,
                      make_windows(shifted, ev, 12, 12), run.bundle.normalizer)
    for key in ("3", "6", "12", "avg"):
        assert math.isclose(auto.horizons[key].mae, manual.horizons[key].mae,
                            rel_tol=1e-12)
