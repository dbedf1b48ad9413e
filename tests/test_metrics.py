import json
import math

import numpy as np
import pytest

from stpca import model
from stpca.dataset import Normalizer, TrafficSeries, Windows, make_windows
from stpca.metrics import (HorizonReport, MetricSet, evaluate,
                           horizon_report_from_arrays, masked_mae,
                           masked_metrics, render_report)
from stpca.model import ModelConfig, init_params
from stpca.transfer import historical_average_baseline


class TestMaskedMetrics:
    def test_hand_computed_three_cells(self):
        target = np.array([0.0, 10.0, 20.0])
        pred = np.array([5.0, 8.0, 26.0])
        m = masked_metrics(pred, target)
        assert m.mae == 4.0
        assert math.isclose(m.rmse, math.sqrt(20), rel_tol=1e-12)
        assert math.isclose(m.rmse, 4.47214, abs_tol=5e-6)
        assert math.isclose(m.mape, 0.25, rel_tol=1e-12)

    def test_perfect_prediction(self):
        target = np.array([1.0, 2.0, 3.0])
        m = masked_metrics(target.copy(), target)
        assert (m.mae, m.rmse, m.mape) == (0.0, 0.0, 0.0)

    def test_all_zero_targets_error(self):
        with pytest.raises(ValueError, match="no valid targets"):
            masked_metrics(np.ones(3), np.zeros(3))

    def test_mae_le_rmse_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            target = rng.uniform(0, 10, size=n)
            target[rng.random(n) < 0.2] = 0.0
            if not (target != 0).any():
                continue
            m = masked_metrics(rng.normal(size=n) * 5, target)
            assert m.mae <= m.rmse + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(0, 10, size=(4, 6))
        pred = rng.normal(size=(4, 6))
        perm = rng.permutation(6)
        a = masked_metrics(pred, target)
        b = masked_metrics(pred[:, perm], target[:, perm])
        assert math.isclose(a.mae, b.mae, rel_tol=1e-12)
        assert math.isclose(a.rmse, b.rmse, rel_tol=1e-12)
        assert math.isclose(a.mape, b.mape, rel_tol=1e-12)

    def test_masked_mae_equals_metric_set_mae(self):
        rng = np.random.default_rng(3)
        for shape in [(3,), (7, 5), (4, 6, 12)]:
            target = rng.uniform(0, 10, size=shape)
            target[rng.random(shape) < 0.3] = 0.0
            target.flat[0] = 1.0
            pred = rng.normal(size=shape) * 5
            assert masked_mae(pred, target) == masked_metrics(pred, target).mae
        with pytest.raises(ValueError, match="no valid targets"):
            masked_mae(np.ones(3), np.zeros(3))

    def test_micro_average_concatenation(self):
        rng = np.random.default_rng(2)
        t1 = rng.uniform(1, 10, size=20)
        t2 = rng.uniform(1, 10, size=5)
        p1, p2 = rng.normal(size=20), rng.normal(size=5)
        joint = masked_metrics(np.concatenate([p1, p2]), np.concatenate([t1, t2]))
        m1, m2 = masked_metrics(p1, t1), masked_metrics(p2, t2)
        combined = (m1.mae * 20 + m2.mae * 5) / 25
        assert math.isclose(joint.mae, combined, rel_tol=1e-12)


class TestHorizonReport:
    def test_micro_not_macro(self):
        # two windows with unequal mask counts: micro and macro averages differ
        target = np.zeros((2, 1, 2))
        target[0, 0] = [10.0, 10.0]
        target[1, 0] = [0.0, 5.0]
        pred = np.zeros((2, 1, 2))
        pred[0, 0] = [11.0, 11.0]
        pred[1, 0] = [7.0, 9.0]
        # brute force on the crafted set
        micro = (1 + 1 + 4) / 3
        per_window = [(1 + 1) / 2, 4 / 1]
        macro = sum(per_window) / 2
        assert micro != macro
        rep = horizon_report_from_arrays(pred, target, horizons=(1, 2))
        assert math.isclose(rep.horizons["avg"].mae, micro, rel_tol=1e-12)

    def test_avg_pools_all_steps_not_reported_horizons(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(1, 10, size=(5, 3, 12))
        pred = target + rng.normal(size=target.shape)
        rep = horizon_report_from_arrays(pred, target, horizons=(3, 6, 12))
        direct = np.abs(pred - target).mean()
        assert math.isclose(rep.horizons["avg"].mae, direct, rel_tol=1e-12)
        mean_of_three = np.mean([rep.horizons[k].mae for k in ("3", "6", "12")])
        assert not math.isclose(rep.horizons["avg"].mae, mean_of_three,
                                rel_tol=1e-9)

    def test_horizon_bounds(self):
        target = np.ones((2, 2, 4))
        with pytest.raises(ValueError, match="horizon"):
            horizon_report_from_arrays(target, target, horizons=(5,))
        with pytest.raises(ValueError, match="horizon"):
            horizon_report_from_arrays(target, target, horizons=(0,))

    @pytest.mark.parametrize("l2, keys", [(2, ["2"]), (6, ["3", "6"]),
                                          (12, ["3", "6", "12"])])
    def test_default_horizons_follow_l2(self, l2, keys):
        rng = np.random.default_rng(l2)
        target = rng.uniform(1, 10, size=(4, 3, l2))
        pred = target + rng.normal(size=target.shape)
        rep = horizon_report_from_arrays(pred, target)
        assert list(rep.horizons) == keys + ["avg"]
        explicit = horizon_report_from_arrays(pred, target,
                                              horizons=tuple(map(int, keys)))
        assert rep.horizons == explicit.horizons
        with pytest.raises(ValueError, match="horizon"):
            horizon_report_from_arrays(pred, target, horizons=(l2 + 1,))

    def test_exact_model_zero_everywhere(self):
        rng = np.random.default_rng(4)
        norm = Normalizer(mean=0.0, std=1.0)
        cfg = ModelConfig(l1=4, l2=12, embed_dim=2, tod_dim=2, dow_dim=2,
                          hidden_dim=4, num_blocks=1, steps_per_day=8)
        params = init_params(cfg, 3, seed=0)
        windows = Windows(history=rng.uniform(1, 5, size=(1, 3, 4)),
                          target=rng.uniform(1, 5, size=(1, 3, 12)),
                          tod=np.array([0]), dow=np.array([0]))
        # identity check without a model: pred == target
        rep = horizon_report_from_arrays(windows.target, windows.target)
        for key in ("3", "6", "12", "avg"):
            assert rep.horizons[key].mae == 0.0
        # and the evaluate() plumbing produces the same schema
        rep2 = evaluate(params, None, windows, norm, metadata={"dataset": "x"})
        assert set(rep2.horizons) == {"3", "6", "12", "avg"}

    def test_table_row_rendering(self):
        m = MetricSet(mae=23.89, rmse=38.47, mape=0.1987)
        assert m.table_row() == "23.89 & 38.47 & 19.87%"

    def test_json_schema(self):
        m = MetricSet(mae=1.0, rmse=2.0, mape=0.5)
        rep = HorizonReport(horizons={"3": m, "avg": m},
                            metadata={"dataset": "synth", "strategy": "pca",
                                      "seed": 7, "note": "x"})
        blob = json.loads(json.dumps(rep.to_json_dict()))
        assert blob["dataset"] == "synth"
        assert blob["strategy"] == "pca"
        assert blob["seed"] == 7
        assert blob["horizons"]["3"] == {"mae": 1.0, "rmse": 2.0, "mape": 0.5}
        assert blob["meta"] == {"note": "x"}

    def test_render_report_text(self):
        m = MetricSet(mae=1.0, rmse=2.0, mape=0.5)
        text = render_report(HorizonReport(horizons={"3": m, "avg": m}))
        assert "H3" in text and "Average" in text and "1.00 & 2.00 & 50.00%" in text


def compacted(pred, target):
    """Metrics over only the counted cells, as one flat array."""
    keep = target != 0
    return masked_metrics(pred[keep], target[keep])


class TestBlockedReport:
    """The report's one blocked pass against per-horizon compacted slices."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 1, 4), (9, 5, 12),
                                       (23, 307, 12), (3, 170, 6)])
    @pytest.mark.parametrize("zero_frac", [0.0, 0.3, 0.9])
    def test_matches_compacted_slices(self, shape, zero_frac):
        rng = np.random.default_rng(shape[1] + int(10 * zero_frac))
        target = rng.uniform(1, 300, size=shape)
        target[rng.random(shape) < zero_frac] = 0.0
        target[0, 0] = rng.uniform(1, 300, size=shape[2])
        pred = target + rng.normal(0, 20, size=shape)
        horizons = tuple(range(1, shape[2] + 1))
        rep = horizon_report_from_arrays(pred, target, horizons=horizons)
        expected = {str(h): compacted(pred[:, :, h - 1], target[:, :, h - 1])
                    for h in horizons}
        expected["avg"] = compacted(pred, target)
        assert list(rep.horizons) == list(expected)
        for key, want in expected.items():
            got = rep.horizons[key]
            for field in ("mae", "rmse", "mape"):
                assert math.isclose(getattr(got, field), getattr(want, field),
                                    rel_tol=1e-12), (key, field)

    def test_layout_does_not_change_a_bit(self):
        rng = np.random.default_rng(5)
        target = rng.uniform(0, 300, size=(40, 307, 12))
        target[rng.random(target.shape) < 0.2] = 0.0
        pred = target + rng.normal(0, 20, size=target.shape)
        reference = horizon_report_from_arrays(pred, target)
        for layout in (lambda a: np.ascontiguousarray(a.transpose(0, 2, 1))
                       .transpose(0, 2, 1), np.asfortranarray):
            rep = horizon_report_from_arrays(layout(pred), layout(target))
            for key in reference.horizons:
                assert rep.horizons[key].as_dict() == reference.horizons[key].as_dict()
            assert masked_metrics(layout(pred), target) == masked_metrics(pred, target)

    def test_all_zero_horizon_raises(self):
        rng = np.random.default_rng(6)
        target = rng.uniform(1, 10, size=(4, 3, 6))
        target[:, :, 1] = 0.0
        pred = target + 1.0
        rep = horizon_report_from_arrays(pred, target, horizons=(1, 6))
        assert set(rep.horizons) == {"1", "6", "avg"}
        with pytest.raises(ValueError, match="no valid targets"):
            horizon_report_from_arrays(pred, target, horizons=(2,))
        with pytest.raises(ValueError, match="no valid targets"):
            horizon_report_from_arrays(pred, np.zeros_like(target), horizons=(1,))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            horizon_report_from_arrays(np.ones((2, 3, 4)), np.ones((2, 4, 4)),
                                       horizons=(1,))

    def test_zero_target_cells_ignore_their_predictions(self):
        target = np.zeros((3, 2, 2))
        target[0, 0] = [4.0, 8.0]
        pred = np.full(target.shape, 1e6)
        pred[0, 0] = [5.0, 6.0]
        rep = horizon_report_from_arrays(pred, target, horizons=(1, 2))
        assert rep.horizons["1"].as_dict() == {"mae": 1.0, "rmse": 1.0, "mape": 0.25}
        assert rep.horizons["2"].as_dict() == {"mae": 2.0, "rmse": 2.0, "mape": 0.25}
        assert rep.horizons["avg"].mae == 1.5


class TestBlockedScoring:
    """`evaluate` scores the model block by block and never builds the
    [W x N x l2] predictions, yet reports their bits."""

    N = 40

    @pytest.mark.parametrize("use_graph", [False, True])
    @pytest.mark.parametrize("windows_per_block", [1, 7, 13, None])
    def test_evaluate_equals_report_of_predict(self, monkeypatch, use_graph,
                                               windows_per_block):
        if windows_per_block is not None:
            # one block rule (`model._blocks`) cuts inference and scoring alike
            monkeypatch.setattr(model, "PREDICT_ROWS", windows_per_block * self.N)
        rng = np.random.default_rng(3)
        params = init_params(ModelConfig(l1=6, l2=6, hidden_dim=8, steps_per_day=24,
                                         use_graph=use_graph), self.N, seed=1)
        params.embedding.values[:] = rng.normal(size=params.embedding.values.shape)
        target = rng.uniform(1, 60, size=(100, self.N, 6))
        target[rng.random(target.shape) < 0.2] = 0.0
        windows = Windows(history=rng.uniform(0, 60, size=(100, self.N, 6)),
                          target=target, tod=rng.integers(0, 24, 100),
                          dow=rng.integers(0, 7, 100))
        norm = Normalizer(mean=30.0, std=15.0)
        report = evaluate(params, None, windows, norm, metadata={"seed": 1})
        reference = horizon_report_from_arrays(model.predict(params, None, windows, norm),
                                               windows.target, metadata={"seed": 1})
        assert report.to_json_dict() == reference.to_json_dict()

    @pytest.mark.parametrize("windows_per_block", [1, 7, 13, None])
    def test_baseline_equals_report_of_whole_prediction(self, monkeypatch,
                                                        windows_per_block):
        if windows_per_block is not None:
            monkeypatch.setattr(model, "PREDICT_ROWS", windows_per_block * self.N)
        rng = np.random.default_rng(4)
        T, l1, l2 = 24, 6, 6
        values = rng.uniform(1, 60, size=(6 * T, self.N))
        values[rng.random(values.shape) < 0.2] = 0.0
        series = TrafficSeries(values=values, steps_per_day=T,
                               start_slot=5, start_dow=2,
                               node_ids=[f"n{i}" for i in range(self.N)])
        lo = 2 * T + 3
        report = historical_average_baseline(series, (lo, series.total_steps), l1, l2)
        # the whole [W x N x l2] prediction: each step's slot mean before the range
        slots = series.slot_of(np.arange(lo))
        slot_mean = np.stack([values[:lo][slots == s].mean(axis=0) for s in range(T)])
        windows = make_windows(series, (lo, series.total_steps), l1, l2)
        pred = slot_mean[(windows.tod[:, None] + np.arange(l2)) % T].transpose(0, 2, 1)
        reference = horizon_report_from_arrays(pred, windows.target)
        assert len(windows) > 13
        assert ({k: v.as_dict() for k, v in report.horizons.items()}
                == {k: v.as_dict() for k, v in reference.horizons.items()})
