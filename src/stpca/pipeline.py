"""End-to-end wiring: split, normalize, window, embed, train, evaluate."""

from dataclasses import dataclass, replace
from typing import Optional

from .dataset import (RATIOS, TrafficSeries, Windows, _check, fit_normalizer,
                      make_windows, split_chronological)
from .metrics import evaluate
from .model import ModelConfig, ModelParams, init_params, set_embedding
from .pca import TABLE_STRATEGIES, pca_table, zero_embedding
from .training import TrainConfig, TrainReport, fit
from .transfer import TransferPlan, cross_year_eval


def check_train_strategy(strategy):
    """Raise ConfigError unless strategy is one of TABLE_STRATEGIES."""
    _check("strategy", strategy, TABLE_STRATEGIES)


@dataclass
class DataBundle:
    series: TrafficSeries
    ranges: tuple  # (train, val, test) step ranges
    normalizer: object
    train_windows: Windows
    val_windows: Windows
    test_windows: Windows


def prepare_data(series: TrafficSeries, ratios=RATIOS, l1=ModelConfig.l1,
                 l2=ModelConfig.l2) -> DataBundle:
    ranges = split_chronological(series, ratios)
    normalizer = fit_normalizer(series, ranges[0])
    return DataBundle(
        series=series,
        ranges=ranges,
        normalizer=normalizer,
        train_windows=make_windows(series, ranges[0], l1, l2),
        val_windows=make_windows(series, ranges[1], l1, l2),
        test_windows=make_windows(series, ranges[2], l1, l2),
    )


def fit_training_embedding(bundle: DataBundle, n_components=None, theta=None):
    """Averaged node table + projection fitted on the training range's day tensor."""
    return pca_table(bundle.series, bundle.ranges[0], bundle.normalizer,
                     n_components=n_components, theta=theta)


@dataclass
class TrainedRun:
    params: ModelParams
    report: TrainReport
    projection: object  # None unless the pca strategy was used
    bundle: DataBundle


def train_run(series: TrafficSeries, model_cfg: ModelConfig,
              train_cfg: TrainConfig, strategy: str = "adaptive",
              ratios=RATIOS, theta: Optional[float] = None) -> TrainedRun:
    """Train one model under an embedding strategy on a 6:2:2-style split.

    Under the pca strategy the projection is fitted on the training range and
    the frozen averaged table is swapped in before training; under zero the
    slot is frozen at exact zeros. The embed_dim of the config is adjusted to
    the fitted component count when a variance threshold picks it.
    """
    check_train_strategy(strategy)
    bundle = prepare_data(series, ratios, model_cfg.l1, model_cfg.l2)
    table = projection = None
    if strategy == "pca":
        table, projection = fit_training_embedding(
            bundle, n_components=None if theta is not None else model_cfg.embed_dim,
            theta=theta)
        model_cfg = replace(model_cfg, embed_dim=table.dim)
    elif strategy == "zero":
        table = zero_embedding(series.num_nodes, model_cfg.embed_dim)
    params = init_params(model_cfg, series.num_nodes, train_cfg.seed)
    if table is not None:
        params = set_embedding(params, table)

    best, report = fit(params, bundle.train_windows, bundle.val_windows,
                       bundle.normalizer, train_cfg)
    return TrainedRun(params=best, report=report, projection=projection,
                      bundle=bundle)


def sweep_run(series, shifted, model_cfg, train_cfg, strategy, adaptation_fraction,
              ratios=RATIOS):
    """(best val MAE, test MAE, shifted MAE) of one `train_run`: a sweep point.

    The shifted MAE is the cross-year score on `shifted`: a pca run refreshes
    its table from the adaptation prefix, any other run keeps its own.
    """
    run = train_run(series, model_cfg, train_cfg, strategy=strategy, ratios=ratios)
    test = evaluate(run.params, None, run.bundle.test_windows, run.bundle.normalizer)
    plan = TransferPlan(adaptation_fraction=adaptation_fraction,
                        strategy="pca_emb" if strategy == "pca" else "vanilla_adaptive")
    shift = cross_year_eval(run.params, run.bundle.normalizer, run.projection,
                            shifted, plan)
    return (run.report.best_val_mae, test.horizons["avg"].mae,
            shift.horizons["avg"].mae)
