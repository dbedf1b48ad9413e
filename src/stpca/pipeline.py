"""End-to-end wiring: split, normalize, window, embed, train, evaluate."""

from dataclasses import dataclass
from typing import Optional

from .dataset import (TrafficSeries, Windows, fit_normalizer, make_windows,
                      normalize_day_tensor, split_chronological, to_day_tensor)
from .model import ModelConfig, ModelParams, init_params, set_embedding
from .pca import fit_projection, refresh_embedding, zero_embedding
from .training import TrainConfig, TrainReport, fit


@dataclass
class DataBundle:
    series: TrafficSeries
    ranges: tuple  # (train, val, test) step ranges
    normalizer: object
    train_windows: Windows
    val_windows: Windows
    test_windows: Windows


def prepare_data(series: TrafficSeries, ratios=(0.6, 0.2, 0.2), l1=12, l2=12,
                 include_zeros_in_norm=True) -> DataBundle:
    ranges = split_chronological(series, ratios)
    normalizer = fit_normalizer(series, ranges[0], include_zeros=include_zeros_in_norm)
    return DataBundle(
        series=series,
        ranges=ranges,
        normalizer=normalizer,
        train_windows=make_windows(series, ranges[0], l1, l2),
        val_windows=make_windows(series, ranges[1], l1, l2),
        test_windows=make_windows(series, ranges[2], l1, l2),
    )


def fit_training_embedding(bundle: DataBundle, n_components=None, theta=None,
                           center=True):
    """Projection + averaged node table from the training range's day tensor."""
    z = to_day_tensor(bundle.series, bundle.ranges[0])
    z = normalize_day_tensor(z, bundle.normalizer)
    proj = fit_projection(z, n_components=n_components, theta=theta, center=center)
    table = refresh_embedding(z, proj)
    return table, proj


@dataclass
class TrainedRun:
    params: ModelParams
    report: TrainReport
    projection: object  # None unless the pca strategy was used
    bundle: DataBundle


def train_run(series: TrafficSeries, model_cfg: ModelConfig,
              train_cfg: TrainConfig, strategy: str = "adaptive",
              ratios=(0.6, 0.2, 0.2), theta: Optional[float] = None,
              center=True, include_zeros_in_norm=True) -> TrainedRun:
    """Train one model under an embedding strategy on a 6:2:2-style split.

    Under the pca strategy the projection is fitted on the training range and
    the frozen averaged table is swapped in before training; under zero the
    slot is frozen at exact zeros. The embed_dim of the config is adjusted to
    the fitted component count when a variance threshold picks it.
    """
    bundle = prepare_data(series, ratios, model_cfg.l1, model_cfg.l2,
                          include_zeros_in_norm)
    projection = None
    params = init_params(model_cfg, series.num_nodes, train_cfg.seed)

    if strategy == "pca":
        table, projection = fit_training_embedding(
            bundle, n_components=None if theta is not None else model_cfg.embed_dim,
            theta=theta, center=center)
        if table.dim != model_cfg.embed_dim:
            model_cfg = ModelConfig(**{**model_cfg.__dict__, "embed_dim": table.dim})
            params = init_params(model_cfg, series.num_nodes, train_cfg.seed)
        params = set_embedding(params, table)
    elif strategy == "zero":
        params = set_embedding(
            params, zero_embedding(series.num_nodes, model_cfg.embed_dim))
    elif strategy != "adaptive":
        raise ValueError(f"unknown training strategy {strategy!r}")

    best, report = fit(params, bundle.train_windows, bundle.val_windows,
                       bundle.normalizer, train_cfg)
    return TrainedRun(params=best, report=report, projection=projection,
                      bundle=bundle)
