"""Evaluation regimes for shifted and foreign data.

All protocols share one skeleton: carve a day-aligned adaptation prefix off
the target series, derive an embedding for the model from it (or zero it, or
fine-tune it), then score the model on the untouched remainder. Evaluation
steps never overlap the adaptation prefix.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import (DataError, TrafficSeries, fit_normalizer, make_windows,
                      normalize_day_tensor, to_day_tensor)
from .metrics import DEFAULT_HORIZONS, evaluate, horizon_report_from_arrays
from .model import set_embedding
from .pca import fit_projection, refresh_embedding, zero_embedding
from .training import TrainConfig, fit

STRATEGIES = ("vanilla_adaptive", "zero_emb", "pca_emb", "finetune_emb")


@dataclass
class TransferPlan:
    adaptation_fraction: float = 0.05
    strategy: str = "pca_emb"
    refit_projection: bool = False

    def __post_init__(self):
        if not 0.0 < self.adaptation_fraction <= 0.5:
            raise ValueError("adaptation_fraction must be in (0, 0.5]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


def split_adaptation(series: TrafficSeries, fraction: float):
    """Day-aligned adaptation prefix and the evaluation remainder.

    The boundary is the end of the last complete day inside the first
    `fraction` of the steps, so adaptation strictly precedes evaluation.
    """
    raw_end = int(np.floor(fraction * series.total_steps))
    T = series.steps_per_day
    first = (-series.start_slot) % T
    days = (raw_end - first) // T
    if days < 1:
        raise DataError(
            f"adaptation subset lacks a full day ({raw_end} steps, T={T})"
        )
    boundary = first + days * T
    return (0, boundary), (boundary, series.total_steps)


def _target_embedding(target_series, adapt_range, source_proj, tensor_normalizer,
                      refit: bool):
    """Embedding for the target from its adaptation prefix.

    Reuses the source projection by default; with refit=True a new projection
    (same component count) is fitted on the adaptation tensor instead.
    """
    z = to_day_tensor(target_series, adapt_range)
    z = normalize_day_tensor(z, tensor_normalizer)
    proj = source_proj
    if refit:
        proj = fit_projection(z, n_components=source_proj.num_components)
    table = refresh_embedding(z, proj)
    return table, proj


def cross_year_eval(params, source_normalizer, source_proj, target_series,
                    plan: TransferPlan, horizons=DEFAULT_HORIZONS,
                    finetune_config=None):
    """Same sensors, later data: apply one embedding strategy, then score.

    The model and its normalizer come from the source year; the target must
    match it in node count and slots per day.
    """
    cfg = params.config
    if target_series.num_nodes != params.num_nodes:
        raise DataError(
            f"cross-year target has {target_series.num_nodes} nodes, "
            f"model has {params.num_nodes}"
        )
    if target_series.steps_per_day != cfg.steps_per_day:
        raise DataError(
            f"steps_per_day mismatch: target {target_series.steps_per_day}, "
            f"model {cfg.steps_per_day}"
        )
    adapt_range, eval_range = split_adaptation(target_series, plan.adaptation_fraction)

    meta = {"strategy": plan.strategy, "protocol": "cross_year",
            "adaptation_range": list(adapt_range), "eval_range": list(eval_range),
            "refit_projection": plan.refit_projection,
            "input_normalizer": [source_normalizer.mean, source_normalizer.std]}

    if plan.strategy == "vanilla_adaptive":
        scored = params
    elif plan.strategy == "zero_emb":
        scored = set_embedding(params, zero_embedding(params.num_nodes,
                                                      cfg.embed_dim))
    elif plan.strategy == "pca_emb":
        if source_proj is None:
            raise ValueError("pca_emb requires the source projection")
        # same sensors and units, so the source normalizer also scales the
        # adaptation tensor
        table, _ = _target_embedding(target_series, adapt_range, source_proj,
                                     source_normalizer, plan.refit_projection)
        meta["tensor_normalizer"] = [source_normalizer.mean, source_normalizer.std]
        scored = set_embedding(params, table)
    elif plan.strategy == "finetune_emb":
        adapt_windows = make_windows(target_series, adapt_range, cfg.l1, cfg.l2)
        ft_cfg = finetune_config or TrainConfig(max_epochs=50, patience=10)
        scored, _ = fit(params.clone(), adapt_windows, adapt_windows,
                        source_normalizer, ft_cfg, trainable=["embedding"])
    else:  # pragma: no cover - plan validation rejects this earlier
        raise ValueError(plan.strategy)

    eval_windows = make_windows(target_series, eval_range, cfg.l1, cfg.l2)
    return evaluate(scored, None, eval_windows, source_normalizer, horizons,
                    metadata=meta)


def zero_shot_transfer(params, source_normalizer, source_proj, target_series,
                       plan: TransferPlan, horizons=DEFAULT_HORIZONS):
    """Foreign node set, no weight updates: recompute only the embedding.

    The adaptation tensor is scaled by a normalizer fitted on the target's own
    adaptation prefix (embeddings describe the target's profile shapes), while
    model inputs keep the source normalizer the weights were trained in.
    """
    cfg = params.config
    if target_series.steps_per_day != cfg.steps_per_day:
        raise DataError(
            f"steps_per_day mismatch: target {target_series.steps_per_day}, "
            f"model {cfg.steps_per_day}"
        )
    adapt_range, eval_range = split_adaptation(target_series, plan.adaptation_fraction)
    tensor_norm = fit_normalizer(target_series, adapt_range)
    table, _ = _target_embedding(target_series, adapt_range, source_proj,
                                 tensor_norm, plan.refit_projection)
    scored = set_embedding(params, table)

    meta = {"strategy": "pca_emb", "protocol": "zero_shot",
            "adaptation_range": list(adapt_range), "eval_range": list(eval_range),
            "refit_projection": plan.refit_projection,
            "input_normalizer": [source_normalizer.mean, source_normalizer.std],
            "tensor_normalizer": [tensor_norm.mean, tensor_norm.std]}

    eval_windows = make_windows(target_series, eval_range, cfg.l1, cfg.l2)
    return evaluate(scored, None, eval_windows, source_normalizer, horizons,
                    metadata=meta)


def historical_average_baseline(target_series, eval_range, l1=12, l2=12,
                                horizons=DEFAULT_HORIZONS):
    """Per-(node, slot) mean over the steps before the evaluation range.

    The floor any learned transfer has to beat: it sees the same adaptation
    prefix and nothing else.
    """
    lo, hi = eval_range
    T = target_series.steps_per_day
    if lo < T:
        raise DataError("need at least one full day before the eval range")
    slots = target_series.slot_of(np.arange(lo))
    slot_mean = np.zeros((T, target_series.num_nodes))
    for slot in range(T):
        rows = target_series.values[:lo][slots == slot]
        if rows.shape[0] == 0:
            raise DataError(f"no adaptation data for slot {slot}")
        slot_mean[slot] = rows.mean(axis=0)

    windows = make_windows(target_series, eval_range, l1, l2)
    step_slots = (windows.tod[:, None] + np.arange(l2)) % T  # [W x l2]
    preds = slot_mean[step_slots].transpose(0, 2, 1)
    meta = {"strategy": "historical_average", "eval_range": list(eval_range)}
    return horizon_report_from_arrays(preds, windows.target, horizons, metadata=meta)
