"""Evaluation regimes for shifted and foreign data.

All protocols share one skeleton: carve a day-aligned adaptation prefix off
the target series, derive an embedding for the model from it (or zero it, or
fine-tune it), then score the model on the untouched remainder. Evaluation
steps never overlap the adaptation prefix.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import (DataError, TrafficSeries, _check_fields, _setting, fit_normalizer,
                      make_windows)
from .metrics import _report, evaluate
from .model import ModelConfig, _blocks, set_embedding
from .pca import pca_table, zero_embedding
from .training import TrainConfig, fit

STRATEGIES = ("vanilla_adaptive", "zero_emb", "pca_emb", "finetune_emb")


@dataclass
class TransferPlan:
    adaptation_fraction: float = _setting(0.05, "(0, 0.5]")
    strategy: str = _setting("pca_emb", STRATEGIES)

    def __post_init__(self):
        _check_fields(self)


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


def with_strategy(params, strategy, series, step_range, normalizer, proj=None,
                  finetune_config=None):
    """The model with its embedding slot filled under one transfer strategy.

    vanilla_adaptive keeps the trained table and zero_emb zeroes it. pca_emb
    refreshes it from the day tensor of `step_range`, scaled by `normalizer`,
    through `proj`, the source projection the weights were trained with.
    finetune_emb trains only the table on the range's windows, and tags it
    adaptive. The passed-in params are never mutated.
    """
    cfg = params.config
    if strategy == "vanilla_adaptive":
        return params
    if strategy == "zero_emb":
        return set_embedding(params, zero_embedding(params.num_nodes, cfg.embed_dim))
    if strategy == "pca_emb":
        if proj is None:
            raise ValueError("pca_emb requires the source projection")
        table, _ = pca_table(series, step_range, normalizer, proj)
        return set_embedding(params, table)
    if strategy == "finetune_emb":
        windows = make_windows(series, step_range, cfg.l1, cfg.l2)
        ft_cfg = finetune_config or TrainConfig(max_epochs=50, patience=10)
        return fit(params.clone(), windows, windows, normalizer, ft_cfg,
                   trainable=["embedding"])[0]
    raise ValueError(f"unknown strategy {strategy!r}")


def _transfer(params, normalizer, proj, target_series, plan, protocol,
              finetune_config=None):
    """Split the target, fill the embedding slot from its prefix, then score.

    Model inputs keep the source normalizer the weights were trained in. It
    scales the adaptation tensor too across years (same sensors and units);
    zero-shot, a normalizer fitted on the prefix does, since the embedding
    describes the target's own profile shapes.
    """
    cfg = params.config
    if target_series.steps_per_day != cfg.steps_per_day:
        raise DataError(
            f"steps_per_day mismatch: target {target_series.steps_per_day}, "
            f"model {cfg.steps_per_day}"
        )
    adapt_range, eval_range = split_adaptation(target_series, plan.adaptation_fraction)
    tensor_norm = (normalizer if protocol == "cross_year"
                   else fit_normalizer(target_series, adapt_range))
    scored = with_strategy(params, plan.strategy, target_series, adapt_range,
                           tensor_norm, proj, finetune_config)

    meta = {"strategy": plan.strategy, "protocol": protocol,
            "adaptation_range": list(adapt_range), "eval_range": list(eval_range),
            "input_normalizer": [normalizer.mean, normalizer.std]}
    if plan.strategy == "pca_emb":
        meta["tensor_normalizer"] = [tensor_norm.mean, tensor_norm.std]
    eval_windows = make_windows(target_series, eval_range, cfg.l1, cfg.l2)
    return evaluate(scored, None, eval_windows, normalizer, metadata=meta)


def cross_year_eval(params, source_normalizer, source_proj, target_series,
                    plan: TransferPlan, finetune_config=None):
    """Same sensors, later data: apply one embedding strategy, then score.

    The model and its normalizer come from the source year; the target must
    match it in node count and slots per day.
    """
    if target_series.num_nodes != params.num_nodes:
        raise DataError(f"cross-year target has {target_series.num_nodes} nodes, "
                        f"model has {params.num_nodes}")
    return _transfer(params, source_normalizer, source_proj, target_series, plan,
                     "cross_year", finetune_config)


def zero_shot_transfer(params, source_normalizer, source_proj, target_series,
                       plan: TransferPlan):
    """Foreign node set, no weight updates: recompute only the embedding.

    Only pca_emb builds a table for nodes the model never saw, so any other
    plan is a DataError. With the graph off, a node's predictions depend on
    the rest of the target city only through the scalar tensor normalizer
    that `_transfer` fits on the whole adaptation prefix; with the graph on,
    every node feeds every other.
    """
    if plan.strategy != "pca_emb":
        raise DataError(f"only a PCA table transfers to another node set (model "
                        f"{params.num_nodes} nodes, target {target_series.num_nodes})")
    return _transfer(params, source_normalizer, source_proj, target_series, plan,
                     "zero_shot")


def historical_average_baseline(target_series, eval_range, l1=ModelConfig.l1,
                                l2=ModelConfig.l2):
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
    for slot in range(T):  # lo >= T: every slot occurs in [0, lo)
        slot_mean[slot] = target_series.values[:lo][slots == slot].mean(axis=0)

    windows = make_windows(target_series, eval_range, l1, l2)
    pairs = ((slot_mean[(windows.tod[block, None] + np.arange(l2)) % T]
              .transpose(0, 2, 1), windows.target[block])
             for block in _blocks(len(windows), target_series.num_nodes))
    meta = {"strategy": "historical_average", "eval_range": list(eval_range)}
    return _report(pairs, metadata=meta)
