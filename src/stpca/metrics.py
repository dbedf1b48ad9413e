"""Masked evaluation metrics and horizon-resolved reports."""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Workspace, _blocks, _predict_blocks, set_embedding

DEFAULT_HORIZONS = (3, 6, 12)


@dataclass
class MetricSet:
    mae: float
    rmse: float
    mape: float  # fraction; render as percent

    def as_dict(self):
        return {"mae": self.mae, "rmse": self.rmse, "mape": self.mape}

    def table_row(self) -> str:
        """`MAE & RMSE & MAPE%` cell formatting used by the comparison tables."""
        return f"{self.mae:.2f} & {self.rmse:.2f} & {self.mape * 100:.2f}%"


@dataclass
class HorizonReport:
    """Per-horizon metrics plus the all-step average, with run metadata."""

    horizons: dict  # {"3": MetricSet, ..., "avg": MetricSet}
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self):
        meta = dict(self.metadata)
        return {
            "dataset": meta.pop("dataset", None),
            "strategy": meta.pop("strategy", None),
            "seed": meta.pop("seed", None),
            "horizons": {k: v.as_dict() for k, v in self.horizons.items()},
            "meta": meta,
        }


def _masked_sums(pred, target) -> np.ndarray:
    """Per-step masked sums of one [rows x cells x steps] block.

    The one definition of which cells count (`target != 0`) and of the error
    formulas, shared by `masked_mae`, `masked_metrics` and every report.
    Returns [4 x steps]: cell count, sum |e|, sum e^2 and sum |e| / |y|,
    e = pred - y. The block is written into fresh C-contiguous buffers, so no
    full-size masked copy is made and the sums do not depend on the inputs'
    memory layout. Each column sum is a ones-vector product. Masked-out cells
    are zeroed by multiplying with the 0/1 mask, so predictions must be
    finite, as `forward` guarantees.
    """
    rows, cells, steps = target.shape
    y, w, e, t = (np.empty(target.shape) for _ in range(4))
    np.copyto(y, target)  # the strided target read once
    u = np.ones(rows * cells)
    sums = np.zeros((4, steps))
    np.not_equal(y, 0.0, out=w)  # 1.0 where the cell counts, else 0.0
    np.subtract(pred, y, out=e)
    e *= w
    np.multiply(e, e, out=t)
    np.abs(e, out=e)
    sums[0] += u @ w.reshape(-1, steps)
    sums[1] += u @ e.reshape(-1, steps)
    sums[2] += u @ t.reshape(-1, steps)
    # |y| + (1 - w): |y| where the cell counts, 1 where e is already 0
    np.abs(y, out=t)
    t += 1.0 - w
    e /= t
    sums[3] += u @ e.reshape(-1, steps)
    return sums


def _pairs(pred, target):
    """(prediction, target) blocks of two arrays, cut by `_blocks`. The last
    axis is the step axis and an array of rank < 2 is one step."""
    pred, target = (np.asarray(a, dtype=np.float64) for a in (pred, target))
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    shape = (-1, 1, 1) if pred.ndim < 2 else (len(pred), -1, pred.shape[-1])
    pred, target = pred.reshape(shape), target.reshape(shape)
    # an empty array gives one empty pair, which scores as no valid targets
    return ((pred[rows], target[rows])
            for rows in _blocks(max(1, len(pred)), pred.shape[1]))


def _metric_set(sums: np.ndarray) -> MetricSet:
    """MetricSet from one column of `_masked_sums` (or a sum of columns)."""
    count, abs_sum, sq_sum, ape_sum = (float(v) for v in sums)
    if count == 0:
        raise ValueError("no valid targets: all ground-truth cells are zero")
    return MetricSet(mae=abs_sum / count, rmse=math.sqrt(sq_sum / count),
                     mape=ape_sum / count)


def masked_mae(pred: np.ndarray, target: np.ndarray) -> float:
    """MAE over cells with nonzero ground truth; equals `masked_metrics(...).mae`."""
    return masked_metrics(pred, target).mae


def masked_metrics(pred: np.ndarray, target: np.ndarray) -> MetricSet:
    """MAE / RMSE / MAPE over cells with nonzero ground truth.

    Both arrays are in original units. MAPE's zero-division safety comes from
    the mask itself; no epsilon is involved.
    """
    return _report(_pairs(pred, target), horizons=()).horizons["avg"]


def _report(pairs, horizons=None, metadata=None) -> HorizonReport:
    """HorizonReport of (prediction, target) block pairs [b x N x l2]. Pairs
    cut by `model._blocks` sum to the same bits whether `_predict_blocks`
    yields them or `_pairs` cuts them from whole arrays."""
    sums = sum(_masked_sums(pred, target) for pred, target in pairs)
    l2 = sums.shape[1]
    if horizons is None:
        horizons = tuple(h for h in DEFAULT_HORIZONS if h <= l2) or (l2,)
    for h in horizons:
        if not 1 <= h <= l2:
            raise ValueError(f"horizon {h} outside [1, {l2}]")
    out = {str(h): _metric_set(sums[:, h - 1]) for h in horizons}
    out["avg"] = _metric_set(sums.sum(axis=1))
    return HorizonReport(horizons=out, metadata=dict(metadata or {}))


def horizon_report_from_arrays(pred, target, horizons=None,
                               metadata=None) -> HorizonReport:
    """Per-horizon metrics of [W x N x l2] predictions; 'avg' pools every step.

    Without `horizons`, the entries of DEFAULT_HORIZONS that are <= l2 are
    reported, or l2 alone if none is. One blocked pass sums each step's
    masked errors; a horizon reads its own step and the average the sums of
    all steps. The average is a micro-average: all masked cells of all steps
    weighted equally, not a mean of the per-horizon numbers.
    """
    return _report(_pairs(pred, target), horizons, metadata)


def _scored_mae(params, windows, normalizer, work: Workspace) -> float:
    """`masked_mae(predict(...), windows.target)` block by block: 'avg' alone."""
    pairs = _predict_blocks(params, windows, normalizer, work)
    return _report(pairs, horizons=()).horizons["avg"].mae


def evaluate(params, embedding, windows, normalizer, metadata=None) -> HorizonReport:
    """Forward, de-normalize, and report metrics at the default horizons, block
    by block: the report of `predict`'s array, bit for bit, without building it.
    A table other than None is swapped into the model's slot by `set_embedding`."""
    if not windows:
        raise ValueError("no windows to evaluate")
    if embedding is not None:
        params = set_embedding(params, embedding)
    pairs = _predict_blocks(params, windows, normalizer, Workspace())
    return _report(pairs, metadata=metadata)


def render_report(report: HorizonReport) -> str:
    """Plain-text table in the Horizon 3 / 6 / 12 / Average layout."""
    lines = ["horizon | MAE & RMSE & MAPE", "--------+-------------------"]
    for key in list(report.horizons):
        label = "Average" if key == "avg" else f"H{key}"
        lines.append(f"{label:7s} | {report.horizons[key].table_row()}")
    return "\n".join(lines)
