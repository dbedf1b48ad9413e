"""Masked evaluation metrics and horizon-resolved reports."""

import json
from dataclasses import dataclass, field

import numpy as np

from .model import predict

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def masked_metrics(pred: np.ndarray, target: np.ndarray) -> MetricSet:
    """MAE / RMSE / MAPE over cells with nonzero ground truth.

    Both arrays are in original units. MAPE's zero-division safety comes from
    the mask itself; no epsilon is involved.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    mask = target != 0
    if not mask.any():
        raise ValueError("no valid targets: all ground-truth cells are zero")
    # in-place steps keep at most three masked-cell arrays alive at once
    valid = target[mask]
    diff = pred[mask] - valid
    abs_diff = np.abs(diff)
    mae = float(abs_diff.mean())
    diff *= diff
    rmse = float(np.sqrt(diff.mean()))
    abs_diff /= np.abs(valid, out=valid)
    return MetricSet(mae=mae, rmse=rmse, mape=float(abs_diff.mean()))


def horizon_report_from_arrays(pred, target, horizons=DEFAULT_HORIZONS,
                               metadata=None) -> HorizonReport:
    """Slice [W x N x l2] predictions per horizon; 'avg' pools every step.

    The average is a micro-average: all masked cells of all steps weighted
    equally, not a mean of the per-horizon numbers.
    """
    l2 = pred.shape[2]
    for h in horizons:
        if not 1 <= h <= l2:
            raise ValueError(f"horizon {h} outside [1, {l2}]")
    out = {str(h): masked_metrics(pred[:, :, h - 1], target[:, :, h - 1])
           for h in horizons}
    out["avg"] = masked_metrics(pred, target)
    return HorizonReport(horizons=out, metadata=dict(metadata or {}))


def evaluate(params, embedding, windows, normalizer, horizons=DEFAULT_HORIZONS,
             metadata=None) -> HorizonReport:
    """Forward, de-normalize, and report metrics at each horizon."""
    if not windows:
        raise ValueError("no windows to evaluate")
    pred = predict(params, embedding, windows, normalizer)
    return horizon_report_from_arrays(pred, windows.target, horizons, metadata)


def render_report(report: HorizonReport) -> str:
    """Plain-text table in the Horizon 3 / 6 / 12 / Average layout."""
    lines = ["horizon | MAE & RMSE & MAPE", "--------+-------------------"]
    for key in list(report.horizons):
        label = "Average" if key == "avg" else f"H{key}"
        lines.append(f"{label:7s} | {report.horizons[key].table_row()}")
    return "\n".join(lines)
