"""Traffic series ingestion, chronological splitting, windowing and day-slot tensors.

A series is a [total_steps x N] grid of non-negative flow readings at a uniform
sampling interval. Zeros mark missing/noisy readings; they stay in the data and
are masked out later by the loss and the metrics, not here.
"""

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ioutil import atomic_write_text

MINUTES_PER_DAY = 1440


class DataError(ValueError):
    """Raised when an input file or a step range violates the data contract."""


@dataclass
class TrafficSeries:
    """Time x node value grid with sampling metadata.

    values[s, n] is the reading of node n at step s. start_slot/start_dow give
    the within-day slot and day-of-week (Monday=0) of step 0.
    """

    values: np.ndarray
    interval_minutes: int
    steps_per_day: int
    start_slot: int
    start_dow: int
    node_ids: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("values must be a [steps x nodes] matrix")
        if self.steps_per_day * self.interval_minutes != MINUTES_PER_DAY:
            raise DataError(
                f"steps_per_day ({self.steps_per_day}) x interval "
                f"({self.interval_minutes} min) must cover one day exactly"
            )
        if self.total_steps < self.steps_per_day:
            raise DataError(
                f"less than one day of data: {self.total_steps} steps "
                f"< {self.steps_per_day}"
            )
        if not np.isfinite(self.values).all():
            raise DataError("non-finite reading")
        if (self.values < 0).any():
            raise DataError("negative reading")
        if not 0 <= self.start_slot < self.steps_per_day:
            raise DataError("start_slot out of range")
        if not 0 <= self.start_dow < 7:
            raise DataError("start_dow out of range")
        if len(self.node_ids) != self.num_nodes:
            raise DataError("node_ids length does not match value columns")

    @property
    def total_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]

    def slot_of(self, step):
        """Within-day slot of a step index (or of each entry of an index array)."""
        return (self.start_slot + step) % self.steps_per_day

    def dow_of(self, step):
        """Day of week of a step index (or of each entry of an index array)."""
        return (self.start_dow + (self.start_slot + step) // self.steps_per_day) % 7


@dataclass
class DayTensor:
    """[D x N x T] reshape of a series segment, each day aligned to slot 0."""

    data: np.ndarray
    step_range: tuple

    @property
    def num_days(self) -> int:
        return self.data.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.data.shape[1]

    @property
    def steps_per_day(self) -> int:
        return self.data.shape[2]


@dataclass
class Normalizer:
    """z-score transform fitted on the training split only."""

    mean: float
    std: float

    def apply(self, x):
        """z-score of x, C-contiguous whatever the layout of x."""
        out = np.subtract(x, self.mean, dtype=np.float64, order="C")
        out /= self.std
        return out

    def invert(self, x):
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


@dataclass(frozen=True, eq=False)
class Windows:
    """Forecasting samples: l1 history steps followed by l2 target steps.

    history [W x N x l1] and target [W x N x l2] are in original units; tod and
    dow [W] identify each window's first target step. make_windows returns
    read-only views of the series values, so no window data is copied.
    """

    history: np.ndarray
    target: np.ndarray
    tod: np.ndarray
    dow: np.ndarray

    def __len__(self) -> int:
        return len(self.tod)


def ingest_csv(path) -> TrafficSeries:
    """Load a `timestamp,node_0,...` CSV into a TrafficSeries.

    Rows must be strictly increasing in time at a uniform interval; empty cells
    parse as 0 (missing). The interval is inferred from the first two rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "timestamp":
            raise DataError(f"{path}: first column must be 'timestamp'")
        node_ids = [h.strip() for h in header[1:]]
        if not node_ids:
            raise DataError(f"{path}: no node columns")

        timestamps = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(node_ids) + 1:
                raise DataError(
                    f"{path}:{lineno}: ragged row ({len(row)} cells, "
                    f"expected {len(node_ids) + 1})"
                )
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
            vals = []
            for cell in row[1:]:
                cell = cell.strip()
                if cell == "":
                    vals.append(0.0)
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {cell!r}") from None
                if not math.isfinite(v):
                    raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
                if v < 0:
                    raise DataError(f"{path}:{lineno}: negative reading {v}")
                vals.append(v)
            timestamps.append(ts)
            rows.append(vals)

    if len(rows) < 2:
        raise DataError(f"{path}: need at least two rows to infer the interval")
    delta = timestamps[1] - timestamps[0]
    interval_min = delta.total_seconds() / 60.0
    if interval_min <= 0:
        raise DataError(f"{path}: timestamps not increasing")
    if interval_min != int(interval_min) or MINUTES_PER_DAY % int(interval_min) != 0:
        raise DataError(f"{path}: interval {interval_min} min does not divide a day")
    interval_min = int(interval_min)
    for i in range(1, len(timestamps)):
        if timestamps[i] - timestamps[i - 1] != delta:
            raise DataError(
                f"{path}: non-uniform interval at row {i + 2} "
                f"({timestamps[i]} after {timestamps[i - 1]})"
            )

    steps_per_day = MINUTES_PER_DAY // interval_min
    if len(rows) < steps_per_day:
        raise DataError(
            f"{path}: less than one day of rows ({len(rows)} < {steps_per_day})"
        )
    first = timestamps[0]
    minutes = first.hour * 60 + first.minute
    if first.second or first.microsecond or minutes % interval_min != 0:
        raise DataError(f"{path}: first timestamp not aligned to the interval")

    return TrafficSeries(
        values=np.array(rows, dtype=np.float64),
        interval_minutes=interval_min,
        steps_per_day=steps_per_day,
        start_slot=minutes // interval_min,
        start_dow=first.weekday(),
        node_ids=node_ids,
    )


def write_series_csv(series: TrafficSeries, path):
    """Write a TrafficSeries back to the ingest CSV format.

    Timestamps are synthesized from a fixed Monday epoch so that re-ingesting
    reproduces start_slot and start_dow exactly.
    """
    base = datetime(2024, 1, 1)  # a Monday
    t0 = base + timedelta(
        days=series.start_dow, minutes=series.start_slot * series.interval_minutes
    )
    step = timedelta(minutes=series.interval_minutes)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["timestamp"] + list(series.node_ids))
    for s in range(series.total_steps):
        ts = (t0 + s * step).isoformat()
        writer.writerow([ts] + [f"{v:.17g}" for v in series.values[s]])
    atomic_write_text(path, buf.getvalue())


def split_chronological(series: TrafficSeries, ratios=(0.6, 0.2, 0.2)):
    """Split [0, total) into contiguous train/val/test step ranges.

    Boundaries are floors of the cumulative fractions; the remainder goes to
    the test range.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError("ratios must be three positive fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)}")
    n = series.total_steps
    b1 = math.floor(n * ratios[0])
    b2 = math.floor(n * (ratios[0] + ratios[1]))
    ranges = ((0, b1), (b1, b2), (b2, n))
    for name, (lo, hi) in zip(("train", "val", "test"), ranges):
        if hi <= lo:
            raise DataError(f"empty split: {name}")
    return ranges


def fit_normalizer(series: TrafficSeries, step_range, include_zeros=True) -> Normalizer:
    """Fit mean and population std over all values in the range.

    Zeros (missing markers) are included by default; set include_zeros=False
    to fit on observed cells only.
    """
    lo, hi = step_range
    if hi <= lo:
        raise DataError("empty range")
    chunk = series.values[lo:hi]
    if not include_zeros:
        chunk = chunk[chunk != 0]
        if chunk.size == 0:
            raise DataError("no nonzero values in range")
    mean = float(chunk.mean())
    std = float(chunk.std())
    if std == 0.0:
        raise DataError("zero variance in normalization range")
    return Normalizer(mean=mean, std=std)


def make_windows(series: TrafficSeries, step_range, l1=12, l2=12) -> Windows:
    """Slide a stride-1 window over the range; one window per valid offset.

    Histories and targets never cross the range boundary, so windows built per
    split cannot leak across splits.
    """
    lo, hi = step_range
    span = l1 + l2
    if hi - lo < span:
        raise DataError(f"range too short for windows: {hi - lo} < {span}")
    first = np.arange(lo + l1, hi - l2 + 1)  # absolute first target steps
    return Windows(
        history=sliding_window_view(series.values[lo : hi - l2], l1, axis=0),
        target=sliding_window_view(series.values[lo + l1 : hi], l2, axis=0),
        tod=series.slot_of(first),
        dow=series.dow_of(first),
    )


def to_day_tensor(series: TrafficSeries, step_range) -> DayTensor:
    """Reshape the slot-0-aligned complete days inside the range to [D x N x T].

    Misaligned head and tail steps are dropped, never padded.
    """
    lo, hi = step_range
    T = series.steps_per_day
    first = lo + (-(series.start_slot + lo)) % T
    days = (hi - first) // T
    if days < 1:
        raise DataError(f"no complete day in range [{lo}, {hi})")
    retained = (first, first + days * T)
    data = series.values[retained[0] : retained[1]].reshape(days, T, series.num_nodes)
    return DayTensor(
        data=np.ascontiguousarray(data.transpose(0, 2, 1)),
        step_range=retained,
    )


def normalize_day_tensor(z: DayTensor, normalizer: Normalizer) -> DayTensor:
    """Apply the z-score transform to a day tensor, keeping its step range."""
    return DayTensor(data=normalizer.apply(z.data), step_range=z.step_range)
