"""Traffic series ingestion, chronological splitting, windowing and day-slot tensors.

A series is a [total_steps x N] grid of non-negative flow readings at a uniform
sampling interval. Zeros mark missing/noisy readings; they stay in the data and
are masked out later by the loss and the metrics, not here.
"""

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ioutil import atomic_write_pieces

MINUTES_PER_DAY = 1440
# a value cell holding nothing but spaces and tabs
_BLANK_CELL = re.compile(r",[ \t]*(?:[,\r\n]|$)")
# the line ends that text-mode reading splits on
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")


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

    def apply(self, x, out=None):
        """z-score of x, C-contiguous whatever the layout of x; written into
        `out` when it is given."""
        out = np.subtract(x, self.mean, out=out, dtype=np.float64, order="C")
        out /= self.std
        return out

    def invert(self, x, out=None):
        """Original units of normalized x; written into `out` when it is given."""
        out = np.multiply(x, self.std, out=out, dtype=np.float64)
        out += self.mean
        return out


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

    The values of a plain file (no quotes, no empty cells) are parsed by one
    `np.loadtxt` call. Any anomaly, bytes that are not UTF-8 included, sends
    the whole file through `_ingest_rows`, the cell-by-cell reader, which
    returns the same values for a valid file and raises the `path:line:`
    message for an invalid one.
    """
    try:
        return _ingest_columns(path)
    except UnicodeDecodeError:
        return _ingest_rows(path)


def _ingest_columns(path) -> TrafficSeries:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = fh.readline()
        if not line or '"' in line:
            return _ingest_rows(path)
        node_ids = _node_ids(path, next(csv.reader([line])))
        n = len(node_ids)
        data_start = fh.tell()
        timestamps, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            if line in ("\n", "\r\n", "\r"):
                continue
            if line.count(",") != n or '"' in line or _has_blank_cell(line):
                return _ingest_rows(path)
            try:
                ts = datetime.fromisoformat(line[: line.index(",")].strip())
            except ValueError:
                return _ingest_rows(path)
            timestamps.append(ts)
            linenos.append(lineno)
        if len(timestamps) < 2:
            return _ingest_rows(path)
        fh.seek(data_start)
        try:
            values = np.loadtxt(fh, delimiter=",", usecols=range(1, n + 1),
                                dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return _ingest_rows(path)
    # numpy and Python split lines alike (on \n, \r\n and \r): the row count
    # check only guards that agreement
    if (len(values) != len(timestamps) or not np.isfinite(values).all()
            or (values < 0).any()):
        return _ingest_rows(path)
    return _series(path, values, timestamps, linenos, node_ids)


def _has_blank_cell(line):
    """Whether a data line has an empty or a space/tab-only value cell.

    The row loop reads such a cell as 0 and loadtxt rejects it, so finding it
    in the line pass spares a loadtxt parse that would fail. The substring
    tests are cheap; the regex runs only on lines that hold a space or a tab.
    """
    return (",," in line or line.endswith((",", ",\n", ",\r\n", ",\r"))
            or (" " in line or "\t" in line) and _BLANK_CELL.search(line) is not None)


def _ingest_rows(path) -> TrafficSeries:
    """Reference reader for `ingest_csv`: csv.reader rows, float() per cell.

    Handles quoted and empty cells, and raises the first fault in file order
    with its physical line number; a record whose quoted cell spans lines is
    reported at its last line.
    """
    try:
        return _read_rows(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> DataError:
    """The error for a file that is not UTF-8, at the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(_LINE_BREAK.findall(raw, 0, exc.start))
        return DataError(f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})")
    return DataError(f"{path}: not UTF-8 text")


def _read_rows(path) -> TrafficSeries:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        node_ids = _node_ids(path, next(reader, None))
        timestamps, linenos, rows = [], [], []
        for row in reader:
            lineno = reader.line_num
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
            linenos.append(lineno)
            rows.append(vals)
    return _series(path, np.array(rows, dtype=np.float64), timestamps, linenos,
                   node_ids)


def _node_ids(path, header):
    """Node ids of a parsed header row (None for an empty file)."""
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header or header[0].strip().lower() != "timestamp":
        raise DataError(f"{path}: first column must be 'timestamp'")
    node_ids = [h.strip() for h in header[1:]]
    if not node_ids:
        raise DataError(f"{path}: no node columns")
    seen = set()
    for node_id in node_ids:
        if node_id in seen:
            raise DataError(f"{path}:1: repeated node id {node_id!r}")
        seen.add(node_id)
    return node_ids


def _series(path, values, timestamps, linenos, node_ids) -> TrafficSeries:
    """Check the time axis of parsed rows and wrap them as a TrafficSeries.

    linenos[i] is the file line of timestamps[i].
    """
    if len(timestamps) < 2:
        raise DataError(f"{path}: need at least two rows to infer the interval")
    naive = timestamps[0].tzinfo is None
    for ts, lineno in zip(timestamps, linenos):
        if (ts.tzinfo is None) != naive:
            raise DataError(f"{path}:{lineno}: timestamp {ts.isoformat()} mixes "
                            "naive and UTC-offset forms")
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
                f"{path}:{linenos[i]}: non-uniform interval "
                f"({timestamps[i]} after {timestamps[i - 1]})"
            )

    steps_per_day = MINUTES_PER_DAY // interval_min
    if len(timestamps) < steps_per_day:
        raise DataError(
            f"{path}: less than one day of rows ({len(timestamps)} < {steps_per_day})"
        )
    first = timestamps[0]
    minutes = first.hour * 60 + first.minute
    if first.second or first.microsecond or minutes % interval_min != 0:
        raise DataError(f"{path}: first timestamp not aligned to the interval")

    return TrafficSeries(
        values=values,
        interval_minutes=interval_min,
        steps_per_day=steps_per_day,
        start_slot=minutes // interval_min,
        start_dow=first.weekday(),
        node_ids=node_ids,
    )


def write_series_csv(series: TrafficSeries, path):
    """Write a TrafficSeries back to the ingest CSV format.

    Timestamps are synthesized from a fixed Monday epoch so that re-ingesting
    reproduces start_slot and start_dow exactly. Values are written at 17
    significant digits, so they read back bit for bit.
    """
    base = datetime(2024, 1, 1)  # a Monday
    t0 = base + timedelta(
        days=series.start_dow, minutes=series.start_slot * series.interval_minutes
    )
    step = timedelta(minutes=series.interval_minutes)
    header = io.StringIO()
    csv.writer(header).writerow(["timestamp"] + list(series.node_ids))
    # the csv module would quote none of these fields: ISO timestamps and %g
    # numbers hold no comma, quote or line break
    row_format = "%s," + ",".join(["%.17g"] * series.num_nodes) + "\r\n"
    rows = ((row_format % ((t0 + s * step).isoformat(), *row.tolist())).encode()
            for s, row in enumerate(series.values))  # streamed, one row at a time
    atomic_write_pieces(path, itertools.chain([header.getvalue().encode("utf-8")], rows))


def check_ratios(ratios):
    """Raise DataError unless ratios are three positive fractions summing to 1."""
    # written so that a NaN fails each test
    if len(ratios) != 3 or any(not r > 0 for r in ratios):
        raise DataError("ratios must be three positive fractions")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)}")


def split_chronological(series: TrafficSeries, ratios=(0.6, 0.2, 0.2)):
    """Split [0, total) into contiguous train/val/test step ranges.

    Boundaries are floors of the cumulative fractions; the remainder goes to
    the test range.
    """
    check_ratios(ratios)
    n = series.total_steps
    b1 = math.floor(n * ratios[0])
    b2 = math.floor(n * (ratios[0] + ratios[1]))
    ranges = ((0, b1), (b1, b2), (b2, n))
    for name, (lo, hi) in zip(("train", "val", "test"), ranges):
        if hi <= lo:
            raise DataError(f"empty split: {name}")
    return ranges


def fit_normalizer(series: TrafficSeries, step_range) -> Normalizer:
    """Fit mean and population std over all values in the range, zeros
    (missing markers) included."""
    lo, hi = step_range
    if hi <= lo:
        raise DataError("empty range")
    chunk = series.values[lo:hi]
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

    Misaligned head and tail steps are dropped, never padded; the data is a copy.
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
        data=data.transpose(0, 2, 1).copy(),
        step_range=retained,
    )


def normalize_day_tensor(z: DayTensor, normalizer: Normalizer) -> DayTensor:
    """Apply the z-score transform to a day tensor, keeping its step range."""
    return DayTensor(data=normalizer.apply(z.data), step_range=z.step_range)
