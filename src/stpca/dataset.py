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
import warnings
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
# where np.loadtxt's ValueError places a cell it cannot convert
_LOADTXT_AT = re.compile(r"at row (\d+), column (\d+)")


class DataError(ValueError):
    """Raised when an input file or a step range violates the data contract."""


@dataclass
class TrafficSeries:
    """Time x node value grid with sampling metadata.

    values[s, n] is the reading of node n at step s. start_slot/start_dow give
    the within-day slot and day-of-week (Monday=0) of step 0.
    """

    values: np.ndarray
    steps_per_day: int
    start_slot: int
    start_dow: int
    node_ids: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("values must be a [steps x nodes] matrix")
        if self.steps_per_day < 1 or MINUTES_PER_DAY % self.steps_per_day:
            raise DataError(f"steps_per_day ({self.steps_per_day}) must divide "
                            f"a day of {MINUTES_PER_DAY} minutes")
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
    def interval_minutes(self) -> int:
        return MINUTES_PER_DAY // self.steps_per_day

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

    Rows must be strictly increasing in time at a uniform interval, inferred
    from the first two rows. The header may be quoted, data cells may not;
    empty or blank (spaces/tabs only) cells read as 0 (missing). The data
    lines stream into one `np.loadtxt` call. Faults name their `path:line:`:
    first the first quote, cell-count, timestamp or unparseable cell in file
    order, then the first negative or non-finite value.
    """
    timestamps, linenos = [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # csv.writer may quote node ids, so the header goes through csv
            reader = csv.reader(fh)
            node_ids = _node_ids(path, next(reader, None))
            lines = _data_lines(path, fh, reader.line_num, len(node_ids),
                                timestamps, linenos)
            with warnings.catch_warnings():  # a header-only file is no data
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(lines, delimiter=",",
                                    usecols=range(1, len(node_ids) + 1),
                                    dtype=np.float64, comments=None, ndmin=2)
    # UnicodeDecodeError is a ValueError, and so is DataError
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except DataError:
        raise
    except ValueError as exc:
        # loadtxt pulls a line only after converting the one before, so this
        # is the first unparseable cell in file order; every line it gets has
        # the right cell count, so a failed conversion is its only ValueError
        row, col = map(int, _LOADTXT_AT.search(str(exc)).groups())
        raise DataError(f"{path}:{linenos[row]}: bad value "
                        f"{_cell(path, linenos[row], col - 1)!r}") from None
    if not (np.isfinite(values).all() and (values >= 0).all()):
        row, col = np.argwhere(~np.isfinite(values) | (values < 0))[0]
        if np.isfinite(values[row, col]):
            raise DataError(f"{path}:{linenos[row]}: negative reading "
                            f"{float(values[row, col])}")
        raise DataError(f"{path}:{linenos[row]}: non-finite value "
                        f"{_cell(path, linenos[row], col + 1)!r}")
    return _series(path, values, timestamps, linenos, node_ids)


def _data_lines(path, fh, header_lines, n, timestamps, linenos):
    """Yield an open series CSV's data lines for `np.loadtxt`, each checked
    and with its blank cells as 0; record its timestamp and line number."""
    for lineno, line in enumerate(fh, start=header_lines + 1):
        if line in ("\n", "\r\n", "\r"):
            continue
        if '"' in line:
            raise DataError(f"{path}:{lineno}: quoted cells are not supported")
        if line.count(",") != n:
            raise DataError(f"{path}:{lineno}: ragged row ({line.count(',') + 1} "
                            f"cells, expected {n + 1})")
        stamp = line[: line.index(",")]
        try:
            timestamps.append(datetime.fromisoformat(stamp.strip()))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad timestamp {stamp!r}") from None
        linenos.append(lineno)
        if _has_blank_cell(line):
            body = line.rstrip("\r\n")
            line = ",".join(c if c.strip(" \t") else "0"
                            for c in body.split(",")) + line[len(body):]
        yield line


def _has_blank_cell(line):
    """Whether a data line has an empty or a space/tab-only value cell; the
    cheap substring tests spare the regex on lines with no space or tab."""
    return (",," in line or line.endswith((",", ",\n", ",\r\n", ",\r"))
            or (" " in line or "\t" in line) and _BLANK_CELL.search(line) is not None)


def _cell(path, lineno, col):
    """Value cell `col` of line `lineno`, spaces and tabs stripped, for an error."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = next(itertools.islice(fh, lineno - 1, None))
    return line.rstrip("\r\n").split(",")[col].strip(" \t")


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


def to_day_tensor(series: TrafficSeries, step_range) -> np.ndarray:
    """Reshape the slot-0-aligned complete days inside the range to a
    C-contiguous [D x N x T] array.

    Misaligned head and tail steps are dropped, never padded; the array is a
    copy.
    """
    lo, hi = step_range
    T = series.steps_per_day
    first = lo + (-(series.start_slot + lo)) % T
    days = (hi - first) // T
    if days < 1:
        raise DataError(f"no complete day in range [{lo}, {hi})")
    data = series.values[first : first + days * T].reshape(days, T, series.num_nodes)
    return data.transpose(0, 2, 1).copy()
