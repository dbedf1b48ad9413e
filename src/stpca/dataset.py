"""Traffic series ingestion, chronological splitting, windowing and day-slot tensors.

A series is a [total_steps x N] grid of non-negative flow readings at a uniform
sampling interval. Zeros mark missing/noisy readings; they stay in the data and
are masked out later by the loss and the metrics, not here. The module also
holds the error types, the range check of the run settings and the CPU count
that the other modules share.
"""

import contextlib
import csv
import io
import itertools
import math
import os
import pickle
import re
import signal
import tempfile
import warnings
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ioutil import atomic_write_pieces

MINUTES_PER_DAY = 1440
RATIOS = (0.6, 0.2, 0.2)  # train:val:test, the 6:2:2 chronological split
# a value cell holding nothing but spaces and tabs
_BLANK_CELL = re.compile(r",[ \t]*(?:[,\r\n]|$)")
# the line ends that text-mode reading splits on
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")
# where np.loadtxt's ValueError places a cell it cannot convert
_LOADTXT_AT = re.compile(r"at row (\d+), column (\d+)")
# file bytes from which `ingest_csv` parses the data lines past the middle
# byte, and `write_series_csv` formats the rows past the middle one, in a
# forked child process. In interleaved runs (31 of each, in a process holding
# 60 MB more, 3 to 307 nodes) two processes took, to read, 1.3-2.0x as long
# as one at 0.22-0.71 MB, 0.88-0.92x at 0.89-0.93 MB, 0.76-0.84x at 1.7-2.0
# MB and 0.62x at 6.7 MB; to write, 1.00-1.60x at 0.1-0.2 MB, 0.75-1.03x at
# 0.35-0.5 MB, 0.72-0.89x at 0.7-1.0 MB and 0.61-0.75x at 1.5-6.7 MB. The
# writer breaks even lower; one threshold gives up 2-15 ms a file there.
FORK_BYTES = 1_000_000


class DataError(ValueError):
    """Raised when an input file or a step range violates the data contract."""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, bad value, missing requirement."""


def _usable_cpus() -> int:
    """The CPUs this process may run on: the one rule for a second thread
    (`model._helper`) and for a second process (`_forks`)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _forks(size) -> bool:
    """Whether a CSV of `size` bytes is read or written by two processes: at
    least FORK_BYTES, by a process that may use more than one CPU."""
    return size >= FORK_BYTES and _usable_cpus() > 1


@contextlib.contextmanager
def _second_process(work):
    """Run `work()` in a child made with `os.fork` while the with-block runs
    in this process. The block gets `done`, a call that waits for the child
    and tells whether `work` returned. It is also False when `os.fork`
    raised, so the caller does the child's share itself whenever it is
    False. The child always ends in `os._exit`, 1 when `work` raised
    anything. Leaving the block before `done`, by a fault or an interrupt,
    kills the child (SIGKILL) and reaps it without waiting for its work."""
    try:
        pid = os.fork()
    except OSError:  # a process limit, or no memory for one more process
        pid = None
    if pid == 0:  # the child never returns into the caller's stack
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    status = []

    def done():
        if pid is not None and not status:
            status.append(os.waitpid(pid, 0)[1])
        return status == [0]

    try:
        yield done
    finally:
        if pid is not None and not status:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _check(name, value, rule):
    """Raise ConfigError `<name> must be <rule>, got <value>` unless value obeys
    rule: an interval such as "(0, 0.5]", in which no NaN lies, or a tuple of
    the allowed values."""
    if isinstance(rule, str):
        lo, hi = (float(bound) for bound in rule[1:-1].split(","))
        ok = ((lo <= value) if rule[0] == "[" else (lo < value)) and (
            (value <= hi) if rule[-1] == "]" else (value < hi))
        rule = f"in {rule}"
    else:
        ok = value in rule
        rule = ("one of " if len(rule) > 1 else "") + ", ".join(map(str, rule))
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value}")


def _setting(default, rule):
    """A config dataclass field: its default, and the `_check` rule that
    `_check_fields` holds it to."""
    return field(default=default, metadata={"rule": rule})


def _check_fields(config):
    """`_check` each field of a config dataclass that `_setting` gave a rule."""
    for f in fields(config):
        if "rule" in f.metadata:
            _check(f.name, getattr(config, f.name), f.metadata["rule"])


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

    def apply(self, x):
        """z-score of x as a fresh array, C-contiguous whatever the layout of x."""
        out = np.subtract(x, self.mean, dtype=np.float64, order="C")
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
    lines stream into one `np.loadtxt` call. A file of at least FORK_BYTES,
    read by a process that may use more than one CPU, is parsed by two
    processes: a child made with `os.fork` parses the data lines that start
    past the middle byte while this process parses the ones before, and
    this process reads the child's rows into the tail of its own array. The
    values, the metadata and the error are those of one process, bit for
    bit: if the child fails for any reason, this process parses its lines
    itself. Faults name their `path:line:`: first the first quote,
    cell-count, timestamp or unparseable cell in file order, then the first
    negative or non-finite value.

    No task of `model._helper`'s thread is in flight while this runs (each
    is waited for before the call that submitted it returns), so the child
    forks from an idle process and touches no lock that thread holds.
    """
    timestamps, linenos = [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # csv.writer may quote node ids, so the header goes through csv
            reader = csv.reader(fh)
            node_ids = _node_ids(path, next(reader, None))
            head, n = reader.line_num, len(node_ids)
            split = _split(path, head)
            if split is None:  # one process
                values = _load(path, _data_lines(path, fh, head, n, timestamps,
                                                 linenos), n, linenos)
            else:
                values = _load_halves(path, fh, head, split, n, timestamps, linenos)
    # UnicodeDecodeError is a ValueError, and so is DataError
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not (np.isfinite(values).all() and (values >= 0).all()):
        row, col = np.argwhere(~np.isfinite(values) | (values < 0))[0]
        if np.isfinite(values[row, col]):
            raise DataError(f"{path}:{linenos[row]}: negative reading "
                            f"{float(values[row, col])}")
        raise DataError(f"{path}:{linenos[row]}: non-finite value "
                        f"{_cell(path, linenos[row], col + 1)!r}")
    return _series(path, values, timestamps, linenos, node_ids)


def _load(path, lines, n, linenos):
    """The [rows x n] values of `_data_lines` through one `np.loadtxt` call;
    `linenos` holds the line numbers of any rows before them."""
    skip = len(linenos)
    try:
        with warnings.catch_warnings():  # a header-only file is no data
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(lines, delimiter=",", usecols=range(1, n + 1),
                              dtype=np.float64, comments=None, ndmin=2)
    except (UnicodeDecodeError, DataError):
        raise
    except ValueError as exc:
        # loadtxt pulls a line only after converting the one before, so this
        # is the first unparseable cell in file order; every line it gets has
        # the right cell count, so a failed conversion is its only ValueError
        row, col = map(int, _LOADTXT_AT.search(str(exc)).groups())
        lineno = linenos[skip + row]
        raise DataError(f"{path}:{lineno}: bad value "
                        f"{_cell(path, lineno, col - 1)!r}") from None


def _split(path, head):
    """(start, split): the byte offsets of the data lines and of the first
    line that starts past the middle byte, where a child process takes over,
    for a file past its `head` header lines; None to parse in one process:
    below FORK_BYTES, on one CPU, or when no data line starts there."""
    size = os.path.getsize(path)
    if not _forks(size):
        return None
    with open(path, "rb") as fh:
        start, split = _past_breaks(fh, 0, head), _past_breaks(fh, size // 2, 1)
    if start is None or split is None or not start < split < size:
        return None
    return start, split


def _past_breaks(fh, at, count):
    """The offset just past the `count`-th line break from byte `at` of a
    binary file, or None when the file ends first."""
    fh.seek(at)
    block = b""
    while True:
        more = fh.read(1 << 16)
        block += more
        ends = [m.end() for m in itertools.islice(_LINE_BREAK.finditer(block), count)]
        # a "\r" at the end of the block may begin a "\r\n"
        if len(ends) == count and (ends[-1] < len(block) or not more):
            return at + ends[-1]
        if not more:
            return None


def _load_halves(path, fh, head, bounds, n, timestamps, linenos):
    """`_load` of `fh`'s data lines in two processes, split at the byte
    offsets (start, split) of `_split`: a `_second_process` parses the lines
    from `split` on and sends them down a pipe (`_send_half`), while this
    process parses the lines before and then reads the child's rows into its
    own array, enlarged in place. If the child fails, this process parses
    its lines too."""
    start, split = bounds
    r, w = os.pipe()

    def send():
        os.close(r)
        _send_half(path, split, n, w)

    with _second_process(send) as done:
        os.close(w)
        with open(r, "rb") as pipe:
            counted = []
            lines = _lines_before(fh, start, split, counted)
            values = _load(path, _data_lines(path, lines, head, n, timestamps, linenos),
                           n, linenos)
            rows = len(values)
            half = _receive_half(pipe, values)
        sent = done() and half is not None
    lineno = head + counted[0]
    if sent:
        first, step, offsets = half
        timestamps += [first[0] + k * step for k in range(len(offsets))]
        linenos += [lineno + offset for offset in offsets]
        return values
    rest = _load(path, _data_lines(path, fh, lineno, n, timestamps, linenos), n, linenos)
    return np.concatenate((values[:rows], rest))


def _lines_before(fh, pos, stop, count):
    """Yield the lines of text file `fh`, now at byte `pos`, that start before
    byte `stop`; then append how many there were to `count`."""
    lines = 0
    for line in fh:
        yield line
        lines += 1
        pos += len(line) if line.isascii() else len(line.encode("utf-8"))
        if pos >= stop:
            break
    count.append(lines)


def _send_half(path, split, n, w):
    """In the child: parse the data lines from byte `split` on, and write to
    pipe `w` a pickle of the first timestamp, the step and the line offsets
    (1 for the first line), then the raw rows. The first timestamp and the
    step stand for the others, written alike, when every step is the same
    and no UTC offset changes; a half where one does, or where a naive and
    an aware timestamp meet (they do not subtract), sends nothing, and the
    parent parses it itself."""
    timestamps, offsets = [], []
    with open(path, "rb") as raw:
        raw.seek(split)
        lines = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        values = _load(path, _data_lines(path, lines, 0, n, timestamps, offsets),
                       n, offsets)
    step = timestamps[1] - timestamps[0] if len(timestamps) > 1 else timedelta(0)
    if any(t - u != step or t.utcoffset() != u.utcoffset()
           for u, t in zip(timestamps, timestamps[1:])):
        return
    with open(w, "wb") as pipe:
        pickle.dump((timestamps[:1], step, offsets), pipe, pickle.HIGHEST_PROTOCOL)
        pipe.write(values)


def _receive_half(pipe, values):
    """The child's (first timestamp, step, line offsets) from `pipe`, with its
    rows read into `values`, enlarged in place; None when the child sent
    less."""
    try:
        first, step, offsets = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None
    own = len(values)
    # loadtxt's array is this call's alone, so no other view sees it move
    values.resize((own + len(offsets), values.shape[1]), refcheck=False)
    if pipe.readinto(values[own:]) != values[own:].nbytes:
        return None
    return first, step, offsets


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
    significant digits, so they read back bit for bit. Rows stream to a
    temporary file that is renamed over `path` (`atomic_write_pieces`).

    An output of at least FORK_BYTES (its first row times the row count),
    written by a process that may use more than one CPU, is formatted by two
    processes, as `ingest_csv` reads one: a `_second_process` formats the
    rows from the middle one on into an unnamed temporary file beside `path`
    while this process writes the header and the rows before, then appends
    the child's file in 64 KB reads. The bytes are those of one process: if
    the child fails, or no child can be made, this process formats its rows
    itself. A fault or an interrupt in this process's half kills the child,
    and neither temporary file is left. The child's memory is in neither
    this process's `ru_maxrss` nor its VmHWM.
    """
    header = io.StringIO()
    csv.writer(header).writerow(["timestamp"] + list(series.node_ids))
    head = header.getvalue().encode("utf-8")
    total, mid = series.total_steps, series.total_steps // 2
    if not (mid and _forks(len(head) + len(next(_csv_rows(series, 0, 1))) * total)):
        atomic_write_pieces(path, itertools.chain([head], _csv_rows(series, 0, total)))
        return

    def write_tail():
        tail.writelines(_csv_rows(series, mid, total))
        tail.flush()  # os._exit flushes nothing

    def pieces():
        yield head
        yield from _csv_rows(series, 0, mid)
        if done():
            tail.seek(0)
            yield from iter(lambda: tail.read(1 << 16), b"")
        else:
            yield from _csv_rows(series, mid, total)

    with (tempfile.TemporaryFile(dir=os.path.dirname(os.fspath(path)) or ".") as tail,
          _second_process(write_tail) as done):
        atomic_write_pieces(path, pieces())


def _csv_rows(series, lo, hi):
    """Yield the encoded CSV lines of steps [lo, hi) of a series, one at a
    time."""
    t0 = datetime(2024, 1, 1) + timedelta(  # a Monday
        days=series.start_dow, minutes=series.start_slot * series.interval_minutes)
    step = timedelta(minutes=series.interval_minutes)
    # the csv module would quote none of these fields: ISO timestamps and %g
    # numbers hold no comma, quote or line break
    row_format = "%s," + ",".join(["%.17g"] * series.num_nodes) + "\r\n"
    for s in range(lo, hi):
        yield (row_format % ((t0 + s * step).isoformat(),
                             *series.values[s].tolist())).encode()


def check_ratios(ratios):
    """Raise ConfigError unless ratios are three positive fractions summing to 1."""
    _check("ratios count", len(ratios), (3,))
    for part in ratios:
        _check("each of the ratios", part, "(0, 1)")
    _check("ratios sum", sum(ratios), "[0.999999999, 1.000000001]")


def split_chronological(series: TrafficSeries, ratios=RATIOS):
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


def make_windows(series: TrafficSeries, step_range, l1, l2) -> Windows:
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
    """The slot-0-aligned complete days inside the range as a [D x N x T]
    read-only view of the series values, like make_windows' arrays.

    Misaligned head and tail steps are dropped, never padded.
    """
    lo, hi = step_range
    T = series.steps_per_day
    first = lo + (-(series.start_slot + lo)) % T
    days = (hi - first) // T
    if days < 1:
        raise DataError(f"no complete day in range [{lo}, {hi})")
    data = series.values[first : first + days * T].reshape(days, T, series.num_nodes)
    data.flags.writeable = False
    return data.transpose(0, 2, 1)
