import csv
import io
import math
import re
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpca import dataset
from stpca.dataset import (ConfigError, DataError, Normalizer, TrafficSeries,
                           fit_normalizer, ingest_csv, make_windows, split_chronological,
                           to_day_tensor, write_series_csv)
from stpca.transfer import split_adaptation


def make_series(total_steps, n_nodes=3, steps_per_day=288, start_slot=0,
                start_dow=0, values=None):
    if values is None:
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 100.0, size=(total_steps, n_nodes))
    return TrafficSeries(
        values=values,
        steps_per_day=steps_per_day,
        start_slot=start_slot,
        start_dow=start_dow,
        node_ids=[f"node_{i}" for i in range(n_nodes)],
    )


def write_csv(path, rows, header="timestamp,node_0,node_1,node_2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def csv_rows(n, start="2024-01-01T00:00:00", minutes=5, n_nodes=3, value=1.0):
    t0 = datetime.fromisoformat(start)
    return [
        (t0 + timedelta(minutes=minutes * i)).isoformat()
        + "," + ",".join(str(value) for _ in range(n_nodes))
        for i in range(n)
    ]


class TestTrafficSeries:
    @pytest.mark.parametrize("steps_per_day", [0, 7, -1])
    def test_steps_per_day_must_divide_a_day(self, steps_per_day):
        with pytest.raises(DataError, match="must divide a day"):
            make_series(24, steps_per_day=steps_per_day)


class TestIngest:
    def test_basic_metadata(self, tmp_path):
        p = tmp_path / "flow.csv"
        write_csv(p, csv_rows(576))
        s = ingest_csv(p)
        assert s.num_nodes == 3
        assert s.steps_per_day == 288
        assert s.total_steps == 576
        assert s.interval_minutes == 5
        assert s.start_slot == 0
        assert s.start_dow == 0  # 2024-01-01 is a Monday

    def test_start_metadata_from_timestamp(self, tmp_path):
        p = tmp_path / "flow.csv"
        write_csv(p, csv_rows(300, start="2024-01-03T01:30:00"))
        s = ingest_csv(p)
        assert s.start_slot == 18  # 90 minutes / 5
        assert s.start_dow == 2  # Wednesday

    def test_negative_value_rejected(self, tmp_path):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[10] = rows[10].rsplit(",", 1)[0] + ",-1"
        write_csv(p, rows)
        with pytest.raises(DataError, match="negative reading"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, cell):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[10] = rows[10].rsplit(",", 1)[0] + "," + cell
        write_csv(p, rows)
        with pytest.raises(DataError,
                           match=rf"flow.csv:12: non-finite value '{cell}'$"):
            ingest_csv(p)

    def test_less_than_one_day(self, tmp_path):
        p = tmp_path / "flow.csv"
        write_csv(p, csv_rows(100))
        with pytest.raises(DataError, match="less than one day"):
            ingest_csv(p)

    def test_non_uniform_interval(self, tmp_path):
        p = tmp_path / "flow.csv"
        rows = csv_rows(575) + ["2024-01-03T00:00:00,1,1,1"]
        write_csv(p, rows)
        with pytest.raises(DataError, match="non-uniform interval"):
            ingest_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[5] = rows[5] + ",9"
        write_csv(p, rows)
        with pytest.raises(DataError, match="ragged row"):
            ingest_csv(p)

    def test_empty_cells_become_zero(self, tmp_path):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[7] = rows[7].rsplit(",", 2)[0] + ",,"
        write_csv(p, rows)
        s = ingest_csv(p)
        assert s.values[7, 1] == 0.0 and s.values[7, 2] == 0.0

    def test_repeated_node_id_rejected(self, tmp_path):
        p = tmp_path / "flow.csv"
        write_csv(p, csv_rows(576), header="timestamp,a,b,a")
        with pytest.raises(DataError, match=r"flow.csv:1: repeated node id 'a'$"):
            ingest_csv(p)

    def test_mixed_utc_offsets_rejected_with_line(self, tmp_path):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[3] = rows[3].replace(",", "+01:00,", 1)
        write_csv(p, rows)
        with pytest.raises(DataError, match=r"flow.csv:5: timestamp .* mixes naive "
                                            "and UTC-offset forms$"):
            ingest_csv(p)

    def test_line_numbers_are_physical_lines(self, tmp_path):
        # a quoted node id holding a newline spans lines 1 and 2, so the
        # record of rows[5] is on line 8
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[5] = rows[5].rsplit(",", 1)[0] + ",-2.0"
        write_csv(p, rows, header='timestamp,"node\n0",node_1,node_2')
        with pytest.raises(DataError, match=r"flow.csv:8: negative reading -2.0$"):
            ingest_csv(p)

    @pytest.mark.parametrize("line", [1, 4, 500])
    def test_not_utf8_names_path_and_line(self, tmp_path, line):
        # line 500 lies beyond the first chunk a text-mode reader decodes
        p = tmp_path / "flow.csv"
        text = "timestamp,node_0,node_1,node_2\r\n" + "\r\n".join(csv_rows(576))
        lines = text.encode("utf-8").split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError,
                           match=rf"flow.csv:{line}: not UTF-8 text \(byte 0xff\)$"):
            ingest_csv(p)

    def test_plain_file_reads_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63 - 2**52, size=(300, 3), dtype=np.int64)
        values = bits.view(np.float64)  # every finite non-negative bit pattern
        values[:2] = np.abs(EDGE_VALUES[:6]).reshape(2, 3)
        p = tmp_path / "flow.csv"
        write_series_csv(make_series(300, values=values), p)
        assert ingest_csv(p).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("cell", ["", '"1.5"', '"1\n"', '""', "1_0", "nan", "-2"])
    def test_anomalous_cell_gives_its_error(self, tmp_path, cell):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[7] = rows[7].rsplit(",", 1)[0] + "," + cell
        write_csv(p, rows)
        # a quoted cell holding a newline is rejected at its first line
        quoted = "quoted cells are not supported"
        error = {"": None,  # an empty cell reads as 0
                 '"1.5"': quoted, '"1\n"': quoted, '""': quoted,
                 "1_0": "bad value '1_0'",
                 "nan": "non-finite value 'nan'",
                 "-2": "negative reading -2.0"}[cell]
        if error is None:
            assert ingest_csv(p).values[7].tolist() == [1.0, 1.0, 0.0]
        else:
            with pytest.raises(DataError, match=rf"flow.csv:9: {re.escape(error)}$"):
                ingest_csv(p)

    @pytest.mark.parametrize("row", ["{ts},,2,3", "{ts},1,,3", "{ts},1,2,",
                                     "{ts}, ,2,3", "{ts},1,\t ,3", "{ts},1,2, "])
    @pytest.mark.parametrize("last", [False, True])
    def test_blank_cell_reads_as_zero(self, tmp_path, row, last):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        at = len(rows) - 1 if last else 7
        rows[at] = row.format(ts=rows[at].split(",", 1)[0])
        write_csv(p, rows)
        if last:  # no line ending after the blank cell
            p.write_bytes(p.read_bytes().rstrip(b"\r\n"))
        expected = [float(c) if c.strip() else 0.0 for c in row.split(",")[1:]]
        values = ingest_csv(p).values
        assert values[at].tolist() == expected
        assert (np.delete(values, at, axis=0) == 1.0).all()

    def test_parse_fault_before_value_fault(self, tmp_path):
        # the first unparseable line wins over an earlier non-finite value
        p = tmp_path / "flow.csv"
        rows = csv_rows(576)
        rows[0] = rows[0].rsplit(",", 1)[0] + ",nan"
        rows.insert(1, " ")
        write_csv(p, rows)
        with pytest.raises(DataError,
                           match=r"flow.csv:3: ragged row \(1 cells, expected 4\)$"):
            ingest_csv(p)

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "flow.csv"
        write_csv(p, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="need at least two rows"):
                ingest_csv(p)

    def test_series_roundtrip_through_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        src = make_series(300, steps_per_day=288, start_slot=100, start_dow=4,
                          values=rng.uniform(0, 50, size=(300, 3)))
        p = tmp_path / "out.csv"
        write_series_csv(src, p)
        back = ingest_csv(p)
        assert back.start_slot == src.start_slot
        assert back.start_dow == src.start_dow
        np.testing.assert_array_equal(back.values, src.values)


# 4 rows a day, so a valid file needs only 4 rows
INTERVAL = timedelta(minutes=360)
ODD_CELLS = ["", " ", '"7.5"', '"1,5"', " 2.5 ", "\t3\x0b", "1_0", "nan", "inf",
             "-inf", "-1", "-0", "1e308", "1e309", "5e-324", "0x10", "abc", "\uff11",
             "1\x002", "+4", ".5", "7.", "\x0b", "\xa03"]


def value_text(v, style):
    return {"repr": repr(v), "g17": "%.17g" % v, "f3": "%.3f" % v,
            "int": str(int(v))}[style]


@st.composite
def csv_texts(draw):
    """A series CSV: mostly valid, with a few cells, rows or lines made odd."""
    n = draw(st.integers(1, 3))
    ids = [f"n{i}" for i in range(n)]
    if draw(st.integers(0, 9)) == 0:
        ids[-1] = ids[0]
    header = ",".join(["timestamp"] + ids)
    if draw(st.integers(0, 19)) == 0:
        header = '"timestamp",' + ",".join(ids)
    t0 = datetime(2024, 1, draw(st.integers(1, 7)), 6 * draw(st.integers(0, 3)))
    offset = draw(st.sampled_from(["", "+01:00"]))
    rows = []
    for i in range(draw(st.integers(4, 6))):
        cells = [(t0 + i * INTERVAL).isoformat() + offset]
        for _ in range(n):
            v = draw(st.floats(0, 1e6) | st.floats(0, 1e308))
            cells.append(value_text(v, draw(st.sampled_from(["repr", "g17", "f3",
                                                             "int"]))))
        rows.append(cells)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "pad", "extra",
                                     "missing", "offset", "timestamp"]))
        c = draw(st.integers(0, len(rows[r]) - 1))
        if kind == "cell" and c > 0:
            rows[r][c] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "pad":
            rows[r][c] = " " + rows[r][c] + "  "
        elif kind == "extra":
            rows[r].append("9")
        elif kind == "missing":
            rows[r].pop()
        elif kind == "offset":
            rows[r][0] = (t0 + r * INTERVAL).isoformat() + "-05:00"
        elif kind == "timestamp":
            rows[r][0] = draw(st.sampled_from(["", "not-a-time", "2024-13-01"]))
    lines = [header] + [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", "", "", " ", ","])))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def read_rows(path):
    """Reference reader for ingest_csv: csv.reader rows, float() per cell.

    It shares only the header, time-axis and UTF-8 checks with ingest_csv
    and states the data-cell contract directly: a data line holding a quote
    is rejected, `1_0` and non-ASCII digits are bad values (float() reads
    them, np.loadtxt does not), and negative and non-finite values are
    reported only once every line has parsed.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = csv.reader(fh)
            node_ids = dataset._node_ids(path, next(header, None))
            reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
            timestamps, linenos, rows, cells = [], [], [], []
            for row in reader:
                lineno = header.line_num + reader.line_num
                if not row:
                    continue
                if any('"' in cell for cell in row):
                    raise DataError(f"{path}:{lineno}: quoted cells are not supported")
                if len(row) != len(node_ids) + 1:
                    raise DataError(
                        f"{path}:{lineno}: ragged row ({len(row)} cells, "
                        f"expected {len(node_ids) + 1})"
                    )
                try:
                    ts = datetime.fromisoformat(row[0].strip())
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
                vals = []
                for cell in row[1:]:
                    cell = cell.strip(" \t")
                    if cell == "":
                        vals.append(0.0)
                        continue
                    try:
                        if "_" in cell or not cell.strip().isascii():
                            raise ValueError(cell)
                        vals.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: bad value {cell!r}") from None
                timestamps.append(ts)
                linenos.append(lineno)
                rows.append(vals)
                cells.append([cell.strip(" \t") for cell in row[1:]])
    except UnicodeDecodeError:
        raise dataset._not_utf8(path) from None
    for vals, row, lineno in zip(rows, cells, linenos):
        for v, cell in zip(vals, row):
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
            if v < 0:
                raise DataError(f"{path}:{lineno}: negative reading {v}")
    return dataset._series(path, np.array(rows, dtype=np.float64), timestamps,
                           linenos, node_ids)


def outcome(read, path):
    """What a reader returns for a file: the series fields or the error text."""
    try:
        s = read(path)
    except DataError as exc:
        return str(exc)
    return (s.values.tobytes(), s.values.shape, s.interval_minutes,
            s.steps_per_day, s.start_slot, s.start_dow, s.node_ids)


class TestIngestFastPath:
    """ingest_csv against read_rows, the cell-by-cell reference reader."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts())
    def test_same_series_or_same_error_as_row_loop(self, tmp_path, text):
        p = tmp_path / "flow.csv"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(ingest_csv, p) == outcome(read_rows, p)

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_one_odd_cell_same_as_row_loop(self, tmp_path, cell):
        p = tmp_path / "flow.csv"
        rows = csv_rows(576, value=2.5)
        rows[9] = rows[9].rsplit(",", 2)[0] + "," + cell + ",3"
        write_csv(p, rows)
        assert outcome(ingest_csv, p) == outcome(read_rows, p)

    @pytest.mark.parametrize("cell", ["1.5", ""])  # a plain line, a blank cell
    def test_byte_order_mark_is_skipped(self, tmp_path, cell):
        # Excel's "CSV UTF-8" export starts the file with the bytes EF BB BF
        rows = csv_rows(576, value=2.5)
        rows[3] = rows[3].rsplit(",", 1)[0] + "," + cell
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for read in (ingest_csv, read_rows):
            expected = outcome(read, plain)
            assert isinstance(expected, tuple)
            assert outcome(read, marked) == expected


def per_cell_csv(series):
    """The per-cell csv.writer form of write_series_csv, as reference."""
    t0 = datetime(2024, 1, 1) + timedelta(
        days=series.start_dow, minutes=series.start_slot * series.interval_minutes)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["timestamp"] + list(series.node_ids))
    for s in range(series.total_steps):
        ts = (t0 + s * timedelta(minutes=series.interval_minutes)).isoformat()
        writer.writerow([ts] + [f"{v:.17g}" for v in series.values[s]])
    return buf.getvalue().encode("utf-8")


EDGE_VALUES = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e-310, 1e308,
               1.7976931348623157e308, 1.0, 3.0, 12345678901234567.0, 2.0 ** 53 + 2,
               0.1, 1 / 3]


class TestWriteSeriesCsv:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 6), st.data())
    def test_bytes_match_per_cell_writer(self, tmp_path, n, start_slot, start_dow,
                                         data):
        steps = data.draw(st.integers(4, 9))
        values = data.draw(st.lists(
            st.sampled_from(EDGE_VALUES) | st.floats(0, 1e308)
            | st.integers(0, 10 ** 6).map(float),
            min_size=steps * n, max_size=steps * n))
        series = make_series(steps, n_nodes=n, steps_per_day=4,
                             start_slot=start_slot, start_dow=start_dow,
                             values=np.array(values).reshape(steps, n))
        p = tmp_path / "out.csv"
        write_series_csv(series, p)
        assert p.read_bytes() == per_cell_csv(series)
        back = ingest_csv(p)
        assert back.values.tobytes() == series.values.tobytes()


class TestSplit:
    def test_exact_division(self):
        s = make_series(10, steps_per_day=5)
        assert split_chronological(s, (0.6, 0.2, 0.2)) == ((0, 6), (6, 8), (8, 10))

    def test_floor_remainder_to_test(self):
        s = make_series(11, steps_per_day=5)
        assert split_chronological(s, (0.6, 0.2, 0.2)) == ((0, 6), (6, 8), (8, 11))

    def test_empty_split_rejected(self):
        s = make_series(2, steps_per_day=2)
        with pytest.raises(DataError, match="empty split"):
            split_chronological(s, (0.6, 0.2, 0.2))

    def test_bad_ratios(self):
        s = make_series(10, steps_per_day=5)
        for ratios in ((0.5, 0.2, 0.2), (0.5, 0.5, float("nan")),
                       (float("nan"), 0.5, 0.5)):
            with pytest.raises(ConfigError, match="ratios"):
                split_chronological(s, ratios)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(10, 2000))
            s = make_series(n, steps_per_day=5) if n >= 5 else None
            ranges = split_chronological(s, (0.6, 0.2, 0.2))
            assert ranges[0][0] == 0 and ranges[2][1] == n
            assert ranges[0][1] == ranges[1][0] and ranges[1][1] == ranges[2][0]


class TestNormalizer:
    def test_hand_computed(self):
        vals = np.array([[2.0], [4.0], [6.0], [8.0]])
        s = make_series(4, n_nodes=1, steps_per_day=2, values=vals)
        norm = fit_normalizer(s, (0, 4))
        assert norm.mean == 5.0
        assert math.isclose(norm.std, math.sqrt(5), rel_tol=1e-12)
        assert math.isclose(norm.apply(2.0), -3 / math.sqrt(5), rel_tol=1e-12)
        assert math.isclose(norm.apply(2.0), -1.34164, abs_tol=5e-6)
        # zeros mark missing cells, and they count in the statistics
        vals = np.array([[0.0], [4.0], [0.0], [8.0]])
        s = make_series(4, n_nodes=1, steps_per_day=2, values=vals)
        assert fit_normalizer(s, (0, 4)).mean == 3.0

    def test_zero_variance(self):
        vals = np.full((4, 1), 7.0)
        s = make_series(4, n_nodes=1, steps_per_day=2, values=vals)
        with pytest.raises(DataError, match="zero variance"):
            fit_normalizer(s, (0, 4))

    def test_apply_invert_identity(self):
        rng = np.random.default_rng(2)
        norm = Normalizer(mean=13.7, std=4.2)
        x = rng.normal(size=(50, 7)) * 100
        np.testing.assert_allclose(norm.invert(norm.apply(x)), x, atol=1e-12)


class TestWindows:
    def test_counts(self):
        s = make_series(30, steps_per_day=10)
        assert len(make_windows(s, (0, 30), 12, 12)) == 7
        assert len(make_windows(s, (0, 24), 12, 12)) == 1
        with pytest.raises(DataError, match="too short"):
            make_windows(s, (0, 23), 12, 12)

    def test_history_precedes_target(self):
        s = make_series(40, steps_per_day=10)
        ws = make_windows(s, (5, 35), 12, 12)
        np.testing.assert_array_equal(ws.history[0], s.values[5:17].T)
        np.testing.assert_array_equal(ws.target[0], s.values[17:29].T)

    def test_tod_dow_of_first_target_step(self):
        s = make_series(60, steps_per_day=10, start_slot=7, start_dow=3)
        ws = make_windows(s, (0, 30), 4, 4)
        # first target step is absolute step 4 -> slot (7+4)%10, one day not yet crossed
        assert ws.tod[0] == 1
        assert ws.dow[0] == 4

    def test_no_cross_split_leakage(self):
        s = make_series(100, steps_per_day=10)
        ranges = split_chronological(s, (0.6, 0.2, 0.2))
        # boundary windows of train end exactly at the split edge
        train_ws = make_windows(s, ranges[0], 4, 4)
        np.testing.assert_array_equal(train_ws.target[-1],
                                      s.values[ranges[0][1] - 4 : ranges[0][1]].T)


SENTINEL = 1e9  # marks every value outside the windowed range


@st.composite
def window_cases(draw):
    """A series, a step range inside it and window lengths that fit the range."""
    steps_per_day = draw(st.sampled_from([2, 3, 4, 12, 24, 48]))
    l1, l2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    total = draw(st.integers(max(steps_per_day, l1 + l2), 120))
    lo = draw(st.integers(0, total - l1 - l2))
    hi = draw(st.integers(lo + l1 + l2, total))
    series = make_series(total, n_nodes=draw(st.integers(1, 5)),
                         steps_per_day=steps_per_day,
                         start_slot=draw(st.integers(0, steps_per_day - 1)),
                         start_dow=draw(st.integers(0, 6)))
    series.values[:lo] = SENTINEL
    series.values[hi:] = SENTINEL
    return series, (lo, hi), l1, l2


class TestWindowProperties:
    @settings(max_examples=150, deadline=None)
    @given(window_cases())
    def test_windows_are_series_slices(self, case):
        series, (lo, hi), l1, l2 = case
        ws = make_windows(series, (lo, hi), l1, l2)
        assert len(ws) == hi - lo - l1 - l2 + 1
        assert ws.history.shape == (len(ws), series.num_nodes, l1)
        assert ws.target.shape == (len(ws), series.num_nodes, l2)
        for i in range(len(ws)):
            t_first = lo + i + l1
            np.testing.assert_array_equal(ws.history[i],
                                          series.values[lo + i : t_first].T)
            np.testing.assert_array_equal(ws.target[i],
                                          series.values[t_first : t_first + l2].T)
            assert ws.tod[i] == series.slot_of(t_first)
            assert ws.dow[i] == series.dow_of(t_first)

    @settings(max_examples=150, deadline=None)
    @given(window_cases())
    def test_windows_stay_inside_range(self, case):
        series, step_range, l1, l2 = case
        ws = make_windows(series, step_range, l1, l2)
        assert (ws.history < SENTINEL).all()
        assert (ws.target < SENTINEL).all()

    @settings(max_examples=50, deadline=None)
    @given(window_cases())
    def test_windows_are_read_only_views(self, case):
        series, step_range, l1, l2 = case
        ws = make_windows(series, step_range, l1, l2)
        for arr in (ws.history, ws.target):
            assert np.shares_memory(arr, series.values)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0


def assert_days_are(z, series, starts):
    """z is the [D x N x T] tensor of the days that begin at `starts`."""
    T = series.steps_per_day
    assert z.shape == (len(starts), series.num_nodes, T)
    for day, start in zip(z, starts):
        np.testing.assert_array_equal(day, series.values[start : start + T].T)


class TestDayTensor:
    def test_two_exact_days(self):
        s = make_series(576)
        z = to_day_tensor(s, (0, 576))
        assert z.shape == (2, 3, 288)

    def test_misaligned_head_tail_dropped(self):
        s = make_series(676)
        z = to_day_tensor(s, (100, 676))
        assert whole_days_in(s, 100, 676) == [288]
        assert_days_are(z, s, [288])

    def test_no_complete_day(self):
        s = make_series(300)
        with pytest.raises(DataError, match="no complete day"):
            to_day_tensor(s, (10, 200))

    def test_nonzero_start_slot_alignment(self):
        s = make_series(600, steps_per_day=288, start_slot=100)
        z = to_day_tensor(s, (0, 600))
        # step 188 is the first slot-0 step
        assert whole_days_in(s, 0, 600) == [188]
        assert_days_are(z, s, [188])

    def test_roundtrip_values(self):
        s = make_series(600)
        z = to_day_tensor(s, (0, 600))
        starts = whole_days_in(s, 0, 600)
        flat = z.transpose(0, 2, 1).reshape(-1, s.num_nodes)
        np.testing.assert_array_equal(flat, s.values[starts[0] : starts[-1] + 288])


@st.composite
def day_cases(draw):
    """A series with any start slot/day and a step range inside it."""
    steps_per_day = draw(st.sampled_from([1, 2, 3, 4, 12, 24, 48]))
    total = draw(st.integers(steps_per_day, 4 * steps_per_day + 10))
    lo = draw(st.integers(0, total - 1))
    hi = draw(st.integers(lo + 1, total))
    series = make_series(total, n_nodes=draw(st.integers(1, 4)),
                         steps_per_day=steps_per_day,
                         start_slot=draw(st.integers(0, steps_per_day - 1)),
                         start_dow=draw(st.integers(0, 6)))
    return series, (lo, hi)


def whole_days_in(series, lo, hi):
    """Oracle by enumeration: the slot-0 starts s in [lo, hi) with s + T <= hi."""
    T = series.steps_per_day
    return [s for s in range(lo, hi) if series.slot_of(s) == 0 and s + T <= hi]


class TestDayAlignmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(day_cases())
    def test_day_tensor_holds_every_whole_day(self, case):
        series, (lo, hi) = case
        starts = whole_days_in(series, lo, hi)
        if not starts:
            with pytest.raises(DataError, match="no complete day"):
                to_day_tensor(series, (lo, hi))
            return
        assert_days_are(to_day_tensor(series, (lo, hi)), series, starts)

    @settings(max_examples=200, deadline=None)
    @given(day_cases(), st.floats(0.01, 0.5))
    def test_adaptation_boundary_is_a_day_edge(self, case, fraction):
        series, _ = case
        T = series.steps_per_day
        raw_end = math.floor(fraction * series.total_steps)
        if not whole_days_in(series, 0, raw_end):
            with pytest.raises(DataError, match="lacks a full day"):
                split_adaptation(series, fraction)
            return
        (a_lo, boundary), (e_lo, e_hi) = split_adaptation(series, fraction)
        assert a_lo == 0 and e_lo == boundary and e_hi == series.total_steps
        assert series.slot_of(boundary) == 0
        assert boundary <= raw_end < boundary + T
        assert boundary < e_hi
        starts = whole_days_in(series, a_lo, boundary)
        assert starts[-1] + T == boundary
        assert_days_are(to_day_tensor(series, (a_lo, boundary)), series, starts)
