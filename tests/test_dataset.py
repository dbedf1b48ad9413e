import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.dataset import (DataError, Normalizer, TrafficSeries, fit_normalizer,
                           ingest_csv, make_windows, split_chronological,
                           to_day_tensor, write_series_csv)
from stpca.transfer import split_adaptation


def make_series(total_steps, n_nodes=3, steps_per_day=288, start_slot=0,
                start_dow=0, values=None):
    if values is None:
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 100.0, size=(total_steps, n_nodes))
    return TrafficSeries(
        values=values,
        interval_minutes=1440 // steps_per_day,
        steps_per_day=steps_per_day,
        start_slot=start_slot,
        start_dow=start_dow,
        node_ids=[f"node_{i}" for i in range(n_nodes)],
    )


def write_csv(path, rows, header="timestamp,node_0,node_1,node_2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def csv_rows(n, start="2024-01-01T00:00:00", minutes=5, n_nodes=3, value=1.0):
    from datetime import datetime, timedelta
    t0 = datetime.fromisoformat(start)
    return [
        (t0 + timedelta(minutes=minutes * i)).isoformat()
        + "," + ",".join(str(value) for _ in range(n_nodes))
        for i in range(n)
    ]


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
        with pytest.raises(DataError):
            split_chronological(s, (0.5, 0.2, 0.2))

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

    def test_exclude_zeros_option(self):
        vals = np.array([[0.0], [4.0], [0.0], [8.0]])
        s = make_series(4, n_nodes=1, steps_per_day=2, values=vals)
        with_zeros = fit_normalizer(s, (0, 4))
        without = fit_normalizer(s, (0, 4), include_zeros=False)
        assert with_zeros.mean == 3.0
        assert without.mean == 6.0


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


class TestDayTensor:
    def test_two_exact_days(self):
        s = make_series(576)
        z = to_day_tensor(s, (0, 576))
        assert z.data.shape == (2, 3, 288)

    def test_misaligned_head_tail_dropped(self):
        s = make_series(676)
        z = to_day_tensor(s, (100, 676))
        assert z.data.shape == (1, 3, 288)
        assert z.step_range == (288, 576)
        np.testing.assert_array_equal(z.data[0], s.values[288:576].T)

    def test_no_complete_day(self):
        s = make_series(300)
        with pytest.raises(DataError, match="no complete day"):
            to_day_tensor(s, (10, 200))

    def test_nonzero_start_slot_alignment(self):
        s = make_series(600, steps_per_day=288, start_slot=100)
        z = to_day_tensor(s, (0, 600))
        # step 188 is the first slot-0 step
        assert z.step_range == (188, 476)

    def test_roundtrip_values(self):
        s = make_series(600)
        z = to_day_tensor(s, (0, 600))
        lo, hi = z.step_range
        flat = z.data.transpose(0, 2, 1).reshape(-1, s.num_nodes)
        np.testing.assert_array_equal(flat, s.values[lo:hi])


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
        T = series.steps_per_day
        starts = whole_days_in(series, lo, hi)
        if not starts:
            with pytest.raises(DataError, match="no complete day"):
                to_day_tensor(series, (lo, hi))
            return
        z = to_day_tensor(series, (lo, hi))
        first, end = z.step_range
        assert series.slot_of(first) == 0
        assert (end - first) % T == 0
        assert lo <= first and end <= hi
        assert z.data.shape == (len(starts), series.num_nodes, T)
        assert list(range(first, end, T)) == starts
        for d in range(z.num_days):
            for t in range(T):
                np.testing.assert_array_equal(z.data[d, :, t],
                                              series.values[first + d * T + t])

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
        assert to_day_tensor(series, (a_lo, boundary)).step_range[1] == boundary
