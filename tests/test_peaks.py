import datetime

import numpy as np
import pytest

from attn_peaks import (
    NewsEvent,
    PeakParams,
    detect_events,
    enforce_constraints,
    local_maxima,
    segment_events,
)
from attn_peaks.peaks import detect_peaks
from support import make_series, oracle_peaks, oracle_segments, random_series

D = datetime.date


class TestLocalMaxima:
    def test_constant_series_has_no_maxima(self):
        assert local_maxima(make_series([0, 0, 0])) == []

    def test_two_isolated_maxima(self):
        assert local_maxima(make_series([0, 3, 0, 0, 5, 0])) == [1, 4]

    def test_plateau_yields_midpoint(self):
        assert local_maxima(make_series([0, 4, 4, 4, 0])) == [2]

    def test_even_plateau_midpoint_rounds_down(self):
        assert local_maxima(make_series([0, 4, 4, 0])) == [1]

    def test_boundaries_are_never_candidates(self):
        assert local_maxima(make_series([5, 1, 0])) == []
        assert local_maxima(make_series([0, 1, 5])) == []
        assert local_maxima(make_series([0, 4, 4])) == []
        assert local_maxima(make_series([4, 4, 0])) == []

    def test_dip_between_plateaus(self):
        assert local_maxima(make_series([0, 2, 2, 1, 3, 0])) == [1, 4]

    def test_matches_scipy_reference_on_random_series(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(42)
        for _ in range(200):
            series = random_series(rng, max_len=200)
            expected = scipy_signal.find_peaks(series.counts)[0].tolist()
            assert local_maxima(series) == expected


class TestEnforceConstraints:
    def test_distance_rule_keeps_higher_peak(self):
        series = make_series([0, 3, 0, 0, 5, 0])
        params = PeakParams(min_height=2, min_distance=7)
        assert enforce_constraints([1, 4], series, params) == [4]

    def test_height_threshold_is_inclusive(self):
        series = make_series([0, 2, 0])
        assert enforce_constraints([1], series, PeakParams(2, 7)) == [1]

    def test_below_threshold_is_dropped(self):
        series = make_series([0, 1, 0])
        assert enforce_constraints([1], series, PeakParams(2, 7)) == []

    def test_equal_heights_prefer_later_date(self):
        series = make_series([0, 5, 0, 5, 0])
        params = PeakParams(min_height=2, min_distance=3)
        assert enforce_constraints([1, 3], series, params) == [3]

    def test_distance_of_exactly_min_distance_survives(self):
        series = make_series([0, 5, 0, 0, 0, 5, 0])
        params = PeakParams(min_height=2, min_distance=4)
        assert enforce_constraints([1, 5], series, params) == [1, 5]

    def test_dropped_peak_does_not_shadow_others(self):
        # 9 kills 8 (distance 3); 7 is 6 away from 9 and survives even
        # though it sits within 3 of the dropped 8.
        series = make_series([0, 9, 0, 0, 8, 0, 0, 7, 0])
        params = PeakParams(min_height=2, min_distance=4)
        assert enforce_constraints([1, 4, 7], series, params) == [1, 7]

    def test_params_are_validated(self):
        with pytest.raises(ValueError, match="min_height"):
            PeakParams(min_height=0)
        with pytest.raises(ValueError, match="min_distance"):
            PeakParams(min_distance=0)


class TestDetectAgainstOracle:
    def test_matches_brute_force_on_random_series(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            series = random_series(rng)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            expected = oracle_peaks(series.counts, params.min_height, params.min_distance)
            assert detect_peaks(series, params) == expected

    def test_separation_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            series = random_series(rng)
            params = PeakParams(min_distance=int(rng.integers(1, 15)))
            peaks = detect_peaks(series, params)
            assert all(
                b - a >= params.min_distance for a, b in zip(peaks, peaks[1:])
            )


class TestSegmentEvents:
    def test_three_day_event(self):
        series = make_series([0, 1, 3, 1, 0])
        events = segment_events(series, [2])
        assert len(events) == 1
        event = events[0]
        assert event.start_date == D(2000, 1, 2)
        assert event.end_date == D(2000, 1, 4)
        assert event.duration_days == 3
        assert event.total_volume == 5

    def test_isolated_single_day_event(self):
        series = make_series([0, 2, 0])
        events = segment_events(series, [1])
        assert len(events) == 1
        assert events[0].start_date == events[0].end_date == events[0].peak_date

    def test_run_shared_by_two_peaks_splits_at_interior_minimum(self):
        # one active run of 8 days holding a 4-peak and a 9-peak, 7 apart
        series = make_series([0, 4, 1, 1, 1, 1, 1, 1, 9, 0])
        params = PeakParams(min_height=2, min_distance=7)
        peaks = detect_peaks(series, params)
        assert peaks == [1, 8]
        events = segment_events(series, peaks)
        assert len(events) == 2
        first, second = events
        # earliest interior minimum is index 2 and belongs to the earlier event
        assert (first.start_date, first.end_date) == (D(2000, 1, 2), D(2000, 1, 3))
        assert (second.start_date, second.end_date) == (D(2000, 1, 4), D(2000, 1, 9))
        assert first.day_counts == ((D(2000, 1, 2), 4), (D(2000, 1, 3), 1))
        assert first.start_date <= first.peak_date <= first.end_date
        assert second.start_date <= second.peak_date <= second.end_date

    def test_series_edges_can_carry_event_days(self):
        series = make_series([1, 3, 0, 0, 0, 0, 2, 1])
        events = detect_events(series, PeakParams(2, 3))
        assert [(e.start_date.day, e.end_date.day) for e in events] == [(1, 2), (7, 8)]

    def test_events_inherit_hazard(self):
        series = make_series([0, 3, 0], hazard="fire")
        events = detect_events(series, PeakParams(2, 7))
        assert events[0].hazard == "fire"
        assert events[0].event_id == "fire-2000-01-02"


class TestEventProperties:
    @staticmethod
    def _active_runs(counts):
        runs = []
        start = None
        for i, value in enumerate(counts):
            if value > 0 and start is None:
                start = i
            if value == 0 and start is not None:
                runs.append((start, i - 1))
                start = None
        if start is not None:
            runs.append((start, len(counts) - 1))
        return runs

    def test_partition_and_activity(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            series = random_series(rng, max_len=250)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            peaks = detect_peaks(series, params)
            events = segment_events(series, peaks)
            # disjoint, sorted, every day active, exactly one run per peak group
            seen_days = set()
            for event in events:
                for day, count in event.day_counts:
                    assert count > 0
                    assert day not in seen_days
                    seen_days.add(day)
            # union of event days == active days of runs containing a peak
            peak_set = set(peaks)
            expected_days = set()
            for start, end in self._active_runs(series.counts):
                if any(start <= p <= end for p in peak_set):
                    expected_days.update(
                        series.day_at(i) for i in range(start, end + 1)
                    )
            assert seen_days == expected_days

    def test_idempotence(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            series = random_series(rng, max_len=250)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            peaks = detect_peaks(series, params)
            events = segment_events(series, peaks)
            masked = np.zeros_like(series.counts)
            for event in events:
                for day, count in event.day_counts:
                    masked[series.index_of(day)] = count
            remasked = make_series(masked, hazard=series.hazard, start=series.start)
            assert detect_peaks(remasked, params) == peaks

    def test_peak_height_and_containment(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            series = random_series(rng, max_len=250)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            events = detect_events(series, params)
            for event in events:
                assert event.start_date <= event.peak_date <= event.end_date
                assert event.peak_count >= params.min_height


class TestSegmentAgainstOracle:
    """Every event exactly as the brute-force oracle cuts it, shared runs included."""

    @staticmethod
    def _segments(series, peaks):
        return [
            (
                series.index_of(event.peak_date),
                series.index_of(event.start_date),
                series.index_of(event.end_date),
                tuple((series.index_of(day), count) for day, count in event.day_counts),
            )
            for event in segment_events(series, peaks)
        ]

    def test_detected_peaks(self):
        rng = np.random.default_rng(14)
        for _ in range(400):
            series = random_series(rng, max_value=int(rng.integers(1, 12)))
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            peaks = detect_peaks(series, params)
            assert self._segments(series, peaks) == oracle_segments(series.counts, peaks)

    def test_any_sorted_active_days(self):
        # Denser peaks than detect_peaks leaves: adjacent peaks, several to a run.
        # A zero-count peak is outside segment_events' input contract.
        rng = np.random.default_rng(41)
        for _ in range(400):
            series = random_series(rng, max_value=int(rng.integers(1, 12)))
            active = [i for i, count in enumerate(series.counts) if count > 0]
            size = int(rng.integers(0, len(active) + 1))
            peaks = sorted(int(i) for i in rng.choice(active, size=size, replace=False))
            assert self._segments(series, peaks) == oracle_segments(series.counts, peaks)
