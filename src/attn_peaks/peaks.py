"""Constrained peak detection and news-event segmentation.

Peaks are local maxima of the daily count series that clear an inclusive
height threshold and survive a minimum-distance pruning. Each surviving
peak is extended over its contiguous run of active days (count > 0) to
form one news event, bounded by zero-count days. When several surviving
peaks share one active run, the run is split between consecutive peaks at
the day with the smallest count strictly between them.

All functions are pure and deterministic; per-hazard detections can run
concurrently without coordination.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import ne

from .ingest import CountSeries


@dataclass(frozen=True)
class PeakParams:
    """Detection constraints.

    ``min_height`` is an inclusive threshold on the count at the peak day
    (the default of 2 excludes single-article peaks only). ``min_distance``
    removes the lower of two peaks strictly closer than this many days.
    """

    min_height: int = 2
    min_distance: int = 7

    def __post_init__(self) -> None:
        if self.min_height < 1:
            raise ValueError(f"min_height must be >= 1, got {self.min_height}")
        if self.min_distance < 1:
            raise ValueError(f"min_distance must be >= 1, got {self.min_distance}")


@dataclass(frozen=True)
class NewsEvent:
    """One attention burst: a peak day plus its contiguous active neighbours."""

    hazard: str
    peak_date: datetime.date
    start_date: datetime.date
    end_date: datetime.date
    day_counts: tuple[tuple[datetime.date, int], ...]

    @property
    def event_id(self) -> str:
        return f"{self.hazard}-{self.peak_date.isoformat()}"

    @property
    def duration_days(self) -> int:
        return (self.end_date - self.start_date).days + 1

    @property
    def total_volume(self) -> int:
        return sum(count for _, count in self.day_counts)

    @property
    def peak_count(self) -> int:
        return dict(self.day_counts)[self.peak_date]


def local_maxima(series: CountSeries) -> list[int]:
    """Indices of local maxima, ascending.

    The counts split into runs of equal values. Each run with a lower run on
    both sides yields one candidate at its midpoint (rounded down). The signal
    is not padded, so a run that holds the first or last day is never one.
    """
    x = series.counts
    # The first day of each run of equal counts, in one pass that copies no counts.
    starts = [0, *compress(count(1), map(ne, x, islice(x, 1, None)))]
    return [
        (start + end - 1) // 2
        for before, start, end in zip(starts, starts[1:], starts[2:])
        if x[before] < x[start] > x[end]
    ]


def enforce_constraints(
    candidates: list[int], series: CountSeries, params: PeakParams
) -> list[int]:
    """Apply the height and distance constraints to candidate maxima.

    Candidates below ``min_height`` are dropped first (the threshold is
    inclusive). Survivors are then processed in order of decreasing count,
    ties broken toward the later date, and kept only when no already-kept
    peak lies strictly closer than ``min_distance`` days. Returned ascending.
    """
    x = series.counts
    survivors = [i for i in candidates if x[i] >= params.min_height]
    order = sorted(survivors, key=lambda i: (x[i], i), reverse=True)
    kept: list[int] = []
    for i in order:
        pos = bisect_left(kept, i)
        clear_left = pos == 0 or i - kept[pos - 1] >= params.min_distance
        clear_right = pos == len(kept) or kept[pos] - i >= params.min_distance
        if clear_left and clear_right:
            kept.insert(pos, i)
    return kept


def detect_peaks(series: CountSeries, params: PeakParams | None = None) -> list[int]:
    """Surviving peak indices: ``local_maxima`` filtered by ``enforce_constraints``."""
    params = params or PeakParams()
    return enforce_constraints(local_maxima(series), series, params)


def segment_events(series: CountSeries, peaks: list[int]) -> list[NewsEvent]:
    """Grow each surviving peak into a news event over its active run.

    ``peaks`` are ascending indices of active days, as :func:`detect_peaks`
    returns them. A peak is extended left and right over consecutive days
    with count > 0, stopping at the first zero-count day. When one run holds
    several peaks, it is split between each two neighbouring peaks at the
    earliest day with the smallest count strictly between them (the left
    peak when they are adjacent); that day belongs to the earlier event.
    Events are disjoint and every event day is active.
    """
    x = series.counts
    events: list[NewsEvent] = []
    # One walk: a run's left edge is found for its first peak only, and the
    # right edge stops at the next peak, where a shared run is cut.
    start = None  # first day of the current event; None before a new run
    for peak, next_peak in zip(peaks, [*peaks[1:], len(x)]):
        if start is None:
            start = peak
            while start > 0 and x[start - 1] > 0:
                start -= 1
        end = peak
        while end + 1 < next_peak and x[end + 1] > 0:
            end += 1
        shared = end + 1 == next_peak < len(x)  # the run goes on into the next peak
        if shared:
            end = _interior_minimum(x, peak, next_peak)
        events.append(_make_event(series, peak, start, end))
        start = end + 1 if shared else None
    return events


def _interior_minimum(x, left_peak: int, right_peak: int) -> int:
    """Day of the smallest count strictly between two peaks (earliest on ties)."""
    between = x[left_peak + 1 : right_peak]
    return x.index(min(between), left_peak + 1) if between else left_peak


def _make_event(series: CountSeries, peak: int, start: int, end: int) -> NewsEvent:
    first = series.start.toordinal()
    dates = map(datetime.date.fromordinal, range(first + start, first + end + 1))
    days = tuple(zip(dates, series.counts[start : end + 1]))
    return NewsEvent(
        hazard=series.hazard,
        peak_date=days[peak - start][0],
        start_date=days[0][0],
        end_date=days[-1][0],
        day_counts=days,
    )


def detect_events(series: CountSeries, params: PeakParams | None = None) -> list[NewsEvent]:
    """Full detection: constrained peaks segmented into news events."""
    return segment_events(series, detect_peaks(series, params))
