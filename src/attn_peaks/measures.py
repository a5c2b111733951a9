"""Per-event attention measures and distribution summaries.

Each news event is characterized by: the article count at its peak day,
the total article volume, the duration in days, the gap to the previous
event, the days from first article to peak, the days from peak to last
article, and the diversity of text content and outlets. Per hazard, the
event count completes the measure set. Distributions are summarized as
box-plot statistics with Tukey 1.5*IQR outlier fences.
"""

from __future__ import annotations

import bisect
import datetime
import math
from array import array
from dataclasses import dataclass, fields

from .errors import ConsistencyError
from .ingest import Corpus
from .peaks import NewsEvent

@dataclass
class MeasureSet:
    """The measures of one news event, its fields in ``measures.csv`` column order.

    The event's hazard, id and peak date come first, then the measures.
    days_since_last_peak is a secondary variant of days_since_last
    (peak-to-peak instead of gap between events); n_genres counts genre
    labels where n_text_types counts deduplicated text content.
    """

    hazard: str
    event_id: str
    peak_date: datetime.date
    n_at_peak: int
    total_volume: int
    duration_days: int
    days_since_last: int | None
    days_to_peak: int
    days_to_fade: int
    n_text_types: int
    n_outlets: int
    n_genres: int
    days_since_last_peak: int | None


# The header of measures.csv; the per-event measure columns follow the three id columns.
MEASURES_HEADER = tuple(f.name for f in fields(MeasureSet))
MEASURE_COLUMNS = MEASURES_HEADER[3:]


@dataclass
class BoxStats:
    """Box-plot summary: quartiles, whiskers, outliers.

    Quartiles use linear interpolation between order statistics; whiskers
    sit at the most extreme data points within 1.5*IQR of the quartiles and
    points beyond are outliers.
    """

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: list[float]
    n: int


def measure_events(events: list[NewsEvent], corpus: Corpus) -> list[MeasureSet]:
    """Measures of a hazard's event sequence, gap measures included.

    ``events`` must be the sorted, non-overlapping output of the detection
    stage for one hazard; ``corpus`` holds the documents the series was
    built from (documents of other hazards are ignored). ``days_since_last``
    runs from the end of the previous event to the start of this one, so
    adjacent events have a gap of 1; ``days_since_last_peak`` runs peak to
    peak. Both are None for the first event. Events of two hazards, or
    events that overlap or are unsorted, raise :class:`ConsistencyError`, as
    does an event day not backed by exactly as many documents as the series
    counted there. Each event's gap is checked before its days.
    """
    columns = corpus.of(events[0].hazard if events else None)
    # The rows of each event day, by ordinal.
    by_day = {day.toordinal(): array("I") for event in events for day, _ in event.day_counts}
    for row, day in enumerate(columns.days):
        day_rows = by_day.get(day)
        if day_rows is not None:
            day_rows.append(row)
    keys, outlets, genres = columns.keys, columns.outlets, columns.genres
    measures = []
    for previous, event in zip([None, *events], events):
        gap = peak_gap = None
        if previous is not None:
            if event.hazard != previous.hazard:
                raise ConsistencyError(
                    f"gap between different hazards: {previous.hazard} vs {event.hazard}"
                )
            gap = (event.start_date - previous.end_date).days
            if gap <= 0:
                raise ConsistencyError(
                    f"events {previous.event_id} and {event.event_id} overlap or are unsorted"
                )
            peak_gap = (event.peak_date - previous.peak_date).days
        rows = array("I")
        for day, count in event.day_counts:
            day_rows = by_day[day.toordinal()]
            if len(day_rows) != count:
                raise ConsistencyError(
                    f"event {event.event_id} day {day} has {len(day_rows) or 'no'} documents "
                    f"but the series counts {count} (corpus/series mismatch)"
                )
            rows += day_rows
        measures.append(
            MeasureSet(
                event_id=event.event_id,
                hazard=event.hazard,
                peak_date=event.peak_date,
                n_at_peak=event.peak_count,
                total_volume=event.total_volume,
                duration_days=event.duration_days,
                days_since_last=gap,
                days_to_peak=(event.peak_date - event.start_date).days,
                days_to_fade=(event.end_date - event.peak_date).days,
                n_text_types=len(set(map(keys.__getitem__, rows))),
                n_outlets=len(set(map(outlets.__getitem__, rows))),
                n_genres=len(set(map(genres.__getitem__, rows))),
                days_since_last_peak=peak_gap,
            )
        )
    return measures


def _percentile(ordered: list[float], q: float) -> float:
    """Quantile ``q`` of sorted values, rounded as ``numpy.percentile`` rounds it.

    Hyndman and Fan's type 7 (Am. Stat. 50(4), 1996): linear interpolation
    at the virtual index (n-1)*q. numpy's ``_lerp`` interpolates from the
    nearer of the two order statistics, so this does too.
    """
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    if below >= len(ordered) - 1:  # one value: numpy returns it as it is, -0.0 included
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = position - below
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def summarize(values: list[float]) -> BoxStats:
    """Box-plot statistics of a non-empty list of finite numbers.

    Nulls must be excluded beforehand. The summary is permutation-invariant,
    down to the sign of a zero, and scales with the data.
    """
    if len(values) == 0:
        raise ValueError("summarize requires at least one value")
    ordered = sorted(map(float, values))
    if any(map(math.isnan, ordered)):
        raise ValueError("null values must be excluded before summarizing")
    if math.isinf(ordered[0]) or math.isinf(ordered[-1]):
        raise ValueError("infinite values cannot be summarized")
    # -0.0 == 0.0, so the sort keeps signed zeros in input order; put -0.0 first.
    zeros = slice(bisect.bisect_left(ordered, 0.0), bisect.bisect_right(ordered, 0.0))
    ordered[zeros] = sorted(ordered[zeros], key=lambda v: math.copysign(1.0, v))
    q1, median, q3 = (_percentile(ordered, q) for q in (0.25, 0.5, 0.75))
    reach = 1.5 * (q3 - q1)
    low, high = q1 - reach, q3 + reach
    inside = [v for v in ordered if low <= v <= high]
    return BoxStats(
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=[v for v in ordered if v < low or v > high],
        n=len(ordered),
    )
