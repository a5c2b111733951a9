"""
Detecting news events in a sparse attention series
===================================================

A daily article-count series is mostly zeros with short bursts. This demo
walks through the three detection steps on a hand-made series: local
maxima, the height/distance constraints, and event segmentation.
"""

import datetime

from attn_peaks import CountSeries, PeakParams, enforce_constraints, local_maxima, segment_events

# Thirty days with three bursts. The lone "1" must not become an event
# (single-article days attract little attention); the long run at the end
# holds two peaks and will be split between them.
counts = [0, 0, 1, 0, 0, 2, 5, 2, 0, 0,
          0, 1, 0, 0, 0, 0, 0, 0, 0, 0,
          4, 1, 1, 1, 1, 1, 1, 9, 2, 0]
series = CountSeries(
    start=datetime.date(2020, 1, 1),
    end=datetime.date(2020, 1, 30),
    counts=counts,
    hazard="landslide",
)

# Step 1: every local maximum is a candidate. Plateaus collapse to their
# midpoint, and the first/last day can never be a candidate.
candidates = local_maxima(series)
print("candidate indices:", candidates)
print("candidate counts: ", [counts[i] for i in candidates])

# Step 2: drop candidates below the height threshold (inclusive, so a count
# of exactly 2 survives), then prune peaks closer than min_distance days,
# keeping the higher one.
params = PeakParams(min_height=2, min_distance=7)
peaks = enforce_constraints(candidates, series, params)
print("surviving peaks:  ", [(series.day_at(i).isoformat(), counts[i]) for i in peaks])

# Step 3: each peak grows over its contiguous active days. The last run has
# two surviving peaks, so it is split at the interior minimum; the minimum
# day belongs to the earlier event.
events = segment_events(series, peaks)
for event in events:
    days = ", ".join(f"{day.day:02d}:{count}" for day, count in event.day_counts)
    print(
        f"{event.event_id}: {event.start_date} .. {event.end_date} "
        f"(peak {event.peak_count}, volume {event.total_volume}, days {days})"
    )
