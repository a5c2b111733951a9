"""
Aligning news events with disaster registries
=============================================

A news event is considered validated when a registry entry of the same
hazard has its official onset date on the event's first news day or up to
five days before it. One event can align with several concurrent entries;
entries with no temporally close coverage stay unmatched.
"""

import datetime

from attn_peaks import DisasterRecord, NewsEvent, align_events, alignment_summary

D = datetime.date


def event(hazard, start, days):
    day_counts = tuple(
        (start + datetime.timedelta(days=i), c) for i, c in enumerate(days)
    )
    peak_day = max(day_counts, key=lambda dc: dc[1])[0]
    return NewsEvent(
        hazard=hazard,
        peak_date=peak_day,
        start_date=start,
        end_date=day_counts[-1][0],
        day_counts=day_counts,
    )


events = [
    event("landslide", D(2022, 2, 15), [11, 4, 3]),   # covered the day it began
    event("fire", D(2019, 8, 20), [3, 18, 7]),        # covered four days after onset
    event("landslide", D(2015, 11, 5), [4]),          # retrospective coverage, no onset nearby
]

# A record holds what alignment reads: id, source, hazard and onset date.
records = [
    DisasterRecord("S2-001", "S2ID", "landslide", D(2022, 2, 15)),   # Petrópolis
    DisasterRecord("EM-001", "EMDAT", "landslide", D(2022, 2, 14)),  # Rio de Janeiro
    DisasterRecord("EM-002", "EMDAT", "fire", D(2019, 8, 16)),       # Amazonas
    DisasterRecord("EM-003", "EMDAT", "fire", D(2019, 8, 10)),       # Acre, 10 days early
    DisasterRecord("S2-002", "S2ID", "landslide", D(2010, 4, 6)),    # Niterói
]

report = align_events(events, records, window_days=5)

print("pairs (event, record, lag in days):")
for pair in report.pairs:
    print(f"  {pair.event_id}  <-  {pair.source}:{pair.record_id}  lag={pair.lag_days}")
print("unmatched events: ", report.unmatched_events)
print("unmatched records:", [f"{s}:{r}" for s, r in report.unmatched_records])

# The Petrópolis event aligns with BOTH registries at once; the summary
# counts it once per source and once overall.
summary = alignment_summary(report, n_events_total=len(events))
print(f"\naligned {summary['events_aligned_any_source']} of {summary['n_events_total']} events "
      f"({summary['aligned_fraction']:.0%})")
for source, stats in summary["by_source"].items():
    print(f"  {source}: {stats['aligned_events_by_hazard']} "
          f"(+{stats['unmatched_records']} records without coverage)")

# Widening the window can only add pairs, never remove them.
for window in (0, 2, 5, 8):
    n = len(align_events(events, records, window).pairs)
    print(f"window {window} days -> {n} pairs")
