"""Disaster-registry loading and temporal alignment of news events.

Registry entries come from normalized CSV exports (global EM-DAT style or
national S2iD style); their native type labels are mapped onto the hazard
vocabulary through a user-editable type map. A news event aligns with a
registry entry when the hazards match and the entry's onset date falls on
the event's first news day or up to ``window_days`` before it. One event
can align with several entries that occur concurrently.
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import InputError
from .ingest import csv_rows, parse_row_date, path_repr, row_error
from .peaks import NewsEvent

REGISTRY_COLUMNS = ("record_id", "source", "raw_type", "onset_date", "location", "status")

DEFAULT_WINDOW_DAYS = 5

# Default raw_type -> hazard mapping, keyed by EM-DAT type/subtype labels
# (mass-movement family, wildfires, technological fires). "ignore" drops the
# record; any raw_type absent from the map is an error so that registry
# filtering stays auditable.
DEFAULT_TYPE_MAP: dict[str, str] = {
    "Mass movement (wet)": "landslide",
    "Mass movement (dry)": "landslide",
    "Landslide": "landslide",
    "Landslide (wet)": "landslide",
    "Landslide (dry)": "landslide",
    "Mudslide": "landslide",
    "Avalanche": "landslide",
    "Avalanche (wet)": "landslide",
    "Avalanche (dry)": "landslide",
    "Rockfall": "landslide",
    "Rockfall (wet)": "landslide",
    "Rockfall (dry)": "landslide",
    "Sudden Subsidence (wet)": "landslide",
    "Sudden Subsidence (dry)": "landslide",
    "Wildfire": "fire",
    "Forest fire": "fire",
    "Land fire (Brush, Bush, Pasture)": "fire",
    "Fire": "fire",
    "Fire (Industrial)": "fire",
    "Fire (Miscellaneous)": "fire",
}

IGNORE = "ignore"


@dataclass(slots=True)
class DisasterRecord:
    """One registry entry after hazard mapping: what alignment reads of it."""

    record_id: str
    source: str
    hazard: str
    onset_date: datetime.date


@dataclass
class RegistryLoad:
    """Records kept from one registry file, plus drop tallies."""

    records: list[DisasterRecord]
    n_ignored_by_type: int = 0
    n_dropped_by_status: int = 0


def load_registry(
    path: Path | str,
    source: str,
    type_map: dict[str, str] | None = None,
    status_accept: tuple[str, ...] | None = None,
) -> RegistryLoad:
    """Load a normalized registry CSV and map its types onto hazards.

    ``source`` labels the registry; a non-empty ``source`` column in the
    file must agree with it. Records whose ``raw_type`` maps to ``"ignore"``
    are dropped and counted. When ``status_accept`` is given, for any
    source, records whose ``status`` is not in it (compared
    case-insensitively) are dropped and counted as well.

    Each row is checked as it is read; a kept record holds its id, source,
    hazard and onset alone. A wrong width, malformed CSV or undecodable
    bytes raise at once. The other errors wait for the end of the file:
    every ``raw_type`` missing from the type map is reported first, then the
    first row that breaks a row rule.
    """
    if not source:
        raise InputError("registry source must be a non-empty label")
    path = Path(path)
    mapping = DEFAULT_TYPE_MAP if type_map is None else type_map
    accepted = None if status_accept is None else {s.strip().casefold() for s in status_accept}

    unmapped: set[str] = set()
    records: list[DisasterRecord] = []
    n_ignored = n_dropped = 0
    seen_ids: set[str] = set()
    onsets: dict[str, datetime.date] = {}
    first_error: InputError | None = None
    width = len(REGISTRY_COLUMNS)
    with csv_rows(path, f"{source} registry", "registry", REGISTRY_COLUMNS) as (_, rows):
        for row_number, row in rows:
            if len(row) != width:
                raise row_error(path, row_number, f"expected {width} fields, got {len(row)}")
            record_id, declared, raw_type, onset_text, _, status = row
            if raw_type not in mapping:
                unmapped.add(raw_type)
                continue
            if first_error is not None:
                continue
            try:
                if declared and declared != source:
                    reason = f"declares source {declared!r} but the file was loaded as"
                    raise row_error(path, row_number, f"{reason} {source!r}")
                if not record_id:
                    raise row_error(path, row_number, "empty field 'record_id'")
                if record_id in seen_ids:
                    raise row_error(path, row_number, f"duplicate record id {record_id!r}")
                seen_ids.add(record_id)
                hazard = mapping[raw_type]
                if hazard == IGNORE:
                    n_ignored += 1
                    continue
                if accepted is not None and status.strip().casefold() not in accepted:
                    n_dropped += 1
                    continue
                onset = onsets.get(onset_text)
                if onset is None:
                    onset = onsets[onset_text] = parse_row_date(onset_text, path, row_number)
            except InputError as exc:
                first_error = exc
                continue
            records.append(DisasterRecord(record_id, source, hazard, onset))

    if unmapped:
        raise InputError(
            f"registry {path_repr(path)} has raw_type labels missing from the type map: "
            + ", ".join(repr(u) for u in sorted(unmapped))
        )
    if first_error is not None:
        raise first_error
    return RegistryLoad(records, n_ignored, n_dropped)


@dataclass(slots=True)
class AlignmentPair:
    """One event-record match; lag is first news day minus onset, in days."""

    event_id: str
    record_id: str
    source: str
    hazard: str
    lag_days: int


@dataclass
class AlignmentReport:
    """All pairs plus the bookkeeping around them.

    ``aligned_by_source[source][hazard]`` counts events with at least one
    pair from that source (an event counts once per source). Unmatched
    records are ``(source, record_id)`` tuples.
    """

    window_days: int
    pairs: list[AlignmentPair] = field(default_factory=list)
    aligned_by_source: dict[str, dict[str, int]] = field(default_factory=dict)
    unmatched_events: list[str] = field(default_factory=list)
    unmatched_records: list[tuple[str, str]] = field(default_factory=list)


_record_key = attrgetter("source", "record_id")


def check_window(window_days: int) -> None:
    """ValueError unless ``window_days`` is at least 0."""
    if window_days < 0:
        raise ValueError(f"window_days must be >= 0, got {window_days}")


def _onset_index(ranked: list[DisasterRecord]) -> dict[str, tuple[array, array]]:
    """Each hazard's records by onset day.

    A hazard maps to an ``array('i')`` of its records' onset days, sorted,
    and an ``array('I')`` of their ranks (positions in ``ranked``) in the
    same order. The ranks are grouped by hazard first, so a list of ranks
    is held for one hazard at a time.
    """
    dates = [record.onset_date for record in ranked]
    by_hazard = {hazard: array("I") for hazard in {record.hazard for record in ranked}}
    for rank, record in enumerate(ranked):
        by_hazard[record.hazard].append(rank)
    index = {}
    for hazard, ranks in by_hazard.items():
        ranks = array("I", sorted(ranks, key=dates.__getitem__))
        index[hazard] = (array("i", (dates[rank].toordinal() for rank in ranks)), ranks)
    return index


def align_events(
    events: list[NewsEvent],
    records: list[DisasterRecord],
    window_days: int = DEFAULT_WINDOW_DAYS,
) -> AlignmentReport:
    """Temporally align news events with registry records.

    A pair ``(event, record)`` is emitted iff the hazards match and
    ``start_date(event) - onset_date(record)`` is between 0 and
    ``window_days`` days inclusive: onsets after the first news day never
    align, since coverage follows the disaster. All qualifying pairs are
    emitted, so one event may align with several records.

    Pairs are sorted by ``(event_id, source, record_id)``; equal keys keep
    event order, then record order. The records are ranked once by
    ``(source, record_id)``, equal keys in record order, and each distinct
    key is numbered in that order. The events are taken one ``event_id`` at
    a time; each binary-searches its hazard's onset days for those in its
    window, and the hits of one id are sorted by key number, event
    position and rank. Matched keys are marked in a ``bytearray``, so the
    unmatched records come out in rank order, which is sorted. Beside the
    report, what is held is about 21 bytes a record and the hits of one
    id; the cost is O((E + R) log R + P log P).
    """
    check_window(window_days)
    # Two stable sorts: by source, then by record_id, then in record order.
    ranked = sorted(records, key=attrgetter("record_id"))
    ranked.sort(key=attrgetter("source"))
    # The number of each rank's key: 0 for the first, one more at each new
    # key (and a lone 0 when there is no record, which no rank reads).
    keys = map(_record_key, ranked)
    changes = itertools.starmap(operator.ne, itertools.pairwise(keys))
    key_numbers = array("I", itertools.accumulate(changes, initial=0))
    index = _onset_index(ranked)
    no_records = (array("i"), array("I"))

    ids = [event.event_id for event in events]
    starts = [event.start_date.toordinal() for event in events]
    pairs: list[AlignmentPair] = []
    matched = bytearray(len(ranked))  # by key number
    aligned: Counter[tuple[str, str]] = Counter()  # (source, hazard) -> events
    unmatched_events: list[str] = []
    by_id = sorted(range(len(events)), key=ids.__getitem__)  # stable: equal ids in event order
    for event_id, group in itertools.groupby(by_id, ids.__getitem__):
        group = list(group)
        hits: list[tuple[int, int, int]] = []  # (key number, position in group, rank)
        for j, i in enumerate(group):
            onsets, ranks = index.get(events[i].hazard, no_records)
            lo = bisect.bisect_left(onsets, starts[i] - window_days)
            hi = bisect.bisect_right(onsets, starts[i], lo)
            hits += [(key_numbers[rank], j, rank) for rank in ranks[lo:hi]]
        if not hits:
            unmatched_events += [event_id] * len(group)
            continue
        hits.sort()
        hazard = events[group[0]].hazard  # an event_id names its hazard
        sources: set[str] = set()
        for number, j, rank in hits:
            record = ranked[rank]
            lag = starts[group[j]] - record.onset_date.toordinal()
            pairs.append(AlignmentPair(event_id, record.record_id, record.source, hazard, lag))
            matched[number] = 1
            sources.add(record.source)
        for source in sources:
            aligned[source, hazard] += 1

    aligned_by_source: dict[str, dict[str, int]] = {}
    for (source, hazard), n in sorted(aligned.items()):
        aligned_by_source.setdefault(source, {})[hazard] = n
    return AlignmentReport(
        window_days=window_days,
        pairs=pairs,
        aligned_by_source=aligned_by_source,
        unmatched_events=unmatched_events,
        unmatched_records=[
            _record_key(record)
            for record, number in zip(ranked, key_numbers)
            if not matched[number]
        ],
    )


def alignment_summary(report: AlignmentReport, n_events_total: int) -> dict:
    """Aggregate alignment tallies for the run report.

    The overall fraction counts events aligned to at least one source and
    is None when there are no events at all.
    """
    aligned_any = {p.event_id for p in report.pairs}
    unmatched = Counter(source for source, _ in report.unmatched_records)
    by_source: dict[str, dict] = {}
    # Every pair's source is a key of aligned_by_source.
    for source in sorted(report.aligned_by_source.keys() | unmatched.keys()):
        per_hazard = report.aligned_by_source.get(source, {})
        by_source[source] = {
            "aligned_events_by_hazard": dict(sorted(per_hazard.items())),
            "aligned_events_total": sum(per_hazard.values()),
            "unmatched_records": unmatched[source],
        }
    return {
        "window_days": report.window_days,
        "n_events_total": n_events_total,
        "events_aligned_any_source": len(aligned_any),
        "aligned_fraction": (
            len(aligned_any) / n_events_total if n_events_total > 0 else None
        ),
        "by_source": by_source,
    }
