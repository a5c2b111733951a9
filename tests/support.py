"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately written in a different style than the
library (run-compression scans, greedy list checks, all-pairs loops) so
they stay independent of the code paths they verify.
"""

from __future__ import annotations

import csv
import datetime
import json
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

import attn_peaks.ingest
from attn_peaks import (
    ConsistencyError,
    CountSeries,
    DisasterRecord,
    Document,
    InputError,
    NewsEvent,
)
from attn_peaks.align import (
    DEFAULT_TYPE_MAP,
    AlignmentPair,
    AlignmentReport,
    RegistryLoad,
)
from attn_peaks.ingest import Gazetteer, csv_reader, row_error, text_digest, undecodable
from attn_peaks.measures import BoxStats, MeasureSet

DAY0 = datetime.date(2000, 1, 1)


def make_series(values, hazard: str = "landslide", start: datetime.date = DAY0) -> CountSeries:
    values = [int(v) for v in values]
    return CountSeries(
        start=start,
        end=start + datetime.timedelta(days=len(values) - 1),
        counts=values,
        hazard=hazard,
    )


def make_doc(
    doc_id: str,
    day: datetime.date,
    hazard: str = "landslide",
    outlet: str = "Blatt 1",
    text_type: str = "Genre 1",
    text: str = "Erdrutsch in Brasilien",
    text_key: str | None = None,
) -> Document:
    key = text_key if text_key is not None else f"key-{doc_id}"
    return Document(doc_id, day, outlet, text_type, hazard, text, key)


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Wrap ``module.name``; each call appends its positional arguments to the list returned."""
    calls: list[tuple] = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def hash_alike(monkeypatch, values=None, label: int = 7) -> None:
    """Patch the loader's ``hash`` to give ``label`` for each of ``values``.

    With ``values`` None, every value hashes to ``label``; any other value
    keeps its real hash.
    """
    alike = None if values is None else frozenset(values)

    def patched(value):
        return label if alike is None or value in alike else hash(value)

    monkeypatch.setattr(attn_peaks.ingest, "hash", patched, raising=False)


def docs_matching_series(series: CountSeries, outlet_pool: int = 5, genre_pool: int = 3):
    """One document per count unit, so measure_events() sees a consistent corpus."""
    docs = []
    n = 0
    for offset, count in enumerate(series.counts):
        day = series.start + datetime.timedelta(days=offset)
        for _ in range(int(count)):
            docs.append(
                make_doc(
                    f"{series.hazard}-{n:05d}",
                    day,
                    hazard=series.hazard,
                    outlet=f"Blatt {n % outlet_pool + 1}",
                    text_type=f"Genre {n % genre_pool + 1}",
                )
            )
            n += 1
    return docs


def oracle_peaks(values, min_height: int, min_distance: int) -> list[int]:
    """Brute-force peak oracle.

    Enumerates strict and plateau maxima by compressing equal-value runs,
    then greedily keeps them in decreasing-count order (later index wins
    ties) subject to the minimum-distance rule.
    """
    x = list(values)
    n = len(x)
    candidates = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        left_is_lower = i > 0 and x[i - 1] < x[i]
        right_is_lower = j < n - 1 and x[j + 1] < x[i]
        if left_is_lower and right_is_lower:
            candidates.append((i + j) // 2)
        i = j + 1
    kept: list[int] = []
    for c in sorted(candidates, key=lambda k: (x[k], k), reverse=True):
        if x[c] < min_height:
            continue
        if all(abs(c - k) >= min_distance for k in kept):
            kept.append(c)
    return sorted(kept)


def oracle_segments(counts, peaks) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Brute-force segmentation oracle: ``(peak, start, end, day_counts)`` per peak.

    README's rule, each peak on its own: find the peak's maximal active run
    and every peak in it; the run is cut between two neighbouring peaks at
    the earliest smallest count strictly between them (the left peak when
    they are adjacent), and the cut day belongs to the earlier event. Days
    are indices and ``day_counts`` pairs each index with its count.
    """
    x = [int(v) for v in counts]

    def cut(left: int, right: int) -> int:
        between = range(left + 1, right)
        if not between:
            return left
        smallest = min(x[i] for i in between)
        return [i for i in between if x[i] == smallest][0]

    segments = []
    for peak in peaks:
        lo = hi = peak
        while lo > 0 and x[lo - 1] > 0:
            lo -= 1
        while hi < len(x) - 1 and x[hi + 1] > 0:
            hi += 1
        in_run = sorted(p for p in peaks if lo <= p <= hi)
        pos = in_run.index(peak)
        start = lo if pos == 0 else cut(in_run[pos - 1], peak) + 1
        end = hi if pos == len(in_run) - 1 else cut(peak, in_run[pos + 1])
        segments.append((peak, start, end, tuple((i, x[i]) for i in range(start, end + 1))))
    return segments


def oracle_count_series(
    docs, hazard: str, start: datetime.date, end: datetime.date, path="<rows>"
) -> Counter:
    """Day offsets from ``start`` of the ``hazard`` documents, counted; zero days are absent.

    Every document's date is checked against the range first, whatever its
    hazard, and one outside it raises InputError naming its row of
    ``path``, which the ``id`` slot holds. Documents are unpacked in
    README's field order.
    """
    for row, date, *_ in docs:
        if date < start or date > end:
            reason = f"document dated {date} is outside the series range {start}..{end}"
            raise row_error(path, row, reason)
    return Counter((date - start).days for _, date, _, _, h, _, _ in docs if h == hazard)


def oracle_measures(events: list[NewsEvent], docs) -> list[MeasureSet]:
    """Each event's measures from a scan of the whole corpus per event day.

    For each ``(day, count)`` of an event, the documents of the event's
    hazard dated that day are found by comparing every document; fewer or
    more than ``count`` raise ConsistencyError. The volume, the peak count
    and the distinct text keys, outlets and genres come from those
    documents, the duration from the event's dates. The gap runs from the
    previous event's end to this one's start, the peak gap peak to peak.
    Events are taken as :func:`detect_events` gives them: one hazard, sorted.
    """
    measures = []
    previous = None
    for event in events:
        found = []  # (date, outlet, text_type, text_key) of each of the event's documents
        for day, count in event.day_counts:
            on_day = [
                (date, outlet, text_type, text_key)
                for _, date, outlet, text_type, hazard, _, text_key in docs
                if hazard == event.hazard and date == day
            ]
            if len(on_day) != count:
                raise ConsistencyError(f"{event.event_id} {day}: {len(on_day)} != {count}")
            found += on_day
        gap = peak_gap = None
        if previous is not None:
            gap = (event.start_date - previous.end_date).days
            peak_gap = (event.peak_date - previous.peak_date).days
        measures.append(
            MeasureSet(
                hazard=event.hazard,
                event_id=event.event_id,
                peak_date=event.peak_date,
                n_at_peak=sum(date == event.peak_date for date, *_ in found),
                total_volume=len(found),
                duration_days=(event.end_date - event.start_date).days + 1,
                days_since_last=gap,
                days_to_peak=(event.peak_date - event.start_date).days,
                days_to_fade=(event.end_date - event.peak_date).days,
                n_text_types=len({key for *_, key in found}),
                n_outlets=len({outlet for _, outlet, _, _ in found}),
                n_genres=len({genre for _, _, genre, _ in found}),
                days_since_last_peak=peak_gap,
            )
        )
        previous = event
    return measures


def oracle_summarize(values) -> BoxStats:
    """:func:`attn_peaks.summarize` computed with numpy, as it was before the stdlib rewrite."""
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = (float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0]))
    reach = 1.5 * (q3 - q1)
    inside = arr[(arr >= q1 - reach) & (arr <= q3 + reach)]
    outliers = sorted(float(v) for v in arr[(arr < q1 - reach) | (arr > q3 + reach)])
    return BoxStats(
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=outliers,
        n=int(arr.size),
    )


def oracle_alignment_pairs(events: list[NewsEvent], records, window_days: int):
    """All-pairs predicate check, independent of align_events bookkeeping."""
    pairs = set()
    for event in events:
        for record in records:
            lag = (event.start_date - record.onset_date).days
            if event.hazard == record.hazard and 0 <= lag <= window_days:
                pairs.add((event.event_id, record.source, record.record_id, lag))
    return pairs


def oracle_alignment_report(events: list[NewsEvent], records, window_days: int) -> AlignmentReport:
    """The whole report by an all-pairs scan: every event against every record.

    Pairs are emitted in event order, then record order, and stably sorted
    by (event_id, source, record_id), so equal keys keep that order.
    """
    pairs = []
    matched_events = set()
    matched_records = set()
    by_source_hazard: dict = {}
    for event in events:
        event_id = event.event_id
        for record in records:
            if record.hazard != event.hazard:
                continue
            lag = (event.start_date - record.onset_date).days
            if 0 <= lag <= window_days:
                pairs.append(
                    AlignmentPair(
                        event_id=event_id,
                        record_id=record.record_id,
                        source=record.source,
                        hazard=event.hazard,
                        lag_days=lag,
                    )
                )
                matched_events.add(event_id)
                matched_records.add((record.source, record.record_id))
                by_source_hazard.setdefault(record.source, {}).setdefault(
                    event.hazard, set()
                ).add(event_id)
    pairs.sort(key=lambda p: (p.event_id, p.source, p.record_id))
    return AlignmentReport(
        window_days=window_days,
        pairs=pairs,
        aligned_by_source={
            source: {hazard: len(ids) for hazard, ids in sorted(hazards.items())}
            for source, hazards in sorted(by_source_hazard.items())
        },
        unmatched_events=sorted(
            e.event_id for e in events if e.event_id not in matched_events
        ),
        unmatched_records=sorted(
            (r.source, r.record_id)
            for r in records
            if (r.source, r.record_id) not in matched_records
        ),
    )


def oracle_alignment_json(report: AlignmentReport, registry_loads: dict) -> str:
    """The text of ``alignment.json`` by ``json.dumps`` alone, from plain dicts."""
    obj = {
        "window_days": report.window_days,
        "registries": {
            source: {
                "records": len(load.records),
                "ignored_by_type": load.n_ignored_by_type,
                "dropped_by_status": load.n_dropped_by_status,
            }
            for source, load in registry_loads.items()
        },
        "pairs": [asdict(pair) for pair in report.pairs],
        "aligned_events_by_source": report.aligned_by_source,
        "unmatched_events": report.unmatched_events,
        "unmatched_records": [
            {"source": source, "record_id": record_id}
            for source, record_id in report.unmatched_records
        ],
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def oracle_load_registry(path, source: str, type_map=None, status_accept=None) -> RegistryLoad:
    """The registry loader in two plain passes, one dict per row.

    Pass one reads every row and checks its width. Then every raw_type
    missing from the type map is reported at once, before any row rule.
    Pass two applies the row rules in order: declared source, empty id,
    duplicate id, ignored type, status (when ``status_accept`` is given, for
    any source), onset date. Dates are checked by hand as exactly
    ``YYYY-MM-DD``, and rows dropped before the date rule never have their
    dates read.
    """
    if not source:
        raise InputError("registry source must be a non-empty label")
    path = Path(path)
    if not path.is_file():
        raise InputError(f"registry file not found: {str(path)!r}")
    mapping = DEFAULT_TYPE_MAP if type_map is None else type_map
    columns = ["record_id", "source", "raw_type", "onset_date", "location", "status"]
    rows: list[tuple[int, dict]] = []
    row_number = -1
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv_reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(
                    f"registry file {str(path)!r} is empty (header expected)"
                ) from None
            row_number = 0
            if header != columns:
                raise InputError(
                    f"unexpected registry header in {str(path)!r}: {header!r} "
                    f"(expected {','.join(columns)})"
                )
            for row_number, row in enumerate(reader, start=1):
                if len(row) != len(columns):
                    reason = f"expected {len(columns)} fields, got {len(row)}"
                    raise row_error(path, row_number, reason)
                rows.append((row_number, dict(zip(columns, row))))
    except UnicodeDecodeError:
        raise undecodable(path) from None
    except csv.Error as exc:
        raise row_error(path, row_number + 1, f"malformed CSV: {exc}") from None

    missing = []
    for _, values in rows:
        if values["raw_type"] not in mapping and values["raw_type"] not in missing:
            missing.append(values["raw_type"])
    if missing:
        raise InputError(
            f"registry {str(path)!r} has raw_type labels missing from the type map: "
            + ", ".join(repr(label) for label in sorted(missing))
        )

    accepted = None
    if status_accept is not None:
        accepted = [status.strip().casefold() for status in status_accept]
    load = RegistryLoad(records=[])
    seen_ids = []
    for row, values in rows:
        record_id = values["record_id"]
        if values["source"] != "" and values["source"] != source:
            reason = (
                f"declares source {values['source']!r} but the file was loaded as {source!r}"
            )
            raise row_error(path, row, reason)
        if record_id == "":
            raise row_error(path, row, "empty field 'record_id'")
        if record_id in seen_ids:
            raise row_error(path, row, f"duplicate record id {record_id!r}")
        seen_ids.append(record_id)
        hazard = mapping[values["raw_type"]]
        if hazard == "ignore":
            load.n_ignored_by_type += 1
        elif accepted is not None and values["status"].strip().casefold() not in accepted:
            load.n_dropped_by_status += 1
        else:
            load.records.append(
                DisasterRecord(
                    record_id=record_id,
                    source=source,
                    hazard=hazard,
                    onset_date=_oracle_date(values["onset_date"], path, row),
                )
            )
    return load


_ORACLE_TOKEN = re.compile(r"[^\W\d_]+")


def oracle_tokens(text: str) -> list[str]:
    """Every regex letter run of the NFC text, each casefolded on its own."""
    return [t.casefold() for t in _ORACLE_TOKEN.findall(unicodedata.normalize("NFC", text))]


def oracle_country_mentions(text: str, gazetteer: Gazetteer) -> set[str]:
    """Leftmost-longest, non-overlapping entry matches by an every-position scan.

    At each token position every entry is tried; the longest one whose
    tokens follow from there is reported and the scan resumes after it.
    No index and no fast path.
    """
    tokens = oracle_tokens(text)
    entries = [(oracle_tokens(entry), entry) for entry in gazetteer.entries]
    found = set()
    i = 0
    while i < len(tokens):
        matches = [(len(seq), entry) for seq, entry in entries if tokens[i : i + len(seq)] == seq]
        if matches:
            length, entry = max(matches)
            found.add(entry)
            i += length
        else:
            i += 1
    return found


def in_corpus_order(rows, hazards=("landslide", "fire")) -> list[Document]:
    """Documents in :meth:`Corpus.rows` order: hazard by hazard, each in the order given."""
    return sorted(rows, key=lambda row: hazards.index(row[4]))


def first_key_rows(rows) -> list[tuple]:
    """``rows`` with each ``text_key`` slot holding the index of the first row with that key.

    A corpus keeps a label in place of each key, one that only equality
    gives a meaning to, so a corpus's rows and an oracle's, in the same
    order, compare by the partition their keys make.
    """
    first: dict = {}
    return [(*row[:-1], first.setdefault(row[-1], i)) for i, row in enumerate(rows)]


def oracle_filter_ids(docs: list[Document], gazetteer: Gazetteer) -> list[int]:
    """1-based positions of the documents whose oracle mentions are exactly the target.

    These are the rows that :meth:`Corpus.from_rows` gives the documents.
    """
    target = {gazetteer.target_entry}
    return [
        row
        for row, d in enumerate(docs, 1)
        if oracle_country_mentions(d.text, gazetteer) == target
    ]


def _oracle_date(value, path: Path, row: int) -> datetime.date:
    digits = "0123456789"
    if not (
        len(value) == 10
        and value[4] == value[7] == "-"
        and all(c in digits for c in value[:4] + value[5:7] + value[8:])
    ):
        raise row_error(path, row, f"invalid date {value!r}")
    try:
        return datetime.date(int(value[:4]), int(value[5:7]), int(value[8:]))
    except ValueError:
        raise row_error(path, row, f"invalid date {value!r}") from None


def _oracle_document(values: dict, path: Path, row: int, hazards, seen_ids: set) -> Document:
    doc_id = values["id"]
    if not doc_id:
        raise row_error(path, row, "empty field 'id'")
    if doc_id in seen_ids:
        raise row_error(path, row, f"duplicate document id {doc_id!r}")
    seen_ids.add(doc_id)
    hazard = values["hazard"]
    if hazard not in hazards:
        raise row_error(path, row, f"unknown hazard label {hazard!r}")
    text = values["text"]
    text_key = values.get("text_key") or text_digest(text)
    # The field order README documents, spelled out here rather than taken
    # from Document._fields; a Document equals the plain tuple of its fields.
    # A corpus keeps no id: the row stands in its place.
    return (
        row,
        _oracle_date(values["date"], path, row),
        sys.intern(values["outlet"]),
        sys.intern(values["text_type"]),
        sys.intern(hazard),
        text,
        text_key,
    )


def oracle_load_documents(path, format: str = "csv", hazards=("landslide", "fire")):
    """The per-row document loader: one dict and one full parse per row.

    A copy of the loader before it became a single row loop with caches,
    with the documented rules where that loader was looser or
    nondeterministic: dates are exactly ASCII ``YYYY-MM-DD`` (checked by
    hand here, not by ``date.fromisoformat``, which accepts more from Python
    3.11 on), a JSON-lines file may start with a UTF-8 BOM, the first
    non-string JSON field is named in column order, a JSON field that
    holds a lone surrogate is an error, and so is a line that the JSON
    parser gives up on (too deep, or a number with too many digits). Each
    document's ``id`` slot holds its row, the CSV header being row 0.
    """
    path = Path(path)
    columns = ("id", "date", "outlet", "text_type", "hazard", "text")
    docs: list[Document] = []
    seen_ids: set = set()
    if format == "csv":
        row_number = -1
        try:
            with path.open(newline="", encoding="utf-8-sig") as handle:
                reader = csv_reader(handle)
                try:
                    header = next(reader)
                except StopIteration:
                    raise InputError(
                        f"document file {str(path)!r} is empty (header expected)"
                    ) from None
                row_number = 0
                expected = list(columns)
                if header not in (expected, expected + ["text_key"]):
                    raise InputError(
                        f"unexpected document header in {str(path)!r}: {header!r} "
                        f"(expected {','.join(expected)}[,text_key])"
                    )
                for row_number, row in enumerate(reader, start=1):
                    if len(row) != len(header):
                        reason = f"expected {len(header)} fields, got {len(row)}"
                        raise row_error(path, row_number, reason)
                    values = dict(zip(header, row))
                    values.setdefault("text_key", "")
                    docs.append(_oracle_document(values, path, row_number, hazards, seen_ids))
        except UnicodeDecodeError:
            raise undecodable(path) from None
        except csv.Error as exc:
            raise row_error(path, row_number + 1, f"malformed CSV: {exc}") from None
        return docs
    allowed = columns + ("text_key",)
    try:
        with path.open(encoding="utf-8-sig") as handle:
            for row_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise row_error(path, row_number, f"malformed JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise row_error(path, row_number, "expected a JSON object")
                unknown = sorted(set(record) - set(allowed))
                if unknown:
                    raise row_error(path, row_number, f"unknown field {unknown[0]!r}")
                missing = [k for k in columns if k not in record]
                if missing:
                    raise row_error(path, row_number, f"missing field {missing[0]!r}")
                values = {k: record.get(k, "") for k in allowed}
                for key, value in values.items():
                    if not isinstance(value, str):
                        raise row_error(path, row_number, f"field {key!r} must be a string")
                for key, value in values.items():
                    if any("\ud800" <= char <= "\udfff" for char in value):
                        reason = f"field {key!r} holds an unpaired surrogate escape"
                        raise row_error(path, row_number, reason)
                docs.append(_oracle_document(values, path, row_number, hazards, seen_ids))
    except UnicodeDecodeError:
        raise undecodable(path, jsonl=True) from None
    return docs


def _oracle_gazetteer(path: Path, target: str) -> Gazetteer:
    """The gazetteer of ``path``: each stripped line that is not blank and not a comment."""
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8-sig").splitlines()]
    return Gazetteer(tuple(line for line in lines if line and not line.startswith("#")), target)


def _oracle_corpus_stats(docs, hazard: str, counts: Counter) -> dict:
    """One hazard's ``corpus_stats.json`` entry from its kept documents and day counts."""
    mine = [d for d in docs if d[4] == hazard]
    active = np.array([counts[day] for day in sorted(counts)], dtype=np.int64)  # in day order
    return {
        "n_articles": len(mine),
        "n_text_types": len({d[6] for d in mine}),
        "n_genres": len({d[3] for d in mine}),
        "daily_max": int(active.max()) if active.size else 0,
        "n_active_days": int(active.size),
        "active_mean": float(active.mean()) if active.size else None,
        "active_std": float(active.std()) if active.size else None,
        "n_outlets": len({d[2] for d in mine}),
    }


def oracle_outputs(inputs: dict, config, command: str) -> dict[str, bytes]:
    """The files that ``run_pipeline(config, command)`` writes, by name, from the stage oracles.

    ``inputs`` names each input file by its role, as a run's manifest
    does (``documents``, ``gazetteer``, ``registry_<source>``), registries
    in the order the run loads them; ``config`` gives the parameters. Only
    ``ingest``, ``detect``, ``measure`` and ``align`` are rendered so far.
    An input error is the InputError that the run raises, tagged with its
    stage.
    """
    if command not in ("ingest", "detect", "measure", "align"):
        raise NotImplementedError(command)
    hazards = tuple(dict.fromkeys(config.run_hazards or config.hazards))
    unknown = [h for h in hazards if h not in config.hazards]
    if unknown:
        raise InputError(
            f"config: --hazard {unknown[0]!r} is not in the configured vocabulary "
            f"{', '.join(config.hazards)}"
        )
    # A shipped entry may keep its own hazard; any other must name a configured one.
    for raw_type, hazard in sorted(config.type_map.items(), key=lambda item: item[1]):
        if hazard not in ("ignore", *config.hazards) and DEFAULT_TYPE_MAP.get(raw_type) != hazard:
            raise InputError(
                f"config: type map target {hazard!r} is neither a configured hazard nor 'ignore'"
            )
    start, end = config.start, config.end
    try:
        gazetteer = _oracle_gazetteer(inputs["gazetteer"], config.target)
        path = Path(inputs["documents"])
        docs = oracle_load_documents(path, config.doc_format, config.hazards)
        of_run = in_corpus_order([Document(*d) for d in docs if d[4] in hazards], hazards)
        kept = [of_run[row - 1] for row in oracle_filter_ids(of_run, gazetteer)]
        counts = {h: oracle_count_series(kept, h, start, end, path) for h in hazards}
    except InputError as exc:
        raise InputError(f"ingest: {exc}") from None
    days = [start + datetime.timedelta(days=i) for i in range((end - start).days + 1)]
    if command == "ingest":
        stats = {h: _oracle_corpus_stats(kept, h, counts[h]) for h in hazards}
        text = json.dumps(stats, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        files = {"corpus_stats.json": text.encode("utf-8")}
        return files | {
            f"timeseries_{h}.csv": _oracle_timeseries(counts[h], days, []) for h in hazards
        }
    events = _oracle_events(config, counts, days)
    if command == "measure":
        return _oracle_measure_files({h: oracle_measures(events[h], kept) for h in hazards})
    if command == "align":
        every_event = [event for of_hazard in events.values() for event in of_hazard]
        return {"alignment.json": _oracle_alignment_file(inputs, config, hazards, every_event)}
    lines = [
        json.dumps(
            {
                "hazard": event.hazard,
                "peak_date": str(event.peak_date),
                "start_date": str(event.start_date),
                "end_date": str(event.end_date),
                "days": [{"date": str(day), "count": count} for day, count in event.day_counts],
            },
            ensure_ascii=False,
            separators=(",", ":"),
        )
        + "\n"
        for of_hazard in events.values()
        for event in of_hazard
    ]
    files = {"events.jsonl": "".join(lines).encode("utf-8")}
    return files | {
        f"timeseries_{h}.csv": _oracle_timeseries(counts[h], days, events[h]) for h in hazards
    }


def _oracle_events(config, counts: dict, days) -> dict[str, list[NewsEvent]]:
    """Each hazard's news events, in ``counts`` order, by the peak and segment oracles."""
    events = {}
    for h, by_offset in counts.items():
        values = [by_offset[i] for i in range(len(days))]
        peaks = oracle_peaks(values, config.min_height, config.min_distance)
        events[h] = [
            NewsEvent(h, days[peak], days[first], days[last], tuple((days[i], n) for i, n in spans))
            for peak, first, last, spans in oracle_segments(values, peaks)
        ]
    return events


def _oracle_timeseries(by_offset: Counter, days, events: list[NewsEvent]) -> bytes:
    """``timeseries_<hazard>.csv``: an event's days run from its start to its end date."""
    event_days = {
        event.start_date + datetime.timedelta(days=i)
        for event in events
        for i in range((event.end_date - event.start_date).days + 1)
    }
    peak_days = {event.peak_date for event in events}
    rows = "".join(
        f"{day},{by_offset[i]},{int(day in event_days)},{int(day in peak_days)}\n"
        for i, day in enumerate(days)
    )
    return ("date,count,is_event_day,is_peak\n" + rows).encode()


_MEASURES_CSV_HEADER = (
    "hazard,event_id,peak_date,n_at_peak,total_volume,duration_days,days_since_last,"
    "days_to_peak,days_to_fade,n_text_types,n_outlets,n_genres,days_since_last_peak"
)


def _oracle_measure_files(measures: dict[str, list[MeasureSet]]) -> dict[str, bytes]:
    """``measures.csv``, None as an empty cell, and ``summaries.json`` of each hazard's measures."""
    rows = [_MEASURES_CSV_HEADER]
    rows += [
        ",".join("" if value is None else str(value) for value in asdict(m).values())
        for of_hazard in measures.values()
        for m in of_hazard
    ]
    summaries = {}
    for h, of_hazard in measures.items():
        columns = {}
        for column in _MEASURES_CSV_HEADER.split(",")[3:]:
            values = [getattr(m, column) for m in of_hazard if getattr(m, column) is not None]
            columns[column] = asdict(oracle_summarize(values)) if values else None
        summaries[h] = {"n_events": len(of_hazard), "measures": columns}
    text = json.dumps(summaries, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    return {
        "measures.csv": "".join(row + "\n" for row in rows).encode("utf-8"),
        "summaries.json": text.encode("utf-8"),
    }


def _oracle_alignment_file(inputs: dict, config, hazards, events: list[NewsEvent]) -> bytes:
    """``alignment.json`` for the run's events.

    Only the S2ID file is filtered by ``s2id_accept``. Every registry is
    tallied whole, but the records of a hazard the run leaves out take no
    part in the alignment, so none of them is unmatched.
    """
    loads, records = {}, []
    try:
        for role, path in inputs.items():
            if not role.startswith("registry_"):
                continue
            source = role[len("registry_"):]
            accept = config.s2id_accept if source == "S2ID" else None
            loads[source] = oracle_load_registry(path, source, config.type_map, accept)
            records += [r for r in loads[source].records if r.hazard in hazards]
    except InputError as exc:
        raise InputError(f"align: {exc}") from None
    report = oracle_alignment_report(events, records, config.window_days)
    return oracle_alignment_json(report, loads).encode("utf-8")


def write_small_corpus(root, with_registries: bool = True):
    """A tiny end-to-end fixture: config + documents + registries.

    Yields one landslide event (2020-01-10..12, peak on the 11th) and one
    fire event (2020-02-05); one document is dropped by the country filter.
    Returns the config path.
    """
    rows = [
        "id,date,outlet,text_type,hazard,text",
        "L1,2020-01-10,Blatt 1,Bericht,landslide,Erdrutsch in Brasilien A",
        "L2,2020-01-11,Blatt 1,Bericht,landslide,Erdrutsch in Brasilien B",
        "L3,2020-01-11,Blatt 2,Meldung,landslide,Erdrutsch in Brasilien C",
        "L4,2020-01-11,Blatt 3,Bericht,landslide,Erdrutsch in Brasilien D",
        "L5,2020-01-12,Blatt 2,Bericht,landslide,Erdrutsch in Brasilien E",
        "LX,2020-01-11,Blatt 4,Bericht,landslide,Brasilien und Peru",
        "F1,2020-02-05,Blatt 1,Bericht,fire,Feuer in Brasilien A",
        "F2,2020-02-05,Blatt 5,Meldung,fire,Feuer in Brasilien B",
    ]
    (root / "documents.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config_lines = [
        "[corpus]",
        "documents = documents.csv",
        "format = csv",
        "hazards = landslide, fire",
        "",
        "[range]",
        "start = 2020-01-01",
        "end = 2020-12-31",
        "",
        "[peaks]",
        "min_height = 2",
        "min_distance = 7",
        "",
        "[output]",
        "dir = out",
    ]
    if with_registries:
        (root / "emdat.csv").write_text(
            "record_id,source,raw_type,onset_date,location,status\n"
            'EM-1,EMDAT,"Mass movement (wet)",2020-01-09,Rio de Janeiro,\n'
            "EM-2,EMDAT,Wildfire,2019-06-01,Acre,\n",
            encoding="utf-8",
        )
        config_lines += ["", "[align]", "window_days = 5", "emdat = emdat.csv"]
    config_path = root / "config.ini"
    config_path.write_text("\n".join(config_lines) + "\n", encoding="utf-8")
    return config_path


def random_series(rng: np.random.Generator, max_len: int = 400, max_value: int = 10):
    length = int(rng.integers(1, max_len + 1))
    # Mostly-sparse draws so zero-separated bursts dominate, as in real data.
    values = rng.integers(0, max_value + 1, size=length)
    mask = rng.random(length) < 0.55
    values[mask] = 0
    return make_series(values)


def random_corpus(rng: np.random.Generator, series: CountSeries):
    """Documents behind ``series`` plus up to 30 fire documents in its range, shuffled.

    Text keys, outlets and genres come from small pools, so they repeat
    within a day and across an event's days; the fire documents have
    outlets of their own.
    """
    docs = []
    for offset, count in enumerate(series.counts):
        day = series.start + datetime.timedelta(days=offset)
        for _ in range(count):
            docs.append(
                make_doc(
                    f"L{len(docs)}",
                    day,
                    hazard=series.hazard,
                    outlet=f"Blatt {rng.integers(4)}",
                    text_type=f"Genre {rng.integers(3)}",
                    text_key=f"key-{rng.integers(6)}",
                )
            )
    for _ in range(int(rng.integers(0, 31))):
        day = series.start + datetime.timedelta(days=int(rng.integers(len(series.counts))))
        docs.append(make_doc(f"F{len(docs)}", day, hazard="fire", outlet="Feuerblatt"))
    return [docs[i] for i in rng.permutation(len(docs))]
