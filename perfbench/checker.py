"""Output checker for one ``attn-peaks run`` output directory.

Every expected output is worked out here from the generator's ground truth
(:class:`workloads.Workload`) with the documented rule of each stage: the
daily counts, the news events, their measures and box-plot summaries, the
alignment pairs, the run report and the run manifest. Nothing is imported
from ``attn_peaks``, and nothing expected is taken from the run's own files.
:func:`check_outputs` returns a list of problems; an empty list means the
run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    CONFIG_TYPE_MAP,
    DAY_NAMES,
    HAZARDS,
    MIN_DISTANCE,
    MIN_HEIGHT,
    N_DAYS,
    S2ID_ACCEPT,
    TARGET,
    WINDOW_DAYS,
    Workload,
)

_DAY_INDEX = {name: i for i, name in enumerate(DAY_NAMES)}

MEASURE_HEADER = (
    "hazard,event_id,peak_date,n_at_peak,total_volume,duration_days,days_since_last,"
    "days_to_peak,days_to_fade,n_text_types,n_outlets,n_genres,days_since_last_peak"
)
MEASURE_COLUMNS = MEASURE_HEADER.split(",")[3:]


class CheckFailed(Exception):
    pass


def digest_dir(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    return {path.name: _sha256(path) for path in sorted(directory.iterdir()) if path.is_file()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compare(got, want, where: str) -> None:
    """``got`` must equal ``want``; floats within rounding, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            keys = sorted(got) if isinstance(got, dict) else got
            raise CheckFailed(f"{where}: {keys!r}, expected keys {sorted(want)}")
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: {got!r}, expected {len(want)} items")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if (
            isinstance(got, bool)
            or not isinstance(got, (int, float))
            or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        ):
            raise CheckFailed(f"{where}: {got!r}, expected {want!r}")
    elif type(got) is not type(want) or got != want:
        raise CheckFailed(f"{where}: {got!r}, expected {want!r}")


def expected_events(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(peak, start, end) day offsets of the news events of one daily series.

    Candidates are local maxima: a run of equal counts strictly above the runs
    on both sides, taken at its midpoint rounded down; the runs that hold the
    first or the last day never qualify. Candidates with a count of at least
    ``MIN_HEIGHT`` are kept highest count first (the later day on ties) unless
    a kept peak lies fewer than ``MIN_DISTANCE`` days away. Each peak spans
    its run of active days; a run with several peaks is cut between
    consecutive peaks at the earliest smallest count strictly between them,
    and the cut day goes to the earlier event.
    """
    n = counts.size
    change = np.flatnonzero(np.diff(counts)) + 1
    first = np.concatenate([[0], change])
    last = np.concatenate([change - 1, [n - 1]])
    level = counts[first]
    inner = np.arange(1, first.size - 1)
    top = inner[(level[inner] > level[inner - 1]) & (level[inner] > level[inner + 1])]
    candidates = (first[top] + last[top]) // 2
    candidates = candidates[counts[candidates] >= MIN_HEIGHT].tolist()
    blocked = np.zeros(n, dtype=bool)
    peaks = []
    for i in sorted(candidates, key=lambda i: (counts[i], i), reverse=True):
        if not blocked[i]:
            peaks.append(i)
            blocked[max(0, i - MIN_DISTANCE + 1) : i + MIN_DISTANCE] = True
    peaks.sort()
    zeros = np.flatnonzero(counts == 0)
    events: list[tuple[int, int, int]] = []
    for k, peak in enumerate(peaks):
        at = int(np.searchsorted(zeros, peak))
        start = int(zeros[at - 1]) + 1 if at else 0
        end = int(zeros[at]) - 1 if at < zeros.size else n - 1
        if events and events[-1][2] >= start:  # the previous peak shares this run
            start = events[-1][2] + 1
        if k + 1 < len(peaks) and peaks[k + 1] <= end:
            between = counts[peak + 1 : peaks[k + 1]]
            end = peak + 1 + int(np.argmin(between)) if between.size else peak
        events.append((peak, start, end))
    return events


def _day(name: str) -> int:
    try:
        return _DAY_INDEX[name]
    except KeyError:
        raise CheckFailed(f"date {name!r} outside {DAY_NAMES[0]}..{DAY_NAMES[-1]}") from None


def _read_timeseries(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["date", "count", "is_event_day", "is_peak"]:
        raise CheckFailed(f"{path.name}: header {rows[0]!r}")
    body = rows[1:]
    if [r[0] for r in body] != DAY_NAMES:
        raise CheckFailed(f"{path.name}: dates are not the consecutive days of the range")
    table = np.array([[int(v) for v in r[1:]] for r in body], dtype=np.int64)
    return table[:, 0], table[:, 1], table[:, 2]


def _check_events(path: Path, events: dict[int, list[tuple[int, int, int]]], counts: list) -> None:
    """``events.jsonl`` must hold exactly the expected events, hazard by hazard."""
    got: dict[int, list[tuple[int, int, int]]] = {h: [] for h in range(len(HAZARDS))}
    order = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        hazard = HAZARDS.index(record["hazard"])
        event = (_day(record["peak_date"]), _day(record["start_date"]), _day(record["end_date"]))
        where = f"events.jsonl {record['hazard']}-{record['peak_date']}"
        if [_day(d["date"]) for d in record["days"]] != list(range(event[1], event[2] + 1)):
            raise CheckFailed(f"{where}: days are not start..end")
        if [d["count"] for d in record["days"]] != counts[hazard][event[1] : event[2] + 1].tolist():
            raise CheckFailed(f"{where}: day counts differ from the true series")
        got[hazard].append(event)
        order.append(hazard)
    if order != sorted(order):
        raise CheckFailed("events.jsonl: hazards are not in configured order")
    for h, hazard in enumerate(HAZARDS):
        if got[h] != events[h]:
            missing = sorted(set(events[h]) - set(got[h]))[:3]
            extra = sorted(set(got[h]) - set(events[h]))[:3]
            raise CheckFailed(
                f"events.jsonl: {len(got[h])} {hazard} events, expected {len(events[h])} "
                f"(missing e.g. {missing}, unexpected e.g. {extra}; as (peak, start, end) days)"
            )


def _event_id(hazard: int, peak: int) -> str:
    return f"{HAZARDS[hazard]}-{DAY_NAMES[peak]}"


def _distinct(values: np.ndarray) -> int:
    return int(np.unique(values).size)


def _expected_measures(
    workload: Workload, hazard: int, events: list[tuple[int, int, int]], counts: np.ndarray
) -> list[list]:
    """One ``measures.csv`` row per event, as values (None for an empty cell)."""
    mask = workload.kept_hazard == hazard
    order = np.argsort(workload.kept_day[mask], kind="stable")
    day = workload.kept_day[mask][order]
    outlet = workload.kept_outlet[mask][order]
    genre = workload.kept_genre[mask][order]
    text = workload.kept_text[mask][order]
    rows = []
    previous = None
    for peak, start, end in events:
        lo, hi = np.searchsorted(day, [start, end + 1])
        rows.append(
            [
                HAZARDS[hazard],
                _event_id(hazard, peak),
                DAY_NAMES[peak],
                int(counts[peak]),
                int(counts[start : end + 1].sum()),
                end - start + 1,
                None if previous is None else start - previous[2],
                peak - start,
                end - peak,
                _distinct(text[lo:hi]),
                _distinct(outlet[lo:hi]),
                _distinct(genre[lo:hi]),
                None if previous is None else peak - previous[0],
            ]
        )
        previous = (peak, start, end)
    return rows


def _box_stats(values: list[int]) -> dict:
    """Quartiles by linear interpolation, whiskers and outliers at 1.5 IQR."""
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = (float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0]))
    reach = 1.5 * (q3 - q1)
    inside = (arr >= q1 - reach) & (arr <= q3 + reach)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "whisker_low": float(arr[inside].min()),
        "whisker_high": float(arr[inside].max()),
        "outliers": sorted(float(v) for v in arr[~inside]),
        "n": int(arr.size),
    }


def _expected_summary(rows: list[list]) -> dict:
    measures = {}
    for c, column in enumerate(MEASURE_COLUMNS, start=3):
        values = [row[c] for row in rows if row[c] is not None]
        measures[column] = _box_stats(values) if values else None
    return {"n_events": len(rows), "measures": measures}


def _expected_corpus(workload: Workload, hazard: int, counts: np.ndarray) -> dict:
    mask = workload.kept_hazard == hazard
    active = counts[counts > 0]
    return {
        "n_articles": int(mask.sum()),
        "n_text_types": _distinct(workload.kept_text[mask]),
        "n_genres": _distinct(workload.kept_genre[mask]),
        "n_outlets": _distinct(workload.kept_outlet[mask]),
        "daily_max": int(counts.max(initial=0)),
        "n_active_days": int(active.size),
        "active_mean": float(active.mean()) if active.size else None,
        "active_std": float(active.std()) if active.size else None,
    }


def _expected_pairs(workload: Workload, events: dict[int, list[tuple]]) -> list[tuple]:
    """All (event, record) pairs with equal hazard and 0 <= start - onset <= window."""
    pairs = []
    for registry in workload.registries:
        ids = np.array(registry.record_ids, dtype=object)
        for hazard, hazard_events in events.items():
            if not hazard_events:
                continue
            onsets = registry.onsets[registry.hazards == hazard]
            rec_ids = ids[registry.hazards == hazard]
            starts = np.array([start for _, start, _ in hazard_events])
            lag = starts[:, None] - onsets[None, :]
            ev, rec = np.nonzero((lag >= 0) & (lag <= WINDOW_DAYS))
            for i, j in zip(ev.tolist(), rec.tolist()):
                pairs.append(
                    (
                        _event_id(hazard, hazard_events[i][0]),
                        registry.source,
                        rec_ids[j],
                        HAZARDS[hazard],
                        int(lag[i, j]),
                    )
                )
    return sorted(pairs)


def _check_alignment(
    workload: Workload, events: dict[int, list[tuple]], alignment: dict
) -> dict:
    """Checks ``alignment.json``; returns the expected ``report.json`` alignment section."""
    expected = _expected_pairs(workload, events)
    got = sorted(
        (p["event_id"], p["source"], p["record_id"], p["hazard"], p["lag_days"])
        for p in alignment["pairs"]
    )
    if got != expected:
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        raise CheckFailed(
            f"alignment.json: {len(got)} pairs, expected {len(expected)} "
            f"(missing e.g. {missing}, unexpected e.g. {extra})"
        )
    aligned: dict[str, dict[str, set]] = {}
    for event_id, source, _, hazard, _ in expected:
        aligned.setdefault(source, {}).setdefault(hazard, set()).add(event_id)
    aligned_counts = {s: {h: len(ids) for h, ids in hs.items()} for s, hs in aligned.items()}
    matched = {p[0] for p in expected}
    all_ids = sorted(_event_id(h, peak) for h, hz in events.items() for peak, _, _ in hz)
    matched_records = {(p[1], p[2]) for p in expected}
    unmatched = sorted(
        (r.source, rid) for r in workload.registries for rid in r.record_ids
        if (r.source, rid) not in matched_records
    )
    _compare(
        {k: v for k, v in alignment.items() if k != "pairs"},
        {
            "window_days": WINDOW_DAYS,
            "registries": {
                r.source: {
                    "records": len(r.record_ids),
                    "ignored_by_type": r.n_ignored_by_type,
                    "dropped_by_status": r.n_dropped_by_status,
                }
                for r in workload.registries
            },
            "aligned_events_by_source": aligned_counts,
            "unmatched_events": [i for i in all_ids if i not in matched],
            "unmatched_records": [{"source": s, "record_id": r} for s, r in unmatched],
        },
        "alignment.json",
    )
    sources = {s for s, _ in unmatched} | {p[1] for p in expected}
    return {
        "window_days": WINDOW_DAYS,
        "n_events_total": len(all_ids),
        "events_aligned_any_source": len(matched),
        "aligned_fraction": len(matched) / len(all_ids) if all_ids else None,
        "by_source": {
            source: {
                "aligned_events_by_hazard": aligned_counts.get(source, {}),
                "aligned_events_total": sum(aligned_counts.get(source, {}).values()),
                "unmatched_records": sum(1 for s, _ in unmatched if s == source),
            }
            for source in sources
        },
    }


def _check_manifest(workload: Workload, manifest: dict) -> None:
    if set(manifest) != {"tool", "version", "command", "parameters", "inputs"}:
        raise CheckFailed(f"manifest.json: keys {sorted(manifest)}")
    if manifest["tool"] != "attn-peaks" or manifest["command"] != "run":
        raise CheckFailed("manifest.json: wrong tool or command")
    if not isinstance(manifest["version"], str) or not manifest["version"]:
        raise CheckFailed("manifest.json: no version")
    parameters = dict(manifest["parameters"])
    type_map = parameters.pop("type_map", {})
    if {raw: type_map.get(raw) for raw in CONFIG_TYPE_MAP} != CONFIG_TYPE_MAP:
        raise CheckFailed("manifest.json: type_map lacks the configured entries")
    _compare(
        parameters,
        {
            "start": DAY_NAMES[0],
            "end": DAY_NAMES[-1],
            "hazards": list(HAZARDS),
            "doc_format": workload.inputs["documents"].suffix.lstrip("."),
            "target": TARGET,
            "min_height": MIN_HEIGHT,
            "min_distance": MIN_DISTANCE,
            "window_days": WINDOW_DAYS,
            "s2id_accept": [S2ID_ACCEPT],
        },
        "manifest.json parameters",
    )
    inputs = manifest["inputs"]
    if set(inputs) != set(workload.inputs):
        raise CheckFailed(f"manifest.json: inputs {sorted(inputs)} != {sorted(workload.inputs)}")
    for role, path in workload.inputs.items():
        if Path(inputs[role]["path"]).resolve() != path.resolve():
            raise CheckFailed(f"manifest.json: {role} path {inputs[role]['path']}")
        if inputs[role]["sha256"] != _sha256(path):
            raise CheckFailed(f"manifest.json: {role} sha256 differs from the input file")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check(workload: Workload, out_dir: Path) -> None:
    names = {p.name for p in out_dir.iterdir()}
    expected_files = {f"timeseries_{h}.csv" for h in HAZARDS} | {
        "corpus_stats.json", "events.jsonl", "measures.csv", "summaries.json",
        "alignment.json", "report.json", "manifest.json",
    }
    if names != expected_files:
        raise CheckFailed(f"output files {sorted(names)} != {sorted(expected_files)}")
    counts = [workload.daily_counts(h) for h in range(len(HAZARDS))]
    events = {h: expected_events(counts[h]) for h in range(len(HAZARDS))}
    _check_events(out_dir / "events.jsonl", events, counts)
    corpus = {}
    measure_rows = {}
    for h, hazard in enumerate(HAZARDS):
        got_counts, event_flags, peak_flags = _read_timeseries(out_dir / f"timeseries_{hazard}.csv")
        if not np.array_equal(got_counts, counts[h]):
            bad = int(np.flatnonzero(got_counts != counts[h])[0])
            raise CheckFailed(
                f"timeseries_{hazard}.csv: count on {DAY_NAMES[bad]} is {got_counts[bad]}, "
                f"expected {counts[h][bad]}"
            )
        event_days = np.zeros(N_DAYS, dtype=np.int64)
        peak_days = np.zeros(N_DAYS, dtype=np.int64)
        for peak, start, end in events[h]:
            event_days[start : end + 1] = 1
            peak_days[peak] = 1
        if not (np.array_equal(event_flags, event_days) and np.array_equal(peak_flags, peak_days)):
            raise CheckFailed(f"timeseries_{hazard}.csv: event/peak flags differ from the expected events")
        corpus[hazard] = _expected_corpus(workload, h, counts[h])
        measure_rows[hazard] = _expected_measures(workload, h, events[h], counts[h])
    _compare(_read_json(out_dir / "corpus_stats.json"), corpus, "corpus_stats.json")
    measure_lines = (out_dir / "measures.csv").read_text(encoding="utf-8").splitlines()
    if measure_lines[0] != MEASURE_HEADER:
        raise CheckFailed(f"measures.csv: header {measure_lines[0]!r}")
    expected_lines = [
        ",".join("" if v is None else str(v) for v in row)
        for rows in measure_rows.values() for row in rows
    ]
    if measure_lines[1:] != expected_lines:
        bad = next(
            (i for i, (a, b) in enumerate(zip(measure_lines[1:], expected_lines)) if a != b),
            min(len(measure_lines) - 1, len(expected_lines)),
        )
        got = measure_lines[1 + bad] if bad + 1 < len(measure_lines) else None
        want = expected_lines[bad] if bad < len(expected_lines) else None
        raise CheckFailed(f"measures.csv row {bad + 1}: {got!r}, expected {want!r}")
    _compare(
        _read_json(out_dir / "summaries.json"),
        {hazard: _expected_summary(rows) for hazard, rows in measure_rows.items()},
        "summaries.json",
    )
    alignment_summary = _check_alignment(workload, events, _read_json(out_dir / "alignment.json"))
    _compare(
        _read_json(out_dir / "report.json"),
        {
            "range": {"start": DAY_NAMES[0], "end": DAY_NAMES[-1]},
            "hazards": list(HAZARDS),
            "corpus": corpus,
            "n_events": {hazard: len(events[h]) for h, hazard in enumerate(HAZARDS)},
            "alignment": alignment_summary,
        },
        "report.json",
    )
    _check_manifest(workload, _read_json(out_dir / "manifest.json"))


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Problems found in ``out_dir``; empty when the run's outputs are correct."""
    try:
        _check(workload, out_dir)
    except CheckFailed as exc:
        return [str(exc)]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []
