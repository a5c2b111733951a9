"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line so
the gate can be read off the test output directly:

    pytest tests/test_acceptance.py -v -s
"""

import csv
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from attn_peaks import (
    Corpus,
    DisasterRecord,
    NewsEvent,
    PeakParams,
    align_events,
    build_count_series,
    detect_events,
    load_config,
    measure_events,
    run_pipeline,
)
from attn_peaks.ingest import filter_single_country, load_gazetteer
from attn_peaks.peaks import detect_peaks
from support import docs_matching_series, make_doc, make_series, oracle_peaks, random_series

D = datetime.date


def _report(name: str, ok: bool) -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")


class _Criterion:
    """Prints the PASS/FAIL line no matter how the test body exits."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.name, exc_type is None)
        return False


def test_peak_oracle_equivalence():
    with _Criterion("peak-oracle equivalence (1,000 random series)"):
        rng = np.random.default_rng(20240101)
        started = time.perf_counter()
        mismatches = 0
        for _ in range(1000):
            series = random_series(rng, max_len=400, max_value=10)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            expected = oracle_peaks(series.counts, params.min_height, params.min_distance)
            if detect_peaks(series, params) != expected:
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_calendar_invariant():
    with _Criterion("calendar invariant (9,132 day slots, leap day)"):
        series = build_count_series(Corpus(), "landslide", D(2000, 1, 1), D(2024, 12, 31))
        assert series.n_days == 9132
        leap_index = series.index_of(D(2000, 2, 29))
        assert series.day_at(leap_index) == D(2000, 2, 29)
        docs = [make_doc("leap", D(2000, 2, 29), outlet="o", text_type="t", text="x", text_key="k")]
        corpus = Corpus.from_rows(docs)
        with_doc = build_count_series(corpus, "landslide", D(2000, 1, 1), D(2024, 12, 31))
        assert with_doc.counts[leap_index] == 1


# Hand-computed expectations for the golden corpus: six planted bursts,
# noise days below the height threshold, thirty filtered documents.
GOLDEN_EVENTS = [
    ("landslide-2011-01-14", "2011-01-12", "2011-01-16", 28, 59),
    ("landslide-2015-11-05", "2015-11-05", "2015-11-05", 4, 4),
    ("landslide-2019-01-26", "2019-01-25", "2019-01-27", 16, 28),
    ("landslide-2022-02-15", "2022-02-15", "2022-02-17", 11, 18),
    ("fire-2013-01-27", "2013-01-27", "2013-01-28", 14, 20),
    ("fire-2019-08-21", "2019-08-20", "2019-08-23", 18, 31),
]

# (event_id, n_at_peak, total, duration, since_last, to_peak, to_fade,
#  text_types, outlets, genres, since_last_peak)
GOLDEN_MEASURES = [
    ("landslide-2011-01-14", 28, 59, 5, None, 2, 2, 59, 7, 3, None),
    ("landslide-2015-11-05", 4, 4, 1, 1754, 0, 0, 3, 4, 3, 1756),
    ("landslide-2019-01-26", 16, 28, 3, 1177, 1, 1, 28, 7, 3, 1178),
    ("landslide-2022-02-15", 11, 18, 3, 1115, 0, 2, 18, 7, 3, 1116),
    ("fire-2013-01-27", 14, 20, 2, None, 0, 1, 20, 7, 3, None),
    ("fire-2019-08-21", 18, 31, 4, 2395, 1, 2, 31, 7, 3, 2397),
]

GOLDEN_PAIRS = [
    ("fire-2013-01-27", "EM-0005", 0),
    ("fire-2019-08-21", "S2-0008", 4),
    ("landslide-2011-01-14", "EM-0001", 1),
    ("landslide-2011-01-14", "EM-0002", 0),
    ("landslide-2019-01-26", "EM-0003", 5),
    ("landslide-2022-02-15", "S2-0007", 0),
]


def _golden_run(golden_dir: Path, out_dir: Path, documents: Path | None = None):
    config = load_config(golden_dir / "config.ini")
    if documents is not None:
        config.documents = documents
    config.out_dir = out_dir
    return run_pipeline(config, "run")


def _read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
    }


def _permuted_copy(src: Path, dst: Path, rng: np.random.Generator) -> None:
    lines = src.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    rng.shuffle(rows)
    dst.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_golden_synthetic_corpus(golden_dir, tmp_path):
    with _Criterion("golden synthetic corpus (events, measures, alignment, bytes)"):
        artifacts = _golden_run(golden_dir, tmp_path / "run1")

        events = [e for h in ("landslide", "fire") for e in artifacts.events[h]]
        got_events = [
            (
                e.event_id,
                e.start_date.isoformat(),
                e.end_date.isoformat(),
                e.peak_count,
                e.total_volume,
            )
            for e in events
        ]
        assert got_events == GOLDEN_EVENTS
        assert len(artifacts.events["landslide"]) == 4
        assert len(artifacts.events["fire"]) == 2

        measures = [m for h in ("landslide", "fire") for m in artifacts.measures[h]]
        got_measures = [
            (
                m.event_id,
                m.n_at_peak,
                m.total_volume,
                m.duration_days,
                m.days_since_last,
                m.days_to_peak,
                m.days_to_fade,
                m.n_text_types,
                m.n_outlets,
                m.n_genres,
                m.days_since_last_peak,
            )
            for m in measures
        ]
        assert got_measures == GOLDEN_MEASURES

        got_pairs = [
            (p.event_id, p.record_id, p.lag_days) for p in artifacts.alignment.pairs
        ]
        assert got_pairs == GOLDEN_PAIRS
        assert artifacts.alignment.unmatched_events == ["landslide-2015-11-05"]
        assert artifacts.alignment.unmatched_records == [
            ("EMDAT", "EM-0004"),
            ("S2ID", "S2-0010"),
        ]
        assert artifacts.registry_loads["EMDAT"].n_ignored_by_type == 1
        assert artifacts.registry_loads["S2ID"].n_dropped_by_status == 1
        assert artifacts.report["alignment"]["aligned_fraction"] == pytest.approx(5 / 6)

        # byte-identity against the checked-in expected artifacts
        expected = _read_artifacts(golden_dir / "expected")
        first = _read_artifacts(tmp_path / "run1")
        assert first == expected

        # two consecutive runs are byte-identical, manifest included
        second_run = _golden_run(golden_dir, tmp_path / "run2")
        assert _read_artifacts(tmp_path / "run2") == expected
        assert (
            (tmp_path / "run2" / "manifest.json").read_bytes()
            == (tmp_path / "run1" / "manifest.json").read_bytes()
        )

        # permuting the input rows changes nothing
        rng = np.random.default_rng(1)
        permuted = tmp_path / "permuted.csv"
        _permuted_copy(golden_dir / "documents.csv", permuted, rng)
        _golden_run(golden_dir, tmp_path / "run3", documents=permuted)
        assert _read_artifacts(tmp_path / "run3") == expected


def test_alignment_window_property_suite():
    with _Criterion("alignment window predicate (10,000 random fixtures)"):
        rng = np.random.default_rng(555)
        base = D(2010, 1, 1)
        hazards = ("landslide", "fire")
        for case in range(10_000):
            window = int(rng.integers(0, 9))
            start = base + datetime.timedelta(days=int(rng.integers(0, 5000)))
            # force both boundaries to appear throughout the suite
            if case % 10 == 0:
                lag = 0
            elif case % 10 == 1:
                lag = window
            else:
                lag = int(rng.integers(-4, window + 5))
            event_hazard = hazards[int(rng.integers(0, 2))]
            record_hazard = hazards[int(rng.integers(0, 2))]
            event = NewsEvent(
                hazard=event_hazard,
                peak_date=start,
                start_date=start,
                end_date=start,
                day_counts=((start, 2),),
            )
            record = DisasterRecord(
                record_id="r",
                source="EMDAT",
                hazard=record_hazard,
                onset_date=start - datetime.timedelta(days=lag),
            )
            report = align_events([event], [record], window)
            should_pair = (event_hazard == record_hazard) and (0 <= lag <= window)
            assert (len(report.pairs) == 1) == should_pair, (case, lag, window)
            if should_pair:
                assert report.pairs[0].lag_days == lag
            # widening the window never removes the pair
            wider = align_events([event], [record], window + int(rng.integers(1, 4)))
            assert {(p.event_id, p.record_id) for p in report.pairs} <= {
                (p.event_id, p.record_id) for p in wider.pairs
            }


def test_measure_identities_on_randomized_suite():
    with _Criterion("measure identities on randomized event suite"):
        rng = np.random.default_rng(314)
        events_checked = 0
        for _ in range(200):
            series = random_series(rng, max_len=250, max_value=8)
            params = PeakParams(
                min_height=int(rng.integers(1, 5)),
                min_distance=int(rng.integers(1, 15)),
            )
            events = detect_events(series, params)
            measures = measure_events(events, Corpus.from_rows(docs_matching_series(series)))
            previous_peak = None
            for event, measure in zip(events, measures):
                assert (
                    measure.duration_days
                    == measure.days_to_peak + measure.days_to_fade + 1
                )
                assert measure.total_volume >= measure.duration_days
                assert measure.n_at_peak >= params.min_height
                if previous_peak is not None:
                    assert (
                        event.peak_date - previous_peak
                    ).days >= params.min_distance
                previous_peak = event.peak_date
                events_checked += 1
        assert events_checked > 1000, "suite generated too few events to be meaningful"


def test_single_country_filter_precision_recall(data_dir):
    with _Criterion("single-country filter (50-document labeled fixture)"):
        gazetteer = load_gazetteer()
        with open(data_dir / "country_filter_labeled.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 50
        docs = [
            make_doc(
                row["id"], D(2020, 1, 1), outlet="o", text_type="t", text=row["text"],
                text_key=row["id"],
            )
            for row in rows
        ]
        kept_rows = filter_single_country(Corpus.from_rows(docs), gazetteer).rows()
        kept = {docs[d.id - 1].id for d in kept_rows}
        expected = {row["id"] for row in rows if row["label"] == "keep"}
        true_positives = len(kept & expected)
        precision = true_positives / len(kept) if kept else 0.0
        recall = true_positives / len(expected)
        assert precision == 1.0, f"false positives: {sorted(kept - expected)}"
        assert recall == 1.0, f"false negatives: {sorted(expected - kept)}"


def _write_scale_corpus(path: Path, n_docs: int) -> int:
    """Write ``n_docs`` documents; return how many of them the country filter keeps."""
    rng = np.random.default_rng(777)
    n_days = 9132
    day_names = [
        (D(2000, 1, 1) + datetime.timedelta(days=i)).isoformat() for i in range(n_days)
    ]
    outlets = [f"Blatt {i}" for i in range(200)]
    genres = [f"Genre {i}" for i in range(5)]
    offsets = rng.integers(0, n_days, size=n_docs)
    hazard_flags = rng.integers(0, 2, size=n_docs)
    dropped = rng.random(n_docs) < 0.05
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("id,date,outlet,text_type,hazard,text,text_key\n")
        chunk: list[str] = []
        for i in range(n_docs):
            hazard = "landslide" if hazard_flags[i] else "fire"
            text = (
                "Unwetter in Brasilien und Peru"
                if dropped[i]
                else "Erdrutsch in Brasilien nach Starkregen"
            )
            chunk.append(
                f"d{i},{day_names[offsets[i]]},{outlets[i % 200]},"
                f"{genres[i % 5]},{hazard},{text},k{i}\n"
            )
            if len(chunk) == 100_000:
                handle.writelines(chunk)
                chunk = []
        handle.writelines(chunk)
    return n_docs - int(dropped.sum())


def _write_scale_registry(path: Path) -> None:
    """400 EM-DAT records, the two hazards alternating, spread over the range."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("record_id,source,raw_type,onset_date,location,status\n")
        for i in range(400):
            raw_type = "Landslide" if i % 2 else "Wildfire"
            onset = D(2000, 1, 1) + datetime.timedelta(days=(i * 23) % 9000)
            handle.write(f"r{i},EMDAT,{raw_type},{onset.isoformat()},,\n")


# The peak RSS of the run, in its own process. On a 2-core x86-64 host with
# Python 3.10-3.13, a fresh `run` read 256-285 MiB on this corpus when each
# document was a tuple, 186-220 MiB with the columnar corpus while it kept
# every id, 130-147 MiB when it kept only the ids' hashes but every key
# string, 97-101 MiB when it kept the keys' hashes in their place, and
# 73-77 MiB since `corpus_stats` counts the distinct keys a class of low
# bytes at a time instead of in one set of every key label.
_SCALE_RSS_MIB = 84

# On Linux a child's ru_maxrss includes the resident set of the process that
# spawned it, as it was at exec, and pytest under `-X dev` holds about 90 MiB.
# So the run is spawned by this small interpreter, which prints the run's exit
# code and peak RSS in KiB as the last line of its output.
_LAUNCH = """import os, sys
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_scale_smoke_one_million_documents(tmp_path):
    with _Criterion(f"scale smoke: `run` on 1e6 documents in <60s and <{_SCALE_RSS_MIB} MiB"):
        n_docs = 1_000_000
        n_kept = _write_scale_corpus(tmp_path / "big.csv", n_docs)
        _write_scale_registry(tmp_path / "emdat.csv")
        config = tmp_path / "config.ini"
        config.write_text(
            "[corpus]\ndocuments = big.csv\nformat = csv\nhazards = landslide, fire\n"
            "[range]\nstart = 2000-01-01\nend = 2024-12-31\n"
            "[align]\nwindow_days = 5\nemdat = emdat.csv\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        # The tool as users start it: a fresh interpreter, not in development mode.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONDEVMODE"}
        command = ["-m", "attn_peaks", "run", "--config", str(config), "--out-dir", str(out)]
        started = time.perf_counter()
        launched = subprocess.run(
            [sys.executable, "-c", _LAUNCH, sys.executable, *command],
            env=env,
            stdout=subprocess.PIPE,
            encoding="utf-8",
            check=True,
        )
        elapsed = time.perf_counter() - started
        exit_code, max_rss_kib = map(int, launched.stdout.split()[-2:])
        assert exit_code == 0

        stats = json.loads((out / "corpus_stats.json").read_text(encoding="utf-8"))
        assert sum(hazard["n_articles"] for hazard in stats.values()) == n_kept
        assert n_kept > 0.9 * n_docs
        with (out / "events.jsonl").open(encoding="utf-8") as handle:
            n_events = sum(1 for _ in handle)
        assert n_events, "scale corpus produced no events"
        with (out / "measures.csv").open(encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 1 + n_events
        alignment = json.loads((out / "alignment.json").read_text(encoding="utf-8"))
        assert alignment["registries"]["EMDAT"]["records"] == 400
        assert alignment["pairs"], "scale corpus produced no alignments"
        peak_rss_mib = max_rss_kib / 1024
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"
        assert peak_rss_mib < _SCALE_RSS_MIB, f"peak RSS {peak_rss_mib:.0f} MiB"
