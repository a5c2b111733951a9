"""Tests of the benchmark's own generators and output checker.

Run from the root of a checkout with ``python3 -m pytest perfbench``. Each
test generates a small workload, runs the real CLI on it once and then feeds
the checker deliberately corrupted copies of the outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from checker import check_outputs
from run import GAZETTEER, HERE, ROOT, SRC, Verdicts, layer_metrics, missing_spans, spawn
from workloads import filler_vocabulary, generate, read_gazetteer, tokens

GAZETTEER_ENTRIES = read_gazetteer(GAZETTEER)


def _run_cli(workload, out_dir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "attn_peaks", "run", "--config", str(workload.config),
         "--out-dir", str(out_dir)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small workload of each kind with a correct output directory."""
    scales = {"syndicated": 0.02, "distinct-bodies": 0.02, "registry-align": 0.1}
    made = {}
    for name, scale in scales.items():
        base = tmp_path_factory.mktemp(name)
        workload = generate(name, base / "inputs", 7, GAZETTEER, scale=scale)
        _run_cli(workload, base / "out")
        made[name] = (workload, base / "out")
    return made


def _corrupt_copy(out_dir: Path, tmp_path: Path, file_name: str, edit) -> Path:
    copy = tmp_path / "corrupt"
    shutil.copytree(out_dir, copy)
    path = copy / file_name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


@pytest.mark.parametrize("name", ["syndicated", "distinct-bodies", "registry-align"])
def test_checker_accepts_the_seed_outputs(runs, name):
    workload, out_dir = runs[name]
    assert check_outputs(workload, out_dir) == []


def _bump_first_count(text: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        date, count, *flags = line.split(",")
        if int(count) > 0:
            lines[i] = ",".join([date, str(int(count) + 1), *flags])
            break
    return "\n".join(lines) + "\n"


def _bump_n_articles(text: str) -> str:
    stats = json.loads(text)
    stats["fire"]["n_articles"] += 1
    return json.dumps(stats)


def _bump_event_day(text: str) -> str:
    lines = text.splitlines()
    record = json.loads(lines[0])
    record["days"][0]["count"] += 1
    lines[0] = json.dumps(record)
    return "\n".join(lines) + "\n"


def _bump_outlets(text: str) -> str:
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[10] = str(int(cells[10]) + 1)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_pair(text: str) -> str:
    alignment = json.loads(text)
    alignment["pairs"].pop()
    return json.dumps(alignment)


def _shift_lag(text: str) -> str:
    alignment = json.loads(text)
    alignment["pairs"][0]["lag_days"] += 1
    return json.dumps(alignment)


def _bump_summary_median(text: str) -> str:
    summaries = json.loads(text)
    summaries["fire"]["measures"]["n_at_peak"]["median"] += 1
    return json.dumps(summaries)


def _bump_report_std(text: str) -> str:
    report = json.loads(text)
    report["corpus"]["landslide"]["active_std"] *= 1.01
    return json.dumps(report)


def _bump_aligned_fraction(text: str) -> str:
    report = json.loads(text)
    report["alignment"]["aligned_fraction"] /= 2
    return json.dumps(report)


def _wrong_documents_digest(text: str) -> str:
    manifest = json.loads(text)
    manifest["inputs"]["documents"]["sha256"] = "0" * 64
    return json.dumps(manifest)


def _wrong_min_distance(text: str) -> str:
    manifest = json.loads(text)
    manifest["parameters"]["min_distance"] += 1
    return json.dumps(manifest)


@pytest.mark.parametrize(
    "name, file_name, edit",
    [
        ("syndicated", "timeseries_landslide.csv", _bump_first_count),
        ("distinct-bodies", "timeseries_fire.csv", _bump_first_count),
        ("syndicated", "corpus_stats.json", _bump_n_articles),
        ("distinct-bodies", "events.jsonl", _bump_event_day),
        ("registry-align", "events.jsonl", _bump_event_day),
        ("syndicated", "measures.csv", _bump_outlets),
        ("registry-align", "alignment.json", _drop_pair),
        ("registry-align", "alignment.json", _shift_lag),
        ("registry-align", "report.json", lambda text: "{}"),
        ("registry-align", "report.json", _bump_aligned_fraction),
        ("distinct-bodies", "report.json", _bump_report_std),
        ("syndicated", "summaries.json", _bump_summary_median),
        ("distinct-bodies", "manifest.json", _wrong_documents_digest),
        ("registry-align", "manifest.json", _wrong_min_distance),
    ],
)
def test_checker_rejects_corrupted_outputs(runs, tmp_path, name, file_name, edit):
    workload, out_dir = runs[name]
    corrupt = _corrupt_copy(out_dir, tmp_path, file_name, edit)
    assert check_outputs(workload, corrupt) != []


@pytest.mark.parametrize("name", ["syndicated", "registry-align"])
def test_checker_rejects_a_dropped_event_with_consistent_flags_and_measures(runs, tmp_path, name):
    """The events themselves are checked, not only their agreement with the other files."""
    workload, out_dir = runs[name]
    corrupt = tmp_path / "corrupt"
    shutil.copytree(out_dir, corrupt)
    events = (corrupt / "events.jsonl").read_text(encoding="utf-8").splitlines()
    dropped = json.loads(events.pop())
    assert dropped["hazard"] == "fire"
    (corrupt / "events.jsonl").write_text("\n".join(events) + "\n", encoding="utf-8")
    event_days = {d["date"] for d in dropped["days"]}
    series = (corrupt / "timeseries_fire.csv").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(series):
        date, count, *_ = line.split(",")
        if date in event_days:
            series[i] = f"{date},{count},0,0"
    (corrupt / "timeseries_fire.csv").write_text("\n".join(series) + "\n", encoding="utf-8")
    measures = (corrupt / "measures.csv").read_text(encoding="utf-8").splitlines()
    assert measures[-1].startswith(f"fire,fire-{dropped['peak_date']},")
    (corrupt / "measures.csv").write_text("\n".join(measures[:-1]) + "\n", encoding="utf-8")
    report = json.loads((corrupt / "report.json").read_text(encoding="utf-8"))
    report["n_events"]["fire"] -= 1
    (corrupt / "report.json").write_text(json.dumps(report), encoding="utf-8")
    problems = check_outputs(workload, corrupt)
    assert problems and problems[0].startswith("events.jsonl: "), problems


def test_checker_rejects_a_missing_file(runs, tmp_path):
    workload, out_dir = runs["syndicated"]
    corrupt = _corrupt_copy(out_dir, tmp_path, "events.jsonl", lambda text: text)
    (corrupt / "measures.csv").unlink()
    assert check_outputs(workload, corrupt) != []


def test_repeated_runs_must_be_byte_identical(runs, tmp_path):
    workload, out_dir = runs["syndicated"]
    verdicts = Verdicts(workload)
    assert verdicts.judge("first", 0, _corrupt_copy(out_dir, tmp_path / "a", "report.json", str))
    # Same content, reformatted: the checker accepts it, byte identity does not.
    reformatted = _corrupt_copy(
        out_dir, tmp_path / "b", "report.json", lambda text: json.dumps(json.loads(text))
    )
    assert check_outputs(workload, reformatted) == []
    assert not verdicts.judge("second", 0, reformatted)
    assert not verdicts.judge("failed run", 2, tmp_path / "missing", "boom")
    assert verdicts.attempted == 3 and len(verdicts.failures) == 2


def test_filler_vocabulary_contains_no_gazetteer_token():
    banned = {t for entry in GAZETTEER_ENTRIES for t in tokens(entry)}
    words = filler_vocabulary(np.random.default_rng(0), GAZETTEER_ENTRIES, 4000)
    assert len(words) == 4000
    assert not banned & {t for word in words for t in tokens(word)}


def test_second_countries_cover_multiword_and_hyphenated_entries(tmp_path):
    workload = generate("distinct-bodies", tmp_path, 3, GAZETTEER, scale=0.2)
    text = (tmp_path / "documents.jsonl").read_text(encoding="utf-8")
    assert len(workload.kept_day) < workload.n_docs  # some bodies name a second country
    for entry in ("Costa Rica", "Saudi-Arabien", "Guinea-Bissau"):
        assert entry in GAZETTEER_ENTRIES
    assert any(" " in e and e in text for e in GAZETTEER_ENTRIES)
    assert any("-" in e and e in text for e in GAZETTEER_ENTRIES)


def test_generators_are_deterministic(tmp_path):
    a = generate("registry-align", tmp_path / "a", 5, GAZETTEER, scale=0.02)
    b = generate("registry-align", tmp_path / "b", 5, GAZETTEER, scale=0.02)
    for file_name in ("documents.csv", "emdat.csv", "s2id.csv", "config.ini"):
        assert (a.directory / file_name).read_bytes() == (b.directory / file_name).read_bytes()
    assert np.array_equal(a.kept_day, b.kept_day)


def test_self_time_excludes_child_spans():
    spans = [
        {"name": "pipeline.run_pipeline", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"name": "ingest.load_documents", "parent": 0, "start": 1.0, "end": 4.0,
         "counts": {"docs": 100}},
        {"name": "ingest.filter_single_country", "parent": 0, "start": 4.0, "end": 6.0,
         "counts": {"kept": 80}},
    ]
    span_names = [
        "pipeline.run_pipeline", "ingest.load_documents", "ingest.filter_single_country",
        "peaks.local_maxima", "peaks.enforce_constraints", "measures.summarize",
        "align.align_events",
    ]
    count_names = [
        "ingest.load_documents.docs", "ingest.filter_single_country.kept",
        "peaks.local_maxima.candidates", "peaks.enforce_constraints.peaks",
        "align.align_events.pairs", "align.align_events.candidate_pairs",
    ]
    m = layer_metrics(spans, span_names, count_names)
    assert m["pipeline.self_s"] == pytest.approx(5.0)
    assert m["ingest.load_documents.docs_per_s"] == pytest.approx(100 / 3.0)
    assert m["ingest.filter_single_country.keep_ratio"] == pytest.approx(0.8)
    assert m["align.pair_yield"] == 0.0
    assert m["measures.summarize.calls"] == 0


def test_spans_that_never_ran_are_reported():
    spans = [{"name": "pipeline.run_pipeline"}, {"name": "peaks.detect_events"}]
    names = ["pipeline.run_pipeline", "peaks.detect_events", "align.load_registry"]
    assert missing_spans(spans, names, registries=False) == []
    assert missing_spans(spans, names, registries=True) == ["align.load_registry"]
    assert missing_spans(spans[:1], names, registries=False) == ["peaks.detect_events"]


def test_a_hook_on_a_missing_function_stops_the_traced_run():
    code = (
        "import traced\n"
        "traced.HOOKS.append((traced.pipeline, 'no_such_function', 'pipeline.none', {}))\n"
        "traced.Tracer().install()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "no_such_function" in proc.stderr


def test_spawn_reports_the_child_and_kills_it_on_timeout(tmp_path):
    child = spawn([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path / "err", 60)
    assert child["exit_code"] == 3 and child["wall_s"] > 0 and child["peak_rss_mib"] > 0
    marker = tmp_path / "still-running"
    killed = spawn(
        [sys.executable, "-c", f"import time; time.sleep(3); open({str(marker)!r}, 'w')"],
        tmp_path / "err", 0.5,
    )
    assert killed["exit_code"] < 0
    time.sleep(4)
    assert not marker.exists()
