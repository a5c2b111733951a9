import datetime
import io
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attn_peaks import (
    InputError,
    NewsEvent,
    PeakParams,
    PipelineConfig,
    detect_events,
    load_config,
    run_pipeline,
)
from attn_peaks.align import AlignmentPair, AlignmentReport, RegistryLoad
from attn_peaks.pipeline import COMMANDS, _write_alignment, emit_timeseries, validate_config
from support import make_series, oracle_alignment_json, write_small_corpus

D = datetime.date
README = Path(__file__).parents[1] / "README.md"


def readme_command_table(hazards) -> dict[str, set[str]]:
    """README's command table: the files each command writes, ``<hazard>`` expanded.

    A row names its files in backticks. The ``run`` row writes all of the
    rows above it plus the files it names.
    """
    text = README.read_text(encoding="utf-8")
    rows = re.search(r"^\| command \| writes \|\n\| --- \| --- \|\n((?:\|.*\n)+)", text, re.M)
    writes = {}
    for row in rows.group(1).splitlines():
        command, cell = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        names = re.findall(r"`([^`]+)`", cell)
        writes[command] = {name.replace("<hazard>", h) for name in names for h in hazards}
    assert re.fullmatch(r"\| `run` \| all of the above plus `[^`]+` \|", row), row
    writes["run"] |= set().union(*writes.values())
    return writes


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.start == D(2000, 1, 1)
        assert config.end == D(2024, 12, 31)
        assert config.hazards == ("landslide", "fire")
        assert config.min_height == 2
        assert config.min_distance == 7
        assert config.window_days == 5
        assert config.target == "Brasilien"

    def test_load_config_reads_sections(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        config = load_config(config_path)
        assert config.documents == tmp_path / "documents.csv"
        assert config.start == D(2020, 1, 1)
        assert config.end == D(2020, 12, 31)
        assert config.registries == (("EMDAT", tmp_path / "emdat.csv"),)
        assert config.out_dir == tmp_path / "out"

    def test_type_map_section_merges_over_defaults(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        extra = "\n[type_map]\nDeslizamentos = landslide\n"
        config_path.write_text(config_path.read_text(encoding="utf-8") + extra, encoding="utf-8")
        config = load_config(config_path)
        assert config.type_map["Deslizamentos"] == "landslide"
        assert config.type_map["Wildfire"] == "fire"

    def test_inline_comments_are_stripped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[peaks]\nmin_height = 3   ; single-article days stay out\n",
            encoding="utf-8",
        )
        assert load_config(path).min_height == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[bogus]\nx = 1\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"unknown section \[bogus\]"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[peaks]\nheight = 1\n", encoding="utf-8")
        with pytest.raises(InputError, match="unknown key 'height'"):
            load_config(path)

    def test_undocumented_other_registry_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[align]\nwindow_days = 5\nother = other.csv\n", encoding="utf-8")
        with pytest.raises(InputError, match="unknown key 'other'"):
            load_config(path)

    def test_missing_documents_is_a_config_error(self):
        with pytest.raises(InputError, match="documents"):
            validate_config(PipelineConfig())

    def test_missing_registry_path_names_the_path(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        config = load_config(config_path)
        missing = tmp_path / "nowhere.csv"
        config.registries = (("EMDAT", missing),)
        with pytest.raises(InputError, match=str(missing)):
            validate_config(config)

    def test_bad_type_map_target_rejected(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        config = load_config(config_path)
        config.type_map["Volcanic activity"] = "volcano"
        with pytest.raises(InputError, match="'volcano'"):
            validate_config(config)

    def test_unknown_run_hazard_rejected(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.run_hazards = ("flood",)
        with pytest.raises(InputError, match="'flood'"):
            validate_config(config)

    @pytest.mark.parametrize("label", ["a/b", "a\\b", "a\0b", "/"])
    def test_hazard_label_with_a_path_separator_or_nul_rejected(self, tmp_path, label):
        config = load_config(write_small_corpus(tmp_path))
        config.hazards = (label, "landslide", "fire")
        with pytest.raises(InputError, match=re.escape(f"hazard label {label!r}")):
            validate_config(config)


class TestEmitTimeseries:
    def test_all_zero_series(self, tmp_path):
        series = make_series([0, 0, 0])
        path = emit_timeseries(series, [], tmp_path / "ts.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,count,is_event_day,is_peak"
        assert lines[1:] == [
            "2000-01-01,0,0,0",
            "2000-01-02,0,0,0",
            "2000-01-03,0,0,0",
        ]

    def test_three_day_event_flags(self, tmp_path):
        series = make_series([0, 1, 3, 1, 0])
        events = detect_events(series, PeakParams(2, 7))
        path = emit_timeseries(series, events, tmp_path / "ts.csv")
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        flagged = [line for line in lines if line.split(",")[2] == "1"]
        peaks = [line for line in lines if line.split(",")[3] == "1"]
        assert len(flagged) == 3
        assert peaks == ["2000-01-03,3,1,1"]
        counts = sum(int(line.split(",")[1]) for line in lines)
        assert counts == sum(series.counts)

    def test_full_range_has_9132_rows(self, tmp_path):
        series = make_series([0] * 9132)
        assert series.end == D(2024, 12, 31)
        path = emit_timeseries(series, [], tmp_path / "ts.csv")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 9133

    def test_memory_does_not_grow_with_the_range(self, tmp_path):
        # 200,000 days run from 2000 into 2547; the rows are written as they
        # are made, so the peak is a few buffers, not the 3.4 MB file.
        series = make_series([day % 5 for day in range(200_000)])
        tracemalloc.start()
        try:
            path = emit_timeseries(series, [], tmp_path / "ts.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < 256 * 1024
        with path.open(encoding="utf-8") as handle:
            assert handle.readline() == "date,count,is_event_day,is_peak\n"
            assert handle.readline() == "2000-01-01,0,0,0\n"
            *_, last = handle
        assert last == "2547-07-31,4,0,0\n"


class TestRunPipeline:
    def test_full_run_produces_all_artifacts(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        artifacts = run_pipeline(config, "run")
        names = set(artifacts.files)
        assert names == {
            "corpus_stats.json",
            "timeseries_landslide.csv",
            "timeseries_fire.csv",
            "events.jsonl",
            "measures.csv",
            "summaries.json",
            "alignment.json",
            "report.json",
            "manifest.json",
        }
        events = [
            json.loads(line)
            for line in artifacts.files["events.jsonl"].read_text(encoding="utf-8").splitlines()
        ]
        assert [(e["hazard"], e["peak_date"]) for e in events] == [
            ("landslide", "2020-01-11"),
            ("fire", "2020-02-05"),
        ]
        assert events[0]["days"] == [
            {"date": "2020-01-10", "count": 1},
            {"date": "2020-01-11", "count": 3},
            {"date": "2020-01-12", "count": 1},
        ]
        alignment = json.loads(artifacts.files["alignment.json"].read_text(encoding="utf-8"))
        assert [(p["event_id"], p["record_id"], p["lag_days"]) for p in alignment["pairs"]] == [
            ("landslide-2020-01-11", "EM-1", 1)
        ]
        assert alignment["unmatched_records"] == [
            {"source": "EMDAT", "record_id": "EM-2"}
        ]
        report = json.loads(artifacts.files["report.json"].read_text(encoding="utf-8"))
        assert report["n_events"] == {"landslide": 1, "fire": 1}
        assert report["alignment"]["aligned_fraction"] == 0.5
        assert report["corpus"]["landslide"]["n_articles"] == 5

    def test_measures_csv_content(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        artifacts = run_pipeline(config, "run")
        lines = artifacts.files["measures.csv"].read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "hazard,event_id,peak_date,n_at_peak,total_volume,duration_days,"
            "days_since_last,days_to_peak,days_to_fade,n_text_types,n_outlets,"
            "n_genres,days_since_last_peak"
        )
        assert lines[1] == (
            "landslide,landslide-2020-01-11,2020-01-11,3,5,3,,1,1,5,3,2,"
        )
        assert lines[2] == "fire,fire-2020-02-05,2020-02-05,2,2,1,,0,0,2,2,2,"

    def test_empty_corpus_is_a_valid_run(self, tmp_path):
        (tmp_path / "documents.csv").write_text(
            "id,date,outlet,text_type,hazard,text\n", encoding="utf-8"
        )
        config = PipelineConfig(
            documents=tmp_path / "documents.csv", out_dir=tmp_path / "out"
        )
        artifacts = run_pipeline(config, "run")
        assert artifacts.events == {"landslide": [], "fire": []}
        summaries = json.loads(artifacts.files["summaries.json"].read_text(encoding="utf-8"))
        assert summaries["landslide"]["n_events"] == 0
        assert summaries["landslide"]["measures"]["n_at_peak"] is None
        report = json.loads(artifacts.files["report.json"].read_text(encoding="utf-8"))
        assert report["alignment"]["aligned_fraction"] is None

    def test_reruns_are_byte_identical(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        first = run_pipeline(config, "run")
        snapshots = {name: path.read_bytes() for name, path in first.files.items()}
        config.out_dir = tmp_path / "out2"
        second = run_pipeline(config, "run")
        for name, path in second.files.items():
            assert path.read_bytes() == snapshots[name], name

    def test_stage_error_leaves_no_partial_outputs(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        (tmp_path / "emdat.csv").write_text(
            "record_id,source,raw_type,onset_date,location,status\n"
            "EM-1,EMDAT,Volcanic activity,2020-01-09,,\n",
            encoding="utf-8",
        )
        config = load_config(config_path)
        with pytest.raises(InputError, match="^align: "):
            run_pipeline(config, "run")
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    def test_stage_subcommands_write_their_artifacts(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        writes = readme_command_table(config.active_hazards)
        assert list(writes) == list(COMMANDS)
        for command, names in writes.items():
            assert set(run_pipeline(config, command).files) == names, command

    @pytest.mark.parametrize("command", [command for command in COMMANDS if command != "run"])
    def test_stage_subcommands_write_the_golden_bytes(self, golden_dir, tmp_path, command):
        config = load_config(golden_dir / "config.ini")
        config.out_dir = tmp_path / "out"
        files = run_pipeline(config, command).files
        assert set(files) == readme_command_table(config.active_hazards)[command]
        for name, path in files.items():
            got, want = path.read_bytes(), (golden_dir / "expected" / name).read_bytes()
            if command == "ingest" and name.startswith("timeseries_"):
                # ingest runs no detection: the counts match and no day is flagged.
                got_rows = [line.split(b",") for line in got.split(b"\n")]
                want_rows = [line.split(b",") for line in want.split(b"\n")]
                assert [row[:2] for row in got_rows] == [row[:2] for row in want_rows], name
                assert got_rows[0] == want_rows[0], name
                assert {tuple(row[2:]) for row in got_rows[1:-1]} == {(b"0", b"0")}, name
            else:
                assert got == want, name

    def test_hazard_subset_run(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.run_hazards = ("fire",)
        artifacts = run_pipeline(config, "detect")
        assert set(artifacts.events) == {"fire"}
        assert "timeseries_landslide.csv" not in artifacts.files

    def test_hazard_subset_leaves_out_the_records_of_other_hazards(self, golden_dir, tmp_path):
        config = load_config(golden_dir / "config.ini")
        config.run_hazards = ("fire",)
        config.out_dir = tmp_path / "out"
        artifacts = run_pipeline(config, "run")
        alignment = json.loads(artifacts.files["alignment.json"].read_text(encoding="utf-8"))
        assert alignment["unmatched_records"] == [{"record_id": "S2-0010", "source": "S2ID"}]
        # The registry tallies still describe the whole file.
        full = json.loads((golden_dir / "expected" / "alignment.json").read_text(encoding="utf-8"))
        assert alignment["registries"] == full["registries"]
        by_source = artifacts.report["alignment"]["by_source"]
        assert {s: v["unmatched_records"] for s, v in by_source.items()} == {"EMDAT": 0, "S2ID": 1}

    def test_manifest_contents_are_stable(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        first = run_pipeline(config, "run")
        manifest = json.loads(first.files["manifest.json"].read_text(encoding="utf-8"))
        assert manifest["tool"] == "attn-peaks"
        assert manifest["command"] == "run"
        assert manifest["parameters"]["min_height"] == 2
        assert set(manifest["inputs"]) == {"documents", "gazetteer", "registry_EMDAT"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64
        config.out_dir = tmp_path / "other"
        second = run_pipeline(config, "run")
        assert (
            second.files["manifest.json"].read_bytes()
            == first.files["manifest.json"].read_bytes()
        )

    def test_out_of_range_document_is_an_ingest_error(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        config = load_config(config_path)
        config.start = D(2020, 1, 11)  # L1 on the 10th now falls outside
        with pytest.raises(InputError, match="^ingest: .*'L1'"):
            run_pipeline(config, "run")

    def test_out_of_range_document_the_filter_drops_is_not_checked(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        with (tmp_path / "documents.csv").open("a", encoding="utf-8") as handle:
            handle.write("FX,2030-01-01,Blatt 1,Bericht,fire,Feuer in Peru\n")
        artifacts = run_pipeline(load_config(config_path), "run")
        assert artifacts.stats["fire"].n_articles == 2

    def test_out_of_range_document_of_an_unprocessed_hazard_is_not_checked(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.start = D(2020, 1, 11)  # landslide L1 on the 10th falls outside
        config.run_hazards = ("fire",)
        artifacts = run_pipeline(config, "run")
        assert list(artifacts.series) == ["fire"]


# Ids with what json must escape or may keep: quotes, backslashes, control
# characters, non-ASCII letters, U+2028/U+2029 and astral characters.
_IDS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "Petrópolis", 'a"\\\nb', "🔥"]
    ),
)
_COUNTS = st.integers(0, 10**6)
_REPORTS = st.builds(
    AlignmentReport,
    window_days=st.integers(0, 10**6),
    pairs=st.lists(st.builds(AlignmentPair, _IDS, _IDS, _IDS, _IDS, _COUNTS), max_size=6),
    aligned_by_source=st.dictionaries(
        _IDS, st.dictionaries(_IDS, _COUNTS, max_size=3), max_size=3
    ),
    unmatched_events=st.lists(_IDS, max_size=6),
    unmatched_records=st.lists(st.tuples(_IDS, _IDS), max_size=6),
)
# The writer reads only how many records a load kept, not the records.
_REGISTRY_LOADS = st.dictionaries(
    _IDS,
    st.builds(RegistryLoad, st.lists(st.none(), max_size=3), _COUNTS, _COUNTS),
    max_size=3,
)


class TestWriteAlignment:
    @settings(max_examples=300, deadline=None)
    @given(report=_REPORTS, registry_loads=_REGISTRY_LOADS)
    @example(report=AlignmentReport(window_days=5), registry_loads={})  # no registries configured
    @example(
        report=AlignmentReport(
            window_days=0,
            pairs=[AlignmentPair("fire-2020-01-01", "EM-\u2028\"1\"", "EMDAT", "fire", 0)],
            aligned_by_source={"EMDAT": {"fire": 1}},
        ),
        registry_loads={"EMDAT": RegistryLoad([None], 2, 0), "S2ID": RegistryLoad([], 0, 3)},
    )
    def test_equals_json_dumps_byte_for_byte(self, report, registry_loads):
        handle = io.StringIO()
        _write_alignment(handle, report, registry_loads)
        assert handle.getvalue() == oracle_alignment_json(report, registry_loads)

