import csv
import datetime
import io
import json
import re
import shutil
import tempfile
import tracemalloc
import weakref
from array import array
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
from attn_peaks import align as align_mod
from attn_peaks import ingest, pipeline
from attn_peaks.align import DEFAULT_TYPE_MAP, AlignmentPair, AlignmentReport, RegistryLoad
from attn_peaks.ingest import _COLUMNS
from attn_peaks.pipeline import COMMANDS, _write_alignment, emit_timeseries, validate_config
from support import (
    count_calls,
    hash_alike,
    make_series,
    oracle_alignment_json,
    oracle_load_documents,
    oracle_outputs,
    write_small_corpus,
)

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
        assert config.registries == {"EMDAT": tmp_path / "emdat.csv"}
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
        config.registries = {"EMDAT": missing}
        with pytest.raises(InputError, match=str(missing)):
            validate_config(config)

    def test_bad_type_map_target_rejected(self, tmp_path):
        config_path = write_small_corpus(tmp_path)
        config = load_config(config_path)
        config.type_map["Volcanic activity"] = "volcano"
        with pytest.raises(InputError, match="'volcano'"):
            validate_config(config)

    def test_shipped_type_map_target_outside_the_vocabulary_accepted(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.hazards = ("fire",)
        validate_config(config)  # the shipped map sends mass movements to landslide
        config.type_map["Deslizamentos"] = "landslide"  # not a shipped entry
        with pytest.raises(InputError, match="type map target 'landslide'"):
            validate_config(config)

    def test_unknown_document_format_rejected(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.doc_format = "xml"
        message = "unknown document format 'xml' (expected csv or jsonl)"
        with pytest.raises(InputError, match=re.escape(message)):
            validate_config(config)

    def test_unknown_run_hazard_rejected(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        config.run_hazards = ("flood",)
        with pytest.raises(InputError, match="'flood'"):
            validate_config(config)

    def test_ignore_is_not_a_hazard_label(self, golden_dir):
        # A [type_map] entry naming "ignore" drops its records, so no record could reach it.
        config = PipelineConfig(
            documents=golden_dir / "documents.csv", hazards=("landslide", "fire", "ignore")
        )
        message = "hazard label 'ignore' is reserved for the type map"
        with pytest.raises(InputError, match=re.escape(message)):
            validate_config(config)
        with pytest.raises(InputError, match=re.escape(f"config: {message}")):
            run_pipeline(config, "ingest")

    # A label names a file and fills an unquoted measures.csv cell.
    @pytest.mark.parametrize("label", ["a/b", "a\\b", "a\0b", "/", "a,b", 'a"b', "a\nb", "a\tb"])
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

    def test_unknown_command_is_refused(self, tmp_path):
        config = load_config(write_small_corpus(tmp_path))
        with pytest.raises(InputError, match="unknown command 'bogus'"):
            run_pipeline(config, "bogus")
        assert not (tmp_path / "out").exists()

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

    def test_the_exact_reload_writes_the_golden_bytes(self, golden_dir, tmp_path, monkeypatch):
        # With every str hash equal, the golden file's distinct ids and text digests
        # share one, so the loader reads the file again and labels each key by its code.
        loads = count_calls(monkeypatch, ingest, "_read_documents")
        hash_alike(monkeypatch)
        config = load_config(golden_dir / "config.ini")
        config.out_dir = tmp_path / "out"
        files = run_pipeline(config, "run").files
        assert len(loads) == 2
        for name in sorted(path.name for path in (golden_dir / "expected").iterdir()):
            want = (golden_dir / "expected" / name).read_bytes()
            assert files[name].read_bytes() == want, name

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

    def test_only_the_s2id_file_is_filtered_by_status(self, golden_dir, tmp_path):
        # s2id_accept is the national registry's rule: an EM-DAT status reads as it stands.
        for name in ("config.ini", "documents.csv", "s2id.csv"):
            shutil.copy(golden_dir / name, tmp_path / name)
        header, *rows = (golden_dir / "emdat.csv").read_text(encoding="utf-8").splitlines()
        pending = [row.rsplit(",", 1)[0] + ",pending" for row in rows]
        (tmp_path / "emdat.csv").write_text("\n".join([header, *pending, ""]), encoding="utf-8")
        config = load_config(tmp_path / "config.ini")
        config.out_dir = tmp_path / "out"
        artifacts = run_pipeline(config, "run")
        assert artifacts.registry_loads["EMDAT"].n_dropped_by_status == 0
        assert artifacts.registry_loads["S2ID"].n_dropped_by_status == 1
        for name in ("alignment.json", "report.json", "events.jsonl", "measures.csv"):
            want = (golden_dir / "expected" / name).read_bytes()
            assert artifacts.files[name].read_bytes() == want, name

    def test_corpus_is_freed_once_measured(self, golden_dir, tmp_path, monkeypatch):
        # An array can be weakly referenced, a list cannot: a hazard's
        # documents are alive while one of its column arrays is. The table of
        # text verdicts, which every hazard shares, becomes a list subclass, which can.
        class Table(list):
            pass

        arrays: dict[str, list[weakref.ref]] = {}

        def weakly_referenced(produce):
            def wrapper(*args):
                corpus = produce(*args)
                if produce is real_load:
                    corpus.texts = Table(corpus.texts)
                    arrays["texts table"] = [weakref.ref(corpus.texts)]
                for hazard, columns in corpus.columns.items():
                    for name in _COLUMNS:
                        column = getattr(columns, name)
                        if isinstance(column, array):
                            arrays.setdefault(hazard, []).append(weakref.ref(column))
                return corpus

            return wrapper

        def n_alive(hazards) -> int:
            return sum(ref() is not None for h in hazards for ref in arrays.get(h, ()))

        config = load_config(golden_dir / "config.ini")
        config.out_dir = tmp_path / "out"
        hazards = config.active_hazards
        # The documents still alive, of the hazards measured before, as each
        # hazard's measure starts; of all hazards, as each registry loads.
        at_measure: list[int] = []
        at_registry: list[int] = []
        real_measure, real_registry = pipeline.measure_events, align_mod.load_registry

        def measure(*args):
            at_measure.append(n_alive(hazards[: len(at_measure)]))
            return real_measure(*args)

        def load_registry(*args):
            at_registry.append(n_alive(arrays))
            return real_registry(*args)

        # The loaded columns, and those the filter rebuilt.
        real_load = pipeline.load_documents
        for stage in ("load_documents", "filter_single_country"):
            monkeypatch.setattr(pipeline, stage, weakly_referenced(getattr(pipeline, stage)))
        monkeypatch.setattr(pipeline, "measure_events", measure)
        monkeypatch.setattr(align_mod, "load_registry", load_registry)
        files = run_pipeline(config, "run").files
        # Six arrays per hazard (rows, days, three codes and the key labels), as loaded
        # and as filtered.
        assert [len(arrays.get(h, ())) for h in hazards] == [12] * len(hazards)
        assert len(arrays["texts table"]) == 1
        assert at_measure == [0] * len(hazards)
        assert at_registry == [0] * len(config.registries)
        for name, path in files.items():
            if name != "manifest.json":
                assert path.read_bytes() == (golden_dir / "expected" / name).read_bytes(), name

    def test_hazards_left_out_are_freed_before_the_filter(self, golden_dir, tmp_path, monkeypatch):
        # The load checks the fire rows and keeps none of them, so the filter never sees one.
        # Per load and per filter call: the hazards its corpus lists, and its fire documents.
        at_load: list[tuple[list[str], int]] = []
        at_filter: list[tuple[list[str], int]] = []
        real_load, real_filter = pipeline.load_documents, pipeline.filter_single_country

        def load(*args):
            corpus = real_load(*args)
            at_load.append((list(corpus.columns), len(corpus.of("fire"))))
            return corpus

        def filter_single_country(corpus, gazetteer):
            at_filter.append((list(corpus.columns), len(corpus.of("fire"))))
            return real_filter(corpus, gazetteer)

        config = load_config(golden_dir / "config.ini")
        config.out_dir = tmp_path / "out"
        config.run_hazards = ("landslide",)
        assert any(doc[4] == "fire" for doc in oracle_load_documents(config.documents))
        monkeypatch.setattr(pipeline, "load_documents", load)
        monkeypatch.setattr(pipeline, "filter_single_country", filter_single_country)
        artifacts = run_pipeline(config, "run")
        assert at_load == [(["landslide"], 0)]
        assert at_filter == [(["landslide"], 0)]
        assert list(artifacts.series) == ["landslide"]

    def test_filter_judges_only_the_texts_of_the_run_hazards(
        self, golden_dir, tmp_path, monkeypatch
    ):
        config = load_config(golden_dir / "config.ini")
        config.out_dir = tmp_path / "out"
        config.run_hazards = ("landslide",)
        corpus = ingest.load_documents(config.documents, config.doc_format, config.hazards)
        landslide_texts = {corpus.texts[code] for code in corpus.columns["landslide"].texts}
        judged: list[str] = []
        real_extract = ingest.extract_country_mentions

        def extract(text, gazetteer):
            judged.append(text)
            return real_extract(text, gazetteer)

        monkeypatch.setattr(ingest, "extract_country_mentions", extract)
        run_pipeline(config, "ingest")
        assert len(judged) == len(set(judged)) == 128
        assert set(judged) == landslide_texts

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
        config.start = D(2020, 1, 11)  # L1, row 1, on the 10th now falls outside
        with pytest.raises(InputError, match="^ingest: row 1 of .*: document dated 2020-01-10 "):
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



# Multi-token and hyphenated entries, and one nested in another ("Guinea").
_GAZETTEER = ("Brasilien", "Peru", "Costa Rica", "Guinea", "Guinea-Bissau", "Saudi-Arabien")
_WORDS = ("Erdrutsch", "Waldbrand", "in", "und", "Regen")
_RUN_HAZARDS = [(), ("landslide",), ("fire",), ("fire", "landslide"), ("fire", "fire"), ("flood",)]


@st.composite
def _ingest_inputs(draw, vocabulary=("landslide", "fire"), days=730, docs=(1, 12)):
    """The input files of a small ``ingest`` run, by role, and its parameters.

    ``docs`` bounds the number of documents, each dated within ``days``
    days from 2020-01-01 and with a hazard of ``vocabulary``.
    """
    target = draw(st.sampled_from(_GAZETTEER))
    texts = []
    for _ in range(draw(st.integers(1, 4))):
        other = draw(st.sampled_from(_GAZETTEER))
        # The target alone first, so that a text shrinks towards one that the filter keeps.
        mentions = [[target], [target, target], [target, other], [other], []]
        filler = st.lists(st.sampled_from(_WORDS), max_size=3)
        words = draw(st.sampled_from(mentions)) + draw(filler)
        texts.append(draw(st.sampled_from([" ", ", "])).join(draw(st.permutations(words))))
    keyed = draw(st.booleans())
    records = []
    for i in range(draw(st.integers(*docs))):
        record = {
            "id": f"d{i}",
            "date": str(D(2020, 1, 1) + datetime.timedelta(days=draw(st.integers(0, days)))),
            "outlet": draw(st.sampled_from(["Blatt 1", "Blatt 2", "Blatt 3"])),
            "text_type": draw(st.sampled_from(["Bericht", "Meldung"])),
            "hazard": draw(st.sampled_from(vocabulary)),
            "text": draw(st.sampled_from(texts)),  # a text drawn twice is a reprint
        }
        if keyed:
            record["text_key"] = draw(st.sampled_from(["", "k1", "k2"]))
        records.append(record)
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    if fmt == "csv":
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator="\n")
        header = ["id", "date", "outlet", "text_type", "hazard", "text"]
        writer.writerow(header + ["text_key"] * keyed)
        writer.writerows(record.values() for record in records)
        documents = handle.getvalue()
    else:
        documents = "".join(json.dumps(record) + "\n" for record in records)
    params = dict(
        hazards=vocabulary,
        doc_format=fmt,
        start=D(2020, 1, 1) + datetime.timedelta(days=draw(st.integers(-30, 30))),
        end=D(2021, 12, 31) + datetime.timedelta(days=draw(st.integers(-30, 30))),
        run_hazards=draw(st.sampled_from(_RUN_HAZARDS)),
        target=draw(st.sampled_from([target, target.upper()])),
    )
    files = {
        "documents": (f"docs.{fmt}", documents),
        "gazetteer": ("countries.txt", "# Länder\n\n" + "\n".join(_GAZETTEER) + "\n"),
    }
    return files, params


# Registry labels: shipped ones, then the ones that the drawn type map adds.
_REGISTRY_TYPES = ["Landslide", "Wildfire", "Mass movement (wet)"] * 3 + [
    "Deslizamentos",
    "Incêndio florestal",
    "Inundações",
] * 2
_VOCABULARIES = [("landslide", "fire"), ("fire", "landslide"), ("landslide",)]


@st.composite
def _align_inputs(draw):
    """The input files of a small ``align`` run, by role, and its parameters.

    Both registries hold ignored types, and S2ID statuses that its filter
    drops appear in EM-DAT files too. A vocabulary of landslides alone
    leaves the shipped fire entries' hazard out of it.
    """
    vocabulary = draw(st.sampled_from(_VOCABULARIES))
    files, params = draw(_ingest_inputs(vocabulary, days=30, docs=(1, 40)))
    # Mostly a range that holds every document and a run hazard in the vocabulary:
    # a config or ingest error ends the run before alignment.
    params["start"] = D(2019, 12, 1) + datetime.timedelta(days=draw(st.integers(0, 35)))
    params["run_hazards"] = draw(
        st.sampled_from([(), (), vocabulary[:1], vocabulary[-1:], vocabulary[::-1], ("flood",)])
    )
    type_map = dict(DEFAULT_TYPE_MAP)
    for label in ("Deslizamentos", "Incêndio florestal", "Inundações"):
        # "flood" is neither a configured hazard nor "ignore": a config error.
        type_map[label] = draw(st.sampled_from([*vocabulary, "ignore"] * 8 + ["flood"]))
    n_registries = draw(st.sampled_from([2, 2, 1, 0]))
    for source in draw(st.permutations(["EMDAT", "S2ID"]))[:n_registries]:
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["record_id", "source", "raw_type", "onset_date", "location", "status"])
        for i in range(draw(st.integers(1, 10))):
            onset = D(2020, 1, 1) + datetime.timedelta(days=draw(st.integers(-5, 30)))
            writer.writerow(
                [
                    f"{source[0]}-{i}",
                    draw(st.sampled_from(["", source])),
                    # "Hail" is in no type map: an align error.
                    draw(st.sampled_from(_REGISTRY_TYPES * 8 + ["Hail"])),
                    str(onset),
                    draw(st.sampled_from(["", "Petrópolis, RJ"])),
                    draw(st.sampled_from(["recognised", " Recognised ", "pending", ""])),
                ]
            )
        files[f"registry_{source}"] = (f"{source.lower()}.csv", handle.getvalue())
    params.update(
        type_map=type_map,
        s2id_accept=draw(st.sampled_from([("recognised",), ("recognised", "pending"), ()])),
        min_height=draw(st.sampled_from([1, 1, 2, 3])),
        min_distance=draw(st.integers(1, 10)),
        window_days=draw(st.integers(0, 10)),
    )
    return files, params


class TestOutputsAgainstTheOracle:
    """``run_pipeline`` writes what ``oracle_outputs`` renders from the stage oracles."""

    @staticmethod
    def check(files: dict, params: dict, command: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = {}
            for role, (name, text) in files.items():
                inputs[role] = Path(tmp) / name
                inputs[role].write_text(text, encoding="utf-8")
            config = PipelineConfig(
                documents=inputs["documents"],
                gazetteer=inputs["gazetteer"],
                registries={
                    role[len("registry_"):]: path
                    for role, path in inputs.items()
                    if role.startswith("registry_")
                },
                out_dir=Path(tmp) / "out",
                **params,
            )
            try:
                want = oracle_outputs(inputs, config, command)
            except InputError as exc:
                with pytest.raises(InputError) as raised:
                    run_pipeline(config, command)
                assert str(raised.value) == str(exc)
                return
            written = run_pipeline(config, command).files
            assert {name: path.read_bytes() for name, path in written.items()} == want

    @settings(max_examples=150, deadline=None)
    @given(drawn=_ingest_inputs())
    @example(  # the empty corpus, which the draws leave out
        drawn=(
            {
                "documents": ("docs.csv", "id,date,outlet,text_type,hazard,text\n"),
                "gazetteer": ("countries.txt", "\n".join(_GAZETTEER) + "\n"),
            },
            dict(
                hazards=("landslide", "fire"),
                doc_format="csv",
                start=D(2020, 1, 1),
                end=D(2021, 12, 31),
                run_hazards=(),
                target="Brasilien",
            ),
        )
    )
    def test_ingest_writes_the_oracle_bytes(self, drawn):
        self.check(*drawn, "ingest")

    @settings(max_examples=150, deadline=None)
    @given(drawn=_align_inputs())
    def test_align_writes_the_oracle_bytes(self, drawn):
        self.check(*drawn, "align")
