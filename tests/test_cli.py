import builtins
import codecs
import csv
import datetime
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attn_peaks import ConsistencyError, PipelineConfig, load_config, pipeline
from attn_peaks.cli import _configure, build_parser, main
from attn_peaks.ingest import default_gazetteer_path, parse_date
from attn_peaks.pipeline import SETTINGS, parse_int
from support import write_small_corpus

REPO_DIR = Path(__file__).parents[1]
GOLDEN_DIR = REPO_DIR / "tests" / "data" / "golden"


class TestExitCodes:
    def test_successful_run_returns_zero(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        assert (out / "manifest.json").is_file()

    def test_missing_documents_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "--documents", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_registry_path_exits_two_and_names_it(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path, with_registries=False)
        code = main(
            ["align", "--config", str(config), "--emdat", str(tmp_path / "gone.csv")]
        )
        assert code == 2
        assert "gone.csv" in capsys.readouterr().err

    def test_unconfigured_run_exits_two(self, capsys):
        assert main(["run"]) == 2
        assert "documents" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 2

    def test_stage_tagged_error_message(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        (tmp_path / "emdat.csv").write_text(
            "record_id,source,raw_type,onset_date,location,status\n"
            "EM-1,EMDAT,Volcanic activity,2020-01-09,,\n",
            encoding="utf-8",
        )
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "align:" in capsys.readouterr().err

    def test_broken_invariant_exits_three_with_the_stage(self, tmp_path, capsys, monkeypatch):
        def broken(series, params):
            raise ConsistencyError("peak outside its event")

        monkeypatch.setattr(pipeline, "detect_events", broken)
        config = write_small_corpus(tmp_path)
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "attn-peaks: detect: peak outside its event" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestFlagOverrides:
    def test_flags_override_config_keys(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "strict"
        # min-height 4 suppresses both planted events (peaks are 3 and 2)
        code = main(
            [
                "detect",
                "--config",
                str(config),
                "--min-height",
                "4",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "events.jsonl").read_text(encoding="utf-8") == ""

    def test_hazard_flag_narrows_processing(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "fire-only"
        code = main(
            ["detect", "--config", str(config), "--hazard", "fire", "--out-dir", str(out)]
        )
        assert code == 0
        assert not (out / "timeseries_landslide.csv").exists()
        lines = (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["hazard"] for e in events] == ["fire"]

    def test_repeated_hazard_flag_counts_once(self, tmp_path):
        config = write_small_corpus(tmp_path)
        once, twice = tmp_path / "once", tmp_path / "twice"
        common = ["run", "--config", str(config), "--hazard", "fire"]
        assert main([*common, "--out-dir", str(once)]) == 0
        assert main([*common, "--hazard", "fire", "--out-dir", str(twice)]) == 0
        assert sorted(p.name for p in twice.iterdir()) == sorted(p.name for p in once.iterdir())
        for path in once.iterdir():
            assert (twice / path.name).read_bytes() == path.read_bytes(), path.name
        manifest = json.loads((twice / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["hazards"] == ["fire"]

    def test_vocabulary_without_a_shipped_hazard_scopes_its_records_out(
        self, golden_dir, tmp_path, capsys
    ):
        # The shipped type map sends EM-DAT mass movements to landslide.
        config = _golden_copy(golden_dir, tmp_path)
        text = config.read_text(encoding="utf-8")
        text = text.replace("Deslizamentos = landslide", "Deslizamentos = ignore")
        config.write_text(text, encoding="utf-8")
        scoped, fire_only = tmp_path / "scoped", tmp_path / "fire-only"
        argv = ["run", "--config", str(config), "--hazard", "fire", "--out-dir", str(scoped)]
        assert main(argv) == 0
        documents = tmp_path / "documents.csv"
        with documents.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        with documents.open("w", encoding="utf-8", newline="") as handle:
            fire_rows = (row for row in rows if row[4] in ("hazard", "fire"))
            csv.writer(handle, lineterminator="\n").writerows(fire_rows)
        text = text.replace("hazards = landslide, fire", "hazards = fire")
        config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config), "--out-dir", str(fire_only)]) == 0
        names = sorted(path.name for path in scoped.iterdir())
        assert sorted(path.name for path in fire_only.iterdir()) == names
        for name in names:
            if name != "manifest.json":  # it records another documents file
                assert (fire_only / name).read_bytes() == (scoped / name).read_bytes(), name
        # An entry of the config file is still checked against the vocabulary.
        text = text.replace("Deslizamentos = ignore", "Deslizamentos = ignore\nFlood = flood")
        config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        message = "config: type map target 'flood' is neither a configured hazard nor 'ignore'"
        assert message in capsys.readouterr().err

    def test_window_days_flag(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "w0"
        # lag of the planted pair is 1, so a zero window drops it
        code = main(
            ["align", "--config", str(config), "--window-days", "0", "--out-dir", str(out)]
        )
        assert code == 0
        alignment = json.loads((out / "alignment.json").read_text(encoding="utf-8"))
        assert alignment["pairs"] == []

    def test_cli_without_config_file(self, tmp_path):
        write_small_corpus(tmp_path)
        out = tmp_path / "flags-only"
        code = main(
            [
                "detect",
                "--documents",
                str(tmp_path / "documents.csv"),
                "--start",
                "2020-01-01",
                "--end",
                "2020-12-31",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "events.jsonl").is_file()


# Each flag with the config key it overrides and the PipelineConfig field both
# set, as the hand-written parser had them: flag, section, key, field, value
# given, value set. A path is set as given by the flag and relative to the
# config file's directory by the key.
_KEY_AND_FLAG = [
    ("--documents", "corpus", "documents", "documents", "in/d.csv", Path("in/d.csv")),
    ("--format", "corpus", "format", "doc_format", "jsonl", "jsonl"),
    ("--start", "range", "start", "start", "2001-02-03", datetime.date(2001, 2, 3)),
    ("--end", "range", "end", "end", "2030-01-02", datetime.date(2030, 1, 2)),
    ("--gazetteer", "gazetteer", "path", "gazetteer", "g/c.txt", Path("g/c.txt")),
    ("--target", "gazetteer", "target", "target", "Peru", "Peru"),
    ("--min-height", "peaks", "min_height", "min_height", "3", 3),
    ("--min-distance", "peaks", "min_distance", "min_distance", "9", 9),
    ("--window-days", "align", "window_days", "window_days", "0", 0),
    ("--emdat", "align", "emdat", "registries", "r/e.csv", {"EMDAT": Path("r/e.csv")}),
    ("--s2id", "align", "s2id", "registries", "r/s.csv", {"S2ID": Path("r/s.csv")}),
    ("--out-dir", "output", "dir", "out_dir", "o/x", Path("o/x")),
    # An integer is an optional sign and ASCII digits.
    ("--min-height", "peaks", "min_height", "min_height", "+3", 3),
    ("--min-distance", "peaks", "min_distance", "min_distance", "09", 9),
    ("--window-days", "align", "window_days", "window_days", "-0", 0),
]


def _below(base: Path, value):
    if isinstance(value, Path):
        return base / value
    if isinstance(value, dict):
        return {source: base / path for source, path in value.items()}
    return value


def _flag_config(*argv: str) -> PipelineConfig:
    return _configure(build_parser().parse_args(["run", *argv]))


# Each text that a setting's parser or the format rule refuses, with the
# message that names the key or the flag: setting, text, message.
_REFUSED = [
    # int() alone would read a full-width or Arabic-Indic digit, or an underscore.
    *(
        (s, raw, f"{{name}} must be an integer: {raw!r}")
        for s in SETTINGS
        if s.parse is parse_int
        for raw in ("x", "\uff11", "\u0665", "1_4")
    ),
    *(
        (s, "2020-13-01", "{name} is not a date: '2020-13-01'")
        for s in SETTINGS
        if s.parse is parse_date
    ),
    (
        next(s for s in SETTINGS if s.key == "format"),
        "xml",
        "config: unknown document format 'xml' (expected csv or jsonl)",
    ),
]


class TestSettings:
    """The config keys and flags set the fields the hand-written parser set."""

    @pytest.mark.parametrize("flag, section, key, field, raw, value", _KEY_AND_FLAG)
    def test_key_and_flag_set_the_same_field(
        self, tmp_path, flag, section, key, field, raw, value
    ):
        config = tmp_path / "c.ini"
        config.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        assert _flag_config("--config", str(config)) == PipelineConfig(
            **{field: _below(tmp_path, value)}
        )
        assert _flag_config(flag, raw) == PipelineConfig(**{field: value})

    def test_a_registry_flag_replaces_only_its_own_source(self, tmp_path):
        config = tmp_path / "c.ini"
        config.write_text("[align]\ns2id = s.csv\nemdat = e.csv\n", encoding="utf-8")
        both = {"EMDAT": tmp_path / "e.csv", "S2ID": tmp_path / "s.csv"}
        assert _flag_config("--config", str(config)).registries == both
        flags = {"EMDAT": Path("e"), "S2ID": Path("s")}
        assert _flag_config("--s2id", "s", "--emdat", "e").registries == flags
        replaced = _flag_config("--config", str(config), "--emdat", "e").registries
        assert replaced == {"EMDAT": Path("e"), "S2ID": tmp_path / "s.csv"}
        replaced = _flag_config("--config", str(config), "--s2id", "s").registries
        assert replaced == {"EMDAT": tmp_path / "e.csv", "S2ID": Path("s")}
        config.write_text("[align]\ns2id = s.csv\n", encoding="utf-8")
        added = _flag_config("--config", str(config), "--emdat", "e").registries
        assert added == {"EMDAT": Path("e"), "S2ID": tmp_path / "s.csv"}

    @pytest.mark.parametrize("blank", ["", " \t"], ids=["empty", "blank"])
    @pytest.mark.parametrize("flag", [s.flag for s in SETTINGS if s.flag is not None])
    def test_empty_flag_is_not_set(self, golden_dir, tmp_path, monkeypatch, flag, blank):
        # As an empty key is not set: the config file's value, or else the default, applies.
        config = _golden_copy(golden_dir, tmp_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "out"  # the golden config's [output] dir
        assert main(["ingest", "--config", str(config)]) == 0
        want = {path.name: path.read_bytes() for path in out.iterdir()}
        tree = sorted(tmp_path.rglob("*"))
        shutil.rmtree(out)
        assert main(["ingest", "--config", str(config), f"{flag}={blank}"]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == want
        assert sorted(tmp_path.rglob("*")) == tree

    @pytest.mark.parametrize("command", ["ingest", "detect", "measure", "align", "report", "run"])
    def test_help_lists_the_flags_readme_names(self, command, capsys):
        readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Flags override their config keys:(.*?)\n\n", readme, re.S)
        named = set(re.findall(r"--[a-z0-9-]+", sentence.group(1)))
        assert {flag for flag, *_ in _KEY_AND_FLAG} | {"--config", "--hazard"} == named
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == named | {"--help"}

    @pytest.mark.parametrize("command", ["ingest", "detect", "measure", "align", "report", "run"])
    def test_help_shows_a_default_exactly_where_one_exists(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        # One entry per option, from its flag to the next one; argparse may wrap it.
        entries = re.findall(r"^  (-[^\n]*(?:\n   [^\n]*)*)", capsys.readouterr().out, re.M)
        shown = {entry.split()[0] for entry in entries if "(default " in " ".join(entry.split())}
        assert shown == {
            "--format", "--start", "--end", "--target",
            "--min-height", "--min-distance", "--window-days", "--out-dir",
        }

    @pytest.mark.parametrize(
        "setting, raw, message", _REFUSED, ids=[setting.flag for setting, *_ in _REFUSED]
    )
    def test_key_and_flag_give_the_same_rule(self, tmp_path, capsys, setting, raw, message):
        config = tmp_path / "c.ini"
        config.write_text(f"[{setting.section}]\n{setting.key} = {raw}\n", encoding="utf-8")
        out = ["--out-dir", str(tmp_path / "out")]
        assert main(["run", "--config", str(config), *out]) == 2
        name = f"config [{setting.section}] {setting.key}"
        assert capsys.readouterr().err == f"attn-peaks: {message.format(name=name)}\n"
        assert main(["run", setting.flag, raw, *out]) == 2
        assert capsys.readouterr().err == f"attn-peaks: {message.format(name=setting.flag)}\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("", ["--min-height", "0"], "config: min_height must be >= 1, got 0"),
            ("", ["--window-days", "-1"], "config: window_days must be >= 0, got -1"),
            ("hazards = ,\n", [], "config: no hazards configured"),
            ("format = xml\n", [], "config: unknown document format 'xml' (expected csv or jsonl)"),
        ],
    )
    def test_values_the_config_check_refuses(self, tmp_path, capsys, text, argv, message):
        config = tmp_path / "c.ini"
        config.write_text("[corpus]\ndocuments = d.csv\n" + text, encoding="utf-8")
        assert main(["run", "--config", str(config), *argv]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nmin_height = 3\n",
            "[DEFAULT]\nwindow_days = 9\n\n[align]\ns2id_accept = recognised\n",
            "[DEFAULT]\nwindow_days = 9\n\n[peaks]\nmin_height = 2\n",
            "[DEFAULT]\nFlood = fire\n\n[type_map]\nWildfire = fire\n",
        ],
        ids=["alone", "align", "peaks", "type_map"],
    )
    def test_default_section_is_an_unknown_section(self, tmp_path, capsys, text):
        config = tmp_path / "c.ini"
        config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        message = f"config file {str(config)!r} has an unknown section [DEFAULT]"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_series_may_end_on_the_last_representable_day(tmp_path, command):
    documents = tmp_path / "documents.csv"
    documents.write_text(
        "id,date,outlet,text_type,hazard,text\n"
        "L1,9999-12-30,Blatt 1,Bericht,landslide,Erdrutsch in Brasilien A\n"
        "L2,9999-12-31,Blatt 2,Bericht,landslide,Erdrutsch in Brasilien B\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = [command, "--documents", str(documents), "--start", "9999-12-01", "--end", "9999-12-31"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    rows = (out / "timeseries_landslide.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 31
    assert rows[-2:] == ["9999-12-30,1,0,0", "9999-12-31,1,0,0"]


def _basic(day: str) -> str:
    return day.replace("-", "")


def _iso_week(day: str) -> str:
    year, week, weekday = datetime.date.fromisoformat(day).isocalendar()
    return f"{year}-W{week:02d}-{weekday}"


@pytest.mark.parametrize("spell", [_basic, _iso_week])
class TestDatesMustBeYyyyMmDd:
    """Other ISO 8601 spellings of a valid day exit 2 on every Python version.

    Python 3.11's ``date.fromisoformat`` accepts both spellings used here;
    Python 3.10's does not.
    """

    def _replace(self, path, old: str, new: str) -> None:
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")

    def test_document_date_names_the_row(self, tmp_path, capsys, spell):
        config = write_small_corpus(tmp_path)
        self._replace(tmp_path / "documents.csv", "L3,2020-01-11", f"L3,{spell('2020-01-11')}")
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        message = f"row 3 of {str(tmp_path / 'documents.csv')!r}: invalid date"
        assert message in capsys.readouterr().err

    def test_registry_onset_names_the_row(self, tmp_path, capsys, spell):
        config = write_small_corpus(tmp_path)
        self._replace(tmp_path / "emdat.csv", "2020-01-09", spell("2020-01-09"))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"row 1 of {str(tmp_path / 'emdat.csv')!r}: invalid date" in capsys.readouterr().err

    def test_config_range_names_the_key(self, tmp_path, capsys, spell):
        config = write_small_corpus(tmp_path)
        self._replace(config, "start = 2020-01-01", f"start = {spell('2020-01-01')}")
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config [range] start is not a date" in capsys.readouterr().err

    def test_range_flag_names_the_flag(self, tmp_path, capsys, spell):
        config = write_small_corpus(tmp_path)
        assert main(["run", "--config", str(config), "--end", spell("2020-12-31")]) == 2
        assert "--end is not a date" in capsys.readouterr().err


def test_module_entry_point_smoke(tmp_path):
    config = write_small_corpus(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "attn_peaks",
            "run",
            "--config",
            str(config),
            "--out-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").is_file()


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    # A run that hangs, such as on a FIFO that waits for a writer, fails the test.
    return subprocess.run(
        [sys.executable, "-m", "attn_peaks", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )


# Runs the command line with every import of numpy failing.
_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from attn_peaks.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _golden_copy(golden_dir, tmp_path):
    for name in ("config.ini", "documents.csv", "emdat.csv", "s2id.csv"):
        shutil.copy(golden_dir / name, tmp_path / name)
    return tmp_path / "config.ini"


def _edit_line(path, line: int, edit) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[line] = edit(lines[line])
    path.write_bytes(b"\n".join(lines))


class TestUnreadableInput:
    """Bad bytes and long fields end in exit 0 or 2, never in a traceback."""

    def test_invalid_utf8_in_registry_exits_two_naming_the_row(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        _edit_line(tmp_path / "emdat.csv", 3, lambda line: line[:10] + b"\xff" + line[10:])
        proc = _run_cli("run", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "row 3 of" in proc.stderr and "emdat.csv" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_invalid_utf8_in_documents_exits_two_naming_the_row(
        self, golden_dir, tmp_path, format
    ):
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / "documents.csv"
        if format == "jsonl":
            with documents.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            documents = tmp_path / "documents.jsonl"
            documents.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        # Row 150 is line 150 of the CSV (after its header) and line 149 of the
        # JSONL file (counted from 0). It lies past the first 8 KiB chunk that a
        # text-mode reader decodes, so the decoder fails rows before it.
        line = 150 if format == "csv" else 149
        assert len(b"\n".join(documents.read_bytes().split(b"\n")[:line])) > 8192
        _edit_line(documents, line, lambda text: text + b"\xc3")
        proc = _run_cli(
            "run", "--config", str(config), "--documents", str(documents),
            "--format", format, "--out-dir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "row 150 of" in proc.stderr and documents.name in proc.stderr
        assert "0xc3" in proc.stderr

    def test_lone_surrogate_escape_in_jsonl_text_exits_two_naming_the_row(
        self, golden_dir, tmp_path
    ):
        # Without a text_key the text is digested, and a lone surrogate cannot be encoded.
        config = _golden_copy(golden_dir, tmp_path)
        with (tmp_path / "documents.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert "text_key" not in rows[0]
        rows[149]["text"] += " PLACEHOLDER"
        documents = tmp_path / "documents.jsonl"
        documents.write_text(
            "".join(json.dumps(r).replace("PLACEHOLDER", "\\ud800") + "\n" for r in rows),
            encoding="utf-8",
        )
        proc = _run_cli(
            "ingest", "--config", str(config), "--documents", str(documents),
            "--format", "jsonl", "--out-dir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        message = f"row 150 of {str(documents)!r}: field 'text' holds an unpaired surrogate escape"
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["nesting", "digits", "array"])
    def test_jsonl_row_that_is_no_document_exits_two_naming_the_row(
        self, golden_dir, tmp_path, capsys, kind
    ):
        # The parser gives up on deep nesting and, where Python limits the
        # digits of an int conversion, on a number that long.
        record = dict(date="2011-01-12", outlet="o", text_type="t", hazard="fire", text="x")
        line = {
            "nesting": "[" * 100_000 + "]" * 100_000,
            "digits": json.dumps(record).replace("{", '{"id": ' + "9" * 5000 + ", ", 1),
            "array": "[1]",
        }[kind]
        limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000
        reason = {
            "nesting": "malformed JSON: ",
            "digits": "malformed JSON: " if limited else "field 'id' must be a string",
            "array": "expected a JSON object",
        }[kind]
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / "documents.jsonl"
        documents.write_text(line + "\n", encoding="utf-8")
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(config), "--documents", str(documents),
             "--format", "jsonl", "--out-dir", str(out)]
        )
        assert code == 2
        assert f"ingest: row 1 of {str(documents)!r}: {reason}" in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before

    def test_invalid_utf8_in_gazetteer_exits_two(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        gazetteer = tmp_path / "countries.txt"
        gazetteer.write_bytes(default_gazetteer_path().read_bytes() + b"\xff\n")
        proc = _run_cli(
            "run", "--config", str(config), "--gazetteer", str(gazetteer),
            "--out-dir", str(tmp_path / "out"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "countries.txt" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_invalid_utf8_in_config_exits_two(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        config.write_bytes(config.read_bytes() + b"\xff\n")
        proc = _run_cli("run", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "config.ini" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_every_input_may_start_with_a_bom(self, golden_dir, tmp_path, capsys, format):
        config = _golden_copy(golden_dir, tmp_path)
        gazetteer = tmp_path / "countries.txt"
        shutil.copy(default_gazetteer_path(), gazetteer)
        documents = tmp_path / "documents.csv"
        if format == "jsonl":
            with documents.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            documents = tmp_path / "documents.jsonl"
            documents.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        for path in (config, documents, gazetteer, tmp_path / "emdat.csv", tmp_path / "s2id.csv"):
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(config), "--documents", str(documents), "--format", format,
             "--gazetteer", str(gazetteer), "--out-dir", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        for expected in sorted((golden_dir / "expected").iterdir()):
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name

    def test_long_registry_field_loads(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        # Quoted, so the 200 KB location stays one field of the row.
        _edit_line(
            tmp_path / "emdat.csv",
            2,
            lambda line: line.replace(b"Nova Friburgo", b'"' + b"x" * 200_000 + b'"'),
        )
        proc = _run_cli("run", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        expected = (golden_dir / "expected" / "alignment.json").read_bytes()
        assert (tmp_path / "out" / "alignment.json").read_bytes() == expected

    def test_long_document_body_loads(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / "documents.csv"
        with documents.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        rows[5][5] += " " + "y" * 200_000
        with documents.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        proc = _run_cli("run", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        expected = (golden_dir / "expected" / "events.jsonl").read_bytes()
        assert (tmp_path / "out" / "events.jsonl").read_bytes() == expected


class TestOutputPaths:
    """Output paths that cannot be written end in exit 2, never in a traceback."""

    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_on_a_regular_file_exits_two_and_leaves_nothing(
        self, golden_dir, tmp_path, below
    ):
        config = _golden_copy(golden_dir, tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n", encoding="utf-8")
        out = blocker / "out" if below else blocker
        proc = _run_cli("ingest", "--config", str(config), "--out-dir", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"cannot write output directory {str(out)!r}" in proc.stderr
        assert blocker.read_text(encoding="utf-8") == "keep me\n"
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    def test_directory_in_place_of_an_output_file_replaces_nothing(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        out = tmp_path / "out"
        command = ["ingest", "--config", str(config), "--out-dir", str(out)]
        first = _run_cli(*command, "--hazard", "landslide")
        assert first.returncode == 0, first.stderr
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        (out / "timeseries_fire.csv").mkdir()
        proc = _run_cli(*command)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{str(out / 'timeseries_fire.csv')!r}: it is a directory" in proc.stderr
        after = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        assert after == before
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    @pytest.mark.parametrize("out", ["o\0ut", "o\0/out"])
    def test_nul_in_the_configured_out_dir_exits_two_and_leaves_nothing(
        self, golden_dir, tmp_path, capsys, out
    ):
        config = _golden_copy(golden_dir, tmp_path)
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("dir = out", f"dir = {out}"), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 2
        # Refused while the configuration is checked, before any input is read.
        message = f"cannot write output directory {str(tmp_path / out)!r}: embedded null byte"
        assert f"attn-peaks: config: {message}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "config.ini", "documents.csv", "emdat.csv", "s2id.csv"
        ]

    # An indented line continues the value: "land", then "  slide", is the label "land\nslide".
    @pytest.mark.parametrize("label", ["a/b", "a\\b", 'a"b', "land\nslide"])
    def test_hazard_label_with_a_path_separator_exits_two(self, tmp_path, label):
        config = write_small_corpus(tmp_path)
        text = config.read_text(encoding="utf-8")
        value = label.replace("\n", "\n  ")
        config.write_text(
            text.replace("hazards = landslide, fire", f"hazards = {value}, landslide, fire"),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        proc = _run_cli("run", "--config", str(config), "--out-dir", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"hazard label {label!r}" in proc.stderr
        assert not out.exists()
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    def test_ignore_as_a_hazard_label_exits_two(self, golden_dir, tmp_path, capsys):
        config = _golden_copy(golden_dir, tmp_path)
        text = config.read_text(encoding="utf-8")
        assert "hazards = landslide, fire\n" in text
        config.write_text(
            text.replace("hazards = landslide, fire", "hazards = landslide, fire, ignore"),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
        message = "attn-peaks: config: hazard label 'ignore' is reserved for the type map"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_staging_directory_is_made_inside_the_out_dir(
        self, golden_dir, tmp_path, capsys, monkeypatch
    ):
        # Staging beside the output directory needs a writable parent and can cross filesystems.
        config = _golden_copy(golden_dir, tmp_path)
        out = tmp_path / "out"
        real_mkdtemp = tempfile.mkdtemp

        def inside_out_only(*args, dir=None, **kwargs):
            if dir is None or Path(dir) != out:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dir))
            return real_mkdtemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", inside_out_only)
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0, (
            capsys.readouterr().err
        )
        for expected in (golden_dir / "expected").iterdir():
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    def test_writable_out_dir_under_a_read_only_parent_is_written(self, golden_dir, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root writes into a directory whatever its mode bits")
        config = _golden_copy(golden_dir, tmp_path)
        parent = tmp_path / "read-only"
        out = parent / "out"
        out.mkdir(parents=True)
        parent.chmod(0o555)
        try:
            proc = _run_cli("run", "--config", str(config), "--out-dir", str(out))
        finally:
            parent.chmod(0o755)
        assert proc.returncode == 0, proc.stderr
        for expected in (golden_dir / "expected").iterdir():
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name
        assert not list(tmp_path.rglob(".attn-peaks-*"))

    @pytest.mark.parametrize("out_dir", ["out", "a/b/out"])
    def test_write_error_removes_the_out_dir_it_made(
        self, golden_dir, tmp_path, capsys, monkeypatch, out_dir
    ):
        config = _golden_copy(golden_dir, tmp_path)
        before = set(tmp_path.rglob("*"))
        out = tmp_path / out_dir

        def disk_full(path, measures):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(pipeline, "_write_measures_csv", disk_full)
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write output directory {str(out)!r}: {os.strerror(errno.ENOSPC)}" in err
        assert set(tmp_path.rglob("*")) == before

    def test_input_path_that_is_not_utf8_is_refused_by_run_only(
        self, golden_dir, tmp_path, capsys
    ):
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / os.fsdecode(b"docs\xff.csv")
        try:
            shutil.copy(tmp_path / "documents.csv", documents)
        except (OSError, UnicodeEncodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "out"
        args = ["--config", str(config), "--documents", str(documents), "--out-dir", str(out)]
        assert main(["run", *args]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"the documents path {str(documents)!r} in manifest.json" in err
        assert "not valid UTF-8" in err
        assert set(tmp_path.rglob("*")) == before
        assert main(["ingest", *args]) == 0, capsys.readouterr().err
        assert (out / "corpus_stats.json").read_bytes() == (
            golden_dir / "expected" / "corpus_stats.json"
        ).read_bytes()


    def test_target_that_is_not_utf8_is_refused_by_run_only(self, golden_dir, tmp_path, capsys):
        # A command-line byte that is not UTF-8 reaches Python as a lone surrogate.
        # The target still matches Brasilien, so every stage runs before the manifest.
        config = _golden_copy(golden_dir, tmp_path)
        target = os.fsdecode(b"Brasilien\xff")
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "out"
        args = ["--config", str(config), "--target", target, "--out-dir", str(out)]
        assert main(["run", *args]) == 2
        message = f"cannot record the target {target!r} in manifest.json: it is not valid UTF-8"
        assert message in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before
        assert main(["ingest", *args]) == 0, capsys.readouterr().err
        assert (out / "corpus_stats.json").read_bytes() == (
            golden_dir / "expected" / "corpus_stats.json"
        ).read_bytes()


class TestPathsInMessages:
    """A configured path is printed quoted and escaped: no control character reaches stderr."""

    @pytest.mark.parametrize(
        "name",
        ["a\0b", "a\x1b[2Jb", "a\nb", "a\x7fb", "a\x85b", pytest.param("a" * 300, id="a*300")],
    )
    @pytest.mark.parametrize(
        "flag", ["--config", "--documents", "--gazetteer", "--emdat", "--s2id", "--out-dir"]
    )
    def test_control_character_in_a_path_exits_two_escaped(
        self, golden_dir, tmp_path, capsys, flag, name
    ):
        config = _golden_copy(golden_dir, tmp_path)
        path = tmp_path / name
        if flag == "--out-dir":
            # A directory below a regular file cannot be made, whatever its name.
            (tmp_path / "blocker").write_text("", encoding="utf-8")
            path = tmp_path / "blocker" / name
        args = ["ingest", "--config", str(path if flag == "--config" else config)]
        if flag != "--config":
            args += [flag, str(path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert repr(str(path)) in err
        assert err.endswith("\n")
        assert err[:-1].isprintable()

    def test_escape_in_a_path_never_reaches_stderr_raw(self, golden_dir, tmp_path):
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / "docs\x1b[31m.csv"
        proc = _run_cli("ingest", "--config", str(config), "--documents", str(documents))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"documents file not found: {str(documents)!r}" in proc.stderr
        assert "\x1b" not in proc.stderr


_INPUT_FLAGS = ["--config", "--documents", "--gazetteer", "--emdat"]


def _golden_input(golden_dir, tmp_path, flag):
    """The golden config copied to ``tmp_path`` and the copied input that ``flag`` names."""
    config = _golden_copy(golden_dir, tmp_path)
    gazetteer = tmp_path / "countries.txt"
    shutil.copy(default_gazetteer_path(), gazetteer)
    inputs = {
        "--config": config,
        "--documents": tmp_path / "documents.csv",
        "--gazetteer": gazetteer,
        "--emdat": tmp_path / "emdat.csv",
    }
    return config, inputs[flag]


def _argv(config, flag, path, out) -> list[str]:
    """``run`` on ``config`` with the input of ``flag`` at ``path``."""
    if flag == "--config":
        return ["run", "--config", str(path), "--out-dir", str(out)]
    return ["run", "--config", str(config), flag, str(path), "--out-dir", str(out)]


class TestInputFiles:
    """An input file that cannot be opened as a regular file is exit 2, naming it."""

    @pytest.mark.parametrize("how", ["patched open", "chmod 0"])
    @pytest.mark.parametrize("flag", _INPUT_FLAGS)
    def test_unreadable_input_exits_two_naming_it(
        self, golden_dir, tmp_path, capsys, monkeypatch, flag, how
    ):
        config, path = _golden_input(golden_dir, tmp_path, flag)
        if how == "chmod 0":
            if os.geteuid() == 0:
                pytest.skip("root reads a file whatever its mode bits")
            path.chmod(0)
        else:
            real_open = io.open

            def denied(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr(io, "open", denied)
            monkeypatch.setattr(builtins, "open", denied)
        out = tmp_path / "out"
        assert main(_argv(config, flag, path, out)) == 2
        err = capsys.readouterr().err
        assert f"file {str(path)!r}: {os.strerror(errno.EACCES)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("flag", _INPUT_FLAGS)
    def test_fifo_input_exits_two_without_waiting(self, golden_dir, tmp_path, flag):
        # Opening a FIFO for reading waits for a writer; the run must refuse it at once.
        config, path = _golden_input(golden_dir, tmp_path, flag)
        path.unlink()
        os.mkfifo(path)
        out = tmp_path / "out"
        proc = _run_cli(*_argv(config, flag, path, out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"file {str(path)!r}: not a regular file" in proc.stderr
        assert not out.exists()

    def test_documents_that_vanish_mid_run_exit_two(
        self, golden_dir, tmp_path, capsys, monkeypatch
    ):
        # The manifest hashes every input after the stages have run.
        config = _golden_copy(golden_dir, tmp_path)
        documents = tmp_path / "documents.csv"
        real_filter = pipeline.filter_single_country

        def filter_then_unlink(docs, gazetteer):
            documents.unlink()
            return real_filter(docs, gazetteer)

        monkeypatch.setattr(pipeline, "filter_single_country", filter_then_unlink)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 2
        assert f"documents file not found: {str(documents)!r}" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob(".attn-peaks-*"))


def test_readme_config_block_holds_the_defaults(tmp_path):
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config file\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    config = tmp_path / "config.ini"
    config.write_text(block, encoding="utf-8")
    loaded, defaults = load_config(config), PipelineConfig()
    for setting in SETTINGS:
        if setting.parse is Path:
            continue
        assert re.search(rf"^{setting.key} = \S", block, re.M), setting.key
        assert getattr(loaded, setting.field) == getattr(defaults, setting.field), setting.key


def test_golden_run_never_falls_back_to_the_locale_encoding(golden_dir, tmp_path):
    config = _golden_copy(golden_dir, tmp_path)
    out = tmp_path / "out"
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    command = ["run", "--config", str(config), "--out-dir", str(out)]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "attn_peaks", *command],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert "EncodingWarning" not in proc.stderr
    for expected in sorted((golden_dir / "expected").iterdir()):
        assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name


def test_golden_run_needs_no_numpy(golden_dir, tmp_path):
    config = _golden_copy(golden_dir, tmp_path)
    out = tmp_path / "out"
    command = ["run", "--config", str(config), "--out-dir", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *command],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    for expected in sorted((golden_dir / "expected").iterdir()):
        assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name


# Values a mutation may give a config key, besides those the golden file holds:
# empty, NUL, non-ASCII digits, a negative and a huge count.
_ODD_VALUES = ["", "\0", "out\0", "Brasi\0lien", "٣", "2000-01-0١", "-1", "9" * 30, "ignore"]
_FAR_RANGE = {"start": "start = 9999-12-01", "end": "end = 9999-12-31"}
_LINE = st.integers(0, 99)
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), _LINE),
        st.tuples(st.just("repeat"), _LINE),
        st.tuples(st.just("move"), _LINE, _LINE),
        st.tuples(st.just("set"), _LINE, st.sampled_from(_ODD_VALUES)),
        st.tuples(
            st.just("insert"),
            _LINE,
            st.sampled_from(["[DEFAULT]", "[DEFAULT]\nmin_height = 3", "window_days = 9"]),
        ),
        # A range that ends on the last day a date can hold. From 2000 on it would
        # be an 8,000-year series, too slow for one example, so it starts late and
        # the golden documents fall outside it.
        # test_series_may_end_on_the_last_representable_day writes such a series.
        st.just(("range", 0)),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for kind, at, *arg in mutations:
        i = at % len(lines)
        key, has_value, value = lines[i].partition("=")
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "move" and has_value:
            other = lines[arg[0] % len(lines)].partition("=")[2]
            lines[i] = f"{key}={other}"
        elif kind == "set":
            lines[i] = f"{key}= {arg[0]}" if has_value else lines[i] + arg[0]
        elif kind == "insert":
            lines.insert(i, arg[0])
        elif kind == "range":
            lines = [_FAR_RANGE.get(line.partition("=")[0].strip(), line) for line in lines]
    return lines


@settings(max_examples=50, deadline=None)
@given(_MUTATIONS)
def test_mutated_golden_config_exits_zero_or_two(mutations):
    lines = (GOLDEN_DIR / "config.ini").read_text(encoding="utf-8").splitlines()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("documents.csv", "emdat.csv", "s2id.csv"):
            shutil.copy(GOLDEN_DIR / name, root / name)
        config = root / "config.ini"
        config.write_text("\n".join(_mutate(lines, mutations)) + "\n", encoding="utf-8")
        # A dropped [output] dir writes to ./out: keep that inside the temporary directory.
        os.chdir(root)
        try:
            code = main(["run", "--config", str(config)])
        finally:
            os.chdir(cwd)
        assert code in (0, 2)
        assert not list(root.rglob(".attn-peaks-*"))


# Bytes a mutation may splice into an input line: CSV quote and separator, bytes
# that are not UTF-8 (a stray byte, a lead byte without its continuation), NUL,
# CR, a BOM, a JSON lone-surrogate escape, an impossible and the last date, a
# hazard outside the vocabulary and a second country name.
_SPLICES = [
    b'"', b",", b"\xff", b"\xc3", b"\0", b"\r", codecs.BOM_UTF8, b"\\ud800",
    b"2020-02-30", b"9999-12-31", b"flood", b"Peru",
]
_INPUT_LINE = st.integers(0, 299)
_INPUT_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), _INPUT_LINE),
        st.tuples(st.just("repeat"), _INPUT_LINE),
        st.tuples(st.just("swap"), _INPUT_LINE, _INPUT_LINE),
        st.tuples(st.just("splice"), _INPUT_LINE, st.integers(0, 199), st.sampled_from(_SPLICES)),
    ),
    min_size=1,
    max_size=3,
)


def _mutate_lines(lines: list[bytes], mutations) -> list[bytes]:
    lines = list(lines)
    for kind, at, *arg in mutations:
        i = at % len(lines)
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = arg[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "splice":
            at_byte = arg[0] % (len(lines[i]) + 1)
            lines[i] = lines[i][:at_byte] + arg[1] + lines[i][at_byte:]
    return lines


def _documents_as_jsonl(csv_path: Path) -> Path:
    """Write the documents of ``csv_path`` as JSON lines beside it, same keys, same order."""
    with csv_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    path = csv_path.with_suffix(".jsonl")
    lines = [json.dumps(row, ensure_ascii=False) + "\n" for row in rows]
    path.write_text("".join(lines), encoding="utf-8")
    return path


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["documents.csv", "documents.jsonl", "emdat.csv", "s2id.csv"]),
    _INPUT_MUTATIONS,
)
# A first row that nests too deeply for the JSON parser, and one whose number
# has more digits than Python converts to an int by default.
@example("documents.jsonl", [("splice", 0, 0, b"[" * 100_000 + b"]" * 100_000 + b"\n")])
@example("documents.jsonl", [("splice", 0, 0, b'{"id": ' + b"9" * 5000 + b"}\n")])
def test_mutated_golden_inputs_exit_zero_or_two(name, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = _golden_copy(GOLDEN_DIR, root)
        out = root / "out"
        command = ["run", "--config", str(config), "--out-dir", str(out)]
        if name == "documents.jsonl":
            documents = _documents_as_jsonl(root / "documents.csv")
            command += ["--documents", str(documents), "--format", "jsonl"]
        path = root / name
        path.write_bytes(b"\n".join(_mutate_lines(path.read_bytes().split(b"\n"), mutations)))
        code = main(command)
        assert code in (0, 2)
        assert not list(root.rglob(".attn-peaks-*"))
        if code == 2:
            assert not out.exists()
