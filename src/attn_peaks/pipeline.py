"""End-to-end pipeline: configuration, stage orchestration, artifact writers.

A run loads documents, applies the single-country filter, builds one count
series per hazard, detects and segments news events, computes the event
measures and their distribution summaries, aligns events against the
configured disaster registries and writes one report per stage.

Outputs are data-only (CSV / JSON) and byte-stable: rows and keys are
canonically ordered, no timestamps are embedded, and reruns on identical
inputs reproduce every artifact exactly. Files are written to a temporary
directory first and moved into place only when the whole run succeeded.

Configuration is a flat INI file, laid out in README's "Config file";
every key has a default except the input paths. :data:`SETTINGS` declares
each key once, with the CLI flag that overrides it and the
:class:`PipelineConfig` field it sets.
"""

from __future__ import annotations

import configparser
import datetime
import itertools
import json
import os
import re
import shutil
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, TextIO

from . import align as align_mod
from .align import DEFAULT_TYPE_MAP, IGNORE, AlignmentReport, RegistryLoad
from .errors import AttnPeaksError, InputError
from .ingest import (
    DEFAULT_HAZARDS,
    DEFAULT_TARGET,
    DOC_FORMATS,
    CorpusStats,
    CountSeries,
    build_count_series,
    check_format,
    corpus_stats,
    default_gazetteer_path,
    filter_single_country,
    load_documents,
    load_gazetteer,
    open_input,
    parse_date,
    path_repr,
)
from .measures import MEASURE_COLUMNS, MEASURES_HEADER, MeasureSet, measure_events, summarize
from .peaks import NewsEvent, PeakParams, detect_events

# Each command runs the stages up to its own, in this order.
COMMANDS = {
    "ingest": "load and filter documents, write count series and corpus stats",
    "detect": "detect peaks and segment news events",
    "measure": "compute event measures and distribution summaries",
    "align": "align events against disaster registries",
    "report": "write the aggregated run report",
    "run": "run every stage and write all artifacts plus the manifest",
}

# National-registry (S2ID) entries are kept only in these recognition states.
DEFAULT_S2ID_ACCEPT = ("recognised",)


@dataclass
class PipelineConfig:
    """Resolved run parameters. Input paths have no defaults; the rest do."""

    documents: Path | None = None
    doc_format: str = "csv"
    start: datetime.date = datetime.date(2000, 1, 1)
    end: datetime.date = datetime.date(2024, 12, 31)
    hazards: tuple[str, ...] = DEFAULT_HAZARDS
    run_hazards: tuple[str, ...] = ()  # empty -> all of `hazards`
    gazetteer: Path | None = None  # None -> packaged default list
    target: str = DEFAULT_TARGET
    min_height: int = PeakParams.min_height
    min_distance: int = PeakParams.min_distance
    window_days: int = align_mod.DEFAULT_WINDOW_DAYS
    registries: dict[str, Path] = field(default_factory=dict)  # source -> registry CSV
    type_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_TYPE_MAP))
    s2id_accept: tuple[str, ...] = DEFAULT_S2ID_ACCEPT
    out_dir: Path = Path("out")

    @property
    def active_hazards(self) -> tuple[str, ...]:
        """The hazards this run processes, each once, in the order given."""
        return tuple(dict.fromkeys(self.run_hazards or self.hazards))


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# ASCII digits only: int() would also read other scripts' digits and underscores.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(raw: str) -> int:
    """An optional sign and ASCII digits, whitespace around them stripped; ValueError otherwise."""
    raw = raw.strip()
    if not _INTEGER.fullmatch(raw):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


class Setting(NamedTuple):
    """One run parameter: its config-file key, its flag and the field it sets."""

    section: str
    key: str
    flag: str | None  # None: set in the config file only
    field: str  # of PipelineConfig
    parse: Callable[[str], Any]  # ValueError for a bad value
    help: str


SETTINGS = (
    Setting("corpus", "documents", "--documents", "documents", Path,
            "document CSV or JSON-lines file"),
    Setting("corpus", "format", "--format", "doc_format", str,
            f"document file format, {' or '.join(DOC_FORMATS)}"),
    Setting("corpus", "hazards", None, "hazards", _split_list, "hazard vocabulary"),
    Setting("range", "start", "--start", "start", parse_date, "first day of the series range"),
    Setting("range", "end", "--end", "end", parse_date, "last day of the series range"),
    Setting("gazetteer", "path", "--gazetteer", "gazetteer", Path, "country list file"),
    Setting("gazetteer", "target", "--target", "target", str, "target country name"),
    Setting("peaks", "min_height", "--min-height", "min_height", parse_int,
            "inclusive peak height threshold"),
    Setting("peaks", "min_distance", "--min-distance", "min_distance", parse_int,
            "minimum days between peaks"),
    Setting("align", "window_days", "--window-days", "window_days", parse_int,
            "alignment window in days"),
    Setting("align", "emdat", "--emdat", "registries", Path, "EM-DAT style registry CSV"),
    Setting("align", "s2id", "--s2id", "registries", Path, "S2iD style registry CSV"),
    Setting("align", "s2id_accept", None, "s2id_accept", _split_list,
            "recognition states kept for S2ID entries"),
    Setting("output", "dir", "--out-dir", "out_dir", Path, "output directory"),
)

# How a value is described that its setting's parser rejects.
_INVALID = {parse_int: "must be an integer", parse_date: "is not a date"}


def apply_setting(config: PipelineConfig, setting: Setting, raw: str, where: str) -> None:
    """Parse a key's or flag's text into its field; ``where`` names the key or flag.

    A registry path adds or replaces the entry of its source.
    """
    try:
        value = setting.parse(raw)
    except ValueError:
        raise InputError(f"{where} {_INVALID[setting.parse]}: {raw!r}") from None
    if setting.field == "registries":
        value = {**config.registries, setting.key.upper(): value}
    setattr(config, setting.field, value)


def load_config(path: Path | str) -> PipelineConfig:
    """Parse an INI config file into a :class:`PipelineConfig`.

    Relative paths resolve against the config file's directory. ``[type_map]``
    takes any key; every other section and key is one of :data:`SETTINGS`.
    """
    path = Path(path)
    # A section name cannot be empty, so [DEFAULT] is an ordinary section, and unknown.
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",), default_section=""
    )
    parser.optionxform = str  # type: ignore[assignment]  # keep type-map key case
    # ConfigParser.read would skip a file it cannot open without a word.
    with open_input(path, "config") as handle:
        try:
            parser.read_file(handle, source=str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InputError(f"config file {path_repr(path)} is malformed: {exc}") from None

    for section in parser.sections():
        if section == "type_map":
            continue
        known = {setting.key for setting in SETTINGS if setting.section == section}
        if not known:
            raise InputError(
                f"config file {path_repr(path)} has an unknown section [{section}]"
            )
        unknown = sorted(set(parser.options(section)) - known)
        if unknown:
            raise InputError(f"config [{section}] has an unknown key {unknown[0]!r}")

    config = PipelineConfig()
    for setting in SETTINGS:
        raw = parser.get(setting.section, setting.key, fallback="").strip()
        if not raw:
            continue
        if setting.parse is Path:
            raw = str(path.parent / raw)
        apply_setting(config, setting, raw, f"config [{setting.section}] {setting.key}")
    if parser.has_section("type_map"):
        for raw_type, hazard in parser.items("type_map"):
            config.type_map[raw_type] = hazard.strip()
    return config


def validate_config(config: PipelineConfig) -> None:
    """Check parameters and labels with the stages' own rules, and open each registry."""
    CountSeries.check_range(config.start, config.end)
    check_format(config.doc_format)
    try:
        PeakParams(min_height=config.min_height, min_distance=config.min_distance)
        align_mod.check_window(config.window_days)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if not config.hazards:
        raise InputError("no hazards configured")
    for hazard in config.hazards:
        # A label names an output file (timeseries_<hazard>.csv) and fills a measures.csv cell.
        if not hazard.isprintable() or any(c in hazard for c in '/\\,"'):
            reason = "must be printable and contain no '/', '\\', ',' or '\"'"
            raise InputError(f"hazard label {hazard!r} {reason}")
        # A type-map entry naming it drops its records, so no record could reach it.
        if hazard == IGNORE:
            raise InputError(f"hazard label {IGNORE!r} is reserved for the type map")
    unknown = [h for h in config.run_hazards if h not in config.hazards]
    if unknown:
        raise InputError(
            f"--hazard {unknown[0]!r} is not in the configured vocabulary "
            f"{', '.join(config.hazards)}"
        )
    if config.documents is None:
        raise InputError("no documents file configured (set [corpus] documents or --documents)")
    if "\0" in str(config.out_dir):  # os calls raise ValueError for it, not OSError
        shown = path_repr(config.out_dir)
        raise InputError(f"cannot write output directory {shown}: embedded null byte")
    # A shipped entry may name a hazard left out of the vocabulary: its records are scoped out.
    targets = {h for t, h in config.type_map.items() if h != DEFAULT_TYPE_MAP.get(t)}
    bad = sorted(targets - {IGNORE, *config.hazards})
    if bad:
        raise InputError(
            f"type map target {bad[0]!r} is neither a configured hazard nor {IGNORE!r}"
        )
    # The other inputs are read at once by the ingest stage; the registries only at the end.
    for source, reg_path in config.registries.items():
        open_input(reg_path, f"{source} registry", "rb").close()


@dataclass
class RunArtifacts:
    """Everything a run produced: written files plus the in-memory results.

    Each stage fills in its fields; those of stages not run stay empty.
    """

    files: dict[str, Path] = field(default_factory=dict)
    series: dict[str, CountSeries] = field(default_factory=dict)
    stats: dict[str, CorpusStats] = field(default_factory=dict)
    events: dict[str, list[NewsEvent]] = field(default_factory=dict)
    measures: dict[str, list[MeasureSet]] = field(default_factory=dict)
    summaries: dict | None = None
    alignment: AlignmentReport | None = None
    registry_loads: dict[str, RegistryLoad] = field(default_factory=dict)
    report: dict | None = None


@contextmanager
def _stage(name: str):
    """Tag any pipeline error with the stage it happened in."""
    try:
        yield
    except AttnPeaksError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _sha256(path: Path, role: str) -> str:
    import hashlib  # not at module level: see ingest._sha256

    digest = hashlib.sha256()
    with open_input(path, role, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(obj) -> str:
    """``obj`` laid out as every small JSON artifact is: keys sorted, two-space indent."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n", encoding="utf-8")


def emit_timeseries(series: CountSeries, events: list[NewsEvent], path: Path | str) -> Path:
    """Write the plot-ready CSV ``date,count,is_event_day,is_peak``.

    One row per calendar day in the series range; flags are 0/1 and the
    count column sums to the series total.
    """
    path = Path(path)
    event_days = {day for event in events for day, _ in event.day_counts}
    peak_days = {event.peak_date for event in events}
    # One step fewer than there are days: a step past the last day overflows at 9999-12-31.
    steps = itertools.repeat(datetime.timedelta(days=1), len(series.counts) - 1)
    days = itertools.accumulate(steps, initial=series.start)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("date,count,is_event_day,is_peak\n")
        handle.writelines(
            f"{day.isoformat()},{count},"
            f"{1 if day in event_days else 0},{1 if day in peak_days else 0}\n"
            for day, count in zip(days, series.counts)
        )
    return path


def _write_events_jsonl(path: Path, events_by_hazard: dict[str, list[NewsEvent]]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(
            json.dumps(
                {
                    "hazard": hazard,
                    "peak_date": event.peak_date.isoformat(),
                    "start_date": event.start_date.isoformat(),
                    "end_date": event.end_date.isoformat(),
                    "days": [
                        {"date": day.isoformat(), "count": count}
                        for day, count in event.day_counts
                    ],
                },
                ensure_ascii=False,
                separators=(",", ":"),
            )
            + "\n"
            for hazard, events in events_by_hazard.items()
            for event in events
        )


def _write_measures_csv(path: Path, measures_by_hazard: dict[str, list[MeasureSet]]) -> None:
    row = attrgetter(*MEASURES_HEADER)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join(MEASURES_HEADER) + "\n")
        handle.writelines(
            ",".join("" if value is None else str(value) for value in row(m)) + "\n"
            for measures in measures_by_hazard.values()
            for m in measures
        )


def _summaries(measures_by_hazard: dict[str, list[MeasureSet]]) -> dict:
    out: dict = {}
    for hazard, measures in measures_by_hazard.items():
        per_measure: dict = {}
        for column in MEASURE_COLUMNS:
            values = [getattr(m, column) for m in measures]
            values = [v for v in values if v is not None]
            per_measure[column] = asdict(summarize(values)) if values else None
        out[hazard] = {"n_events": len(measures), "measures": per_measure}
    return out


# One item of alignment.json's long lists, laid out as json.dumps(indent=2)
# lays it out two levels deep, keys sorted.
_PAIR_ITEM = (
    '    {\n      "event_id": %s,\n      "hazard": %s,\n      "lag_days": %d,\n'
    '      "record_id": %s,\n      "source": %s\n    }'
)
_RECORD_ITEM = '    {\n      "record_id": %s,\n      "source": %s\n    }'


def _write_alignment(
    handle: TextIO, report: AlignmentReport, registry_loads: dict[str, RegistryLoad]
) -> None:
    """Write ``alignment.json`` to ``handle``, byte for byte as :func:`_write_json` would.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, so the three
    long lists are written item by item from fixed templates instead, each
    string escaped by ``encode_basestring``, the escaper ``json.dumps`` uses
    when ``ensure_ascii`` is off. :func:`_json_text` writes the small fields.
    """
    esc = encode_basestring
    write = handle.write

    def nested(value) -> str:
        # json escapes the newlines in strings, so each one here starts a line:
        # indent every line after the first one level deeper.
        return _json_text(value).replace("\n", "\n  ")

    def array(items: Iterator[str]) -> None:
        first = next(items, None)
        if first is None:
            write("[]")
            return
        write("[\n" + first)
        for item in items:
            write(",\n" + item)
        write("\n  ]")

    registries = {
        source: {
            "records": len(load.records),
            "ignored_by_type": load.n_ignored_by_type,
            "dropped_by_status": load.n_dropped_by_status,
        }
        for source, load in registry_loads.items()
    }
    # The keys in sorted order, as sort_keys writes them.
    write('{\n  "aligned_events_by_source": ' + nested(report.aligned_by_source))
    write(',\n  "pairs": ')
    array(
        _PAIR_ITEM % (esc(p.event_id), esc(p.hazard), p.lag_days, esc(p.record_id), esc(p.source))
        for p in report.pairs
    )
    write(',\n  "registries": ' + nested(registries))
    write(',\n  "unmatched_events": ')
    array("    " + esc(e) for e in report.unmatched_events)
    write(',\n  "unmatched_records": ')
    array(
        _RECORD_ITEM % (esc(record_id), esc(source))
        for source, record_id in report.unmatched_records
    )
    write(',\n  "window_days": ' + nested(report.window_days) + "\n}\n")


def _manifest(config: PipelineConfig, command: str) -> dict:
    from . import __version__

    files = [
        ("documents", "documents", config.documents),
        ("gazetteer", "gazetteer", config.gazetteer or default_gazetteer_path()),
    ]
    files += [(f"registry_{s}", f"{s} registry", p) for s, p in config.registries.items()]
    recorded = [(f"the {role} path {path_repr(p)}", str(p)) for _, role, p in files]
    recorded.append((f"the target {config.target!r}", config.target))
    for what, text in recorded:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            reason = "it is not valid UTF-8"
            raise InputError(f"cannot record {what} in manifest.json: {reason}") from None
    inputs = {key: {"path": str(p), "sha256": _sha256(p, role)} for key, role, p in files}
    return {
        "tool": "attn-peaks",
        "version": __version__,
        "command": command,
        "parameters": {
            "start": config.start.isoformat(),
            "end": config.end.isoformat(),
            "hazards": list(config.active_hazards),
            "doc_format": config.doc_format,
            "target": config.target,
            "min_height": config.min_height,
            "min_distance": config.min_distance,
            "window_days": config.window_days,
            "s2id_accept": list(config.s2id_accept),
            "type_map": dict(sorted(config.type_map.items())),
        },
        "inputs": inputs,
    }


def run_pipeline(config: PipelineConfig, command: str = "run") -> RunArtifacts:
    """Run the pipeline up to ``command`` and write that stage's artifacts.

    ``run`` executes every stage and writes all artifacts plus the run
    manifest. Any stage error aborts the run with a stage-tagged message;
    nothing is left behind in the output directory.

    One corpus is held from load through the measure stage, its last
    reader. It holds no article body, only each distinct text's verdict,
    and no document of a hazard the run leaves out; each hazard's
    documents are freed once measured. The registries and pairs
    of the align stage reuse that memory, so a run's high-water mark is
    that of its largest stage, not the sum of the stages. That is the load,
    or near it: ``corpus_stats`` counts distinct keys about a quarter of
    them at a time, ``measure_events`` holds the sets of one event, and
    ``align_events`` holds a few bytes a record beside the report it
    returns. Registries far larger than the corpus can still set the mark
    in the align stage.
    """
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    with _stage("config"):
        validate_config(config)
    hazards = config.active_hazards
    stages = list(COMMANDS)
    want = stages.index(command)
    run = RunArtifacts()

    with _stage("ingest"):
        gazetteer = load_gazetteer(config.gazetteer, target=config.target)
        # The load keeps each text's verdict, not its body, and only the run's hazards.
        corpus = load_documents(
            config.documents, config.doc_format, config.hazards, gazetteer, hazards
        )
        corpus = filter_single_country(corpus, gazetteer)
        for hazard in hazards:
            series = build_count_series(corpus, hazard, config.start, config.end)
            run.series[hazard] = series
            run.stats[hazard] = corpus_stats(corpus, series)

    if want >= stages.index("detect"):
        with _stage("detect"):
            params = PeakParams(min_height=config.min_height, min_distance=config.min_distance)
            for hazard in hazards:
                run.events[hazard] = detect_events(run.series[hazard], params)
    all_events = [e for events in run.events.values() for e in events]
    if want >= stages.index("measure"):
        with _stage("measure"):
            for hazard in hazards:
                run.measures[hazard] = measure_events(run.events[hazard], corpus)
                del corpus.columns[hazard]
            del corpus  # and with it the value tables
            run.summaries = _summaries(run.measures)
    if want >= stages.index("align"):
        with _stage("align"):
            records = []
            for source, reg_path in config.registries.items():
                accept = config.s2id_accept if source == "S2ID" else None
                load = align_mod.load_registry(reg_path, source, config.type_map, accept)
                run.registry_loads[source] = load
                # The records of a hazard this run leaves out are not unmatched.
                records += [record for record in load.records if record.hazard in hazards]
            run.alignment = align_mod.align_events(all_events, records, config.window_days)
    if want >= stages.index("report"):
        with _stage("report"):
            run.report = {
                "range": {"start": config.start.isoformat(), "end": config.end.isoformat()},
                "hazards": list(hazards),
                "corpus": {hazard: asdict(s) for hazard, s in run.stats.items()},
                "n_events": {hazard: len(events) for hazard, events in run.events.items()},
                "alignment": align_mod.alignment_summary(run.alignment, len(all_events)),
            }

    with _stage("write"):
        run.files = _write_artifacts(config, command, run)
    return run


def _write_artifacts(config: PipelineConfig, command: str, run: RunArtifacts) -> dict[str, Path]:
    """Write the files of ``command`` into a temporary directory, then move them all into place.

    The temporary directory is made inside the output directory, so only
    that directory must be writable and every move stays on one filesystem.
    An OSError from creating or filling the output directory, such as a
    path that is or runs through a regular file, is an InputError. So is a
    destination that is a directory; it is found before any file is moved.
    The output directory and the parents this call created are removed
    again if it fails.
    """
    out_dir = Path(config.out_dir)
    # Hashing the inputs reads them; an error there is not one of the output directory.
    manifest = _manifest(config, command) if command == "run" else None
    tmp = None
    created: list[Path] = []
    try:
        # Innermost first, as they are removed again.
        created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        with suppress(FileExistsError):
            out_dir.mkdir(parents=True)
        tmp = Path(tempfile.mkdtemp(prefix=".attn-peaks-", dir=out_dir))
        if command in ("ingest", "run"):
            _write_json(
                tmp / "corpus_stats.json", {hazard: asdict(s) for hazard, s in run.stats.items()}
            )
        if command in ("ingest", "detect", "run"):
            for hazard, series in run.series.items():
                path = tmp / f"timeseries_{hazard}.csv"
                emit_timeseries(series, run.events.get(hazard, []), path)
        if command in ("detect", "run"):
            _write_events_jsonl(tmp / "events.jsonl", run.events)
        if command in ("measure", "run"):
            _write_measures_csv(tmp / "measures.csv", run.measures)
            _write_json(tmp / "summaries.json", run.summaries)
        if command in ("align", "run"):
            with open(tmp / "alignment.json", "w", encoding="utf-8") as handle:
                _write_alignment(handle, run.alignment, run.registry_loads)
        if command in ("report", "run"):
            _write_json(tmp / "report.json", run.report)
        if manifest is not None:
            _write_json(tmp / "manifest.json", manifest)
        staged = sorted(tmp.iterdir())
        files = {path.name: out_dir / path.name for path in staged}
        # A file cannot replace a directory: refuse before anything is moved.
        for final in files.values():
            if final.is_dir() and not final.is_symlink():
                raise InputError(f"cannot write output file {path_repr(final)}: it is a directory")
        for path in staged:
            os.replace(path, files[path.name])
        created = []  # the run succeeded: keep the directories
        return files
    except OSError as exc:
        reason = exc.strerror or exc
        raise InputError(f"cannot write output directory {path_repr(out_dir)}: {reason}") from None
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        # rmdir never deletes content: a directory that a failed move filled stays.
        for directory in created:
            with suppress(OSError):
                directory.rmdir()
