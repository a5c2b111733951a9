"""Command line interface.

Every pipeline stage is a subcommand; ``run`` executes all of them. Flags
override the corresponding config-file keys. Exit codes: 0 success, 2
input or configuration error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

from .errors import ConsistencyError, InputError
from .ingest import parse_date
from .pipeline import COMMANDS, PipelineConfig, load_config, run_pipeline


def _date(value: str) -> datetime.date:
    try:
        return parse_date(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file")
    common.add_argument("--documents", type=Path, help="document CSV or JSON-lines file")
    common.add_argument(
        "--format", choices=("csv", "jsonl"), help="document file format (default csv)"
    )
    common.add_argument("--start", type=_date, help="first day of the series range")
    common.add_argument("--end", type=_date, help="last day of the series range")
    common.add_argument(
        "--hazard",
        action="append",
        metavar="NAME",
        help="process only this hazard (repeatable)",
    )
    common.add_argument("--gazetteer", type=Path, help="country list file")
    common.add_argument("--target", help="target country name (default Brasilien)")
    common.add_argument(
        "--min-height", type=int, help="inclusive peak height threshold (default 2)"
    )
    common.add_argument(
        "--min-distance", type=int, help="minimum days between peaks (default 7)"
    )
    common.add_argument(
        "--window-days", type=int, help="alignment window in days (default 5)"
    )
    common.add_argument("--emdat", type=Path, help="EM-DAT style registry CSV")
    common.add_argument("--s2id", type=Path, help="S2iD style registry CSV")
    common.add_argument("--out-dir", type=Path, help="output directory (default out)")

    parser = argparse.ArgumentParser(
        prog="attn-peaks",
        description="News-attention time series: event segmentation, measures, "
        "and disaster-registry alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    help_by_command = {
        "ingest": "load and filter documents, write count series and corpus stats",
        "detect": "detect peaks and segment news events",
        "measure": "compute event measures and distribution summaries",
        "align": "align events against disaster registries",
        "report": "write the aggregated run report",
        "run": "run every stage and write all artifacts plus the manifest",
    }
    for command in COMMANDS:
        sub.add_parser(command, parents=[common], help=help_by_command[command])
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.documents is not None:
        config.documents = args.documents
    if args.format is not None:
        config.doc_format = args.format
    if args.start is not None:
        config.start = args.start
    if args.end is not None:
        config.end = args.end
    if args.hazard:
        config.run_hazards = tuple(args.hazard)
    if args.gazetteer is not None:
        config.gazetteer = args.gazetteer
    if args.target is not None:
        config.target = args.target
    if args.min_height is not None:
        config.min_height = args.min_height
    if args.min_distance is not None:
        config.min_distance = args.min_distance
    if args.window_days is not None:
        config.window_days = args.window_days
    registries = dict(config.registries)
    if args.emdat is not None:
        registries["EMDAT"] = args.emdat
    if args.s2id is not None:
        registries["S2ID"] = args.s2id
    config.registries = tuple(sorted(registries.items()))
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _configure(args)
        run_pipeline(config, args.command)
    except InputError as exc:
        print(f"attn-peaks: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"attn-peaks: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
