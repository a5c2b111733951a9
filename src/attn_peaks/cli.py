"""Command line interface.

Every pipeline stage is a subcommand; ``run`` executes all of them. Flags
override the corresponding config-file keys; both come from
:data:`attn_peaks.pipeline.SETTINGS`, and both are parsed by
:func:`attn_peaks.pipeline.apply_setting`. Exit codes: 0 success, 2
input or configuration error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConsistencyError, InputError
from .pipeline import (
    COMMANDS,
    SETTINGS,
    PipelineConfig,
    apply_setting,
    load_config,
    run_pipeline,
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file")
    defaults = PipelineConfig()
    for setting in SETTINGS:
        if setting.flag is None:
            continue
        default = getattr(defaults, setting.field)
        common.add_argument(
            setting.flag,
            help=setting.help if default in (None, {}) else f"{setting.help} (default {default})",
        )
    common.add_argument(
        "--hazard",
        action="append",
        metavar="NAME",
        help="process only this hazard (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="attn-peaks",
        description="News-attention time series: event segmentation, measures, "
        "and disaster-registry alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, help in COMMANDS.items():
        sub.add_parser(command, parents=[common], help=help)
    return parser


def _configure(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    for setting in SETTINGS:
        if setting.flag is None:
            continue
        raw = getattr(args, setting.flag[2:].replace("-", "_"))  # argparse's dest
        # An empty value is not set, as an empty config key is: the key or the default applies.
        if raw is not None and raw.strip():
            apply_setting(config, setting, raw, setting.flag)
    if args.hazard:
        config.run_hazards = tuple(args.hazard)
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
