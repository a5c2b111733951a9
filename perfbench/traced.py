"""Traced pipeline runs: one span per call of the public functions of each layer.

Run in a fresh interpreter with the program's sources on ``PYTHONPATH``::

    python3 perfbench/traced.py CONFIG OUT_BASE SECONDS SPANS_JSON

After one untimed warm-up run it alternates untraced and traced
``run_pipeline(config, "run")`` calls, each into a fresh output directory
under ``OUT_BASE``, until ``SECONDS`` have passed (at least one pair). Spans
(name, start, end, parent, counts) are kept in memory and written to
``SPANS_JSON`` at the end, with the wall time of every call, the output
directory of every run, and the span and count names that :data:`HOOKS`
installs.

The wrappers replace each function where the pipeline looks it up, e.g.
``attn_peaks.pipeline.load_documents`` (imported by name into the pipeline)
and ``attn_peaks.peaks.local_maxima`` (called by ``detect_events`` through
its module globals). A hook whose attribute no longer exists, or a counter
that cannot count, stops the run with an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import attn_peaks.align
import attn_peaks.peaks
import attn_peaks.pipeline

pipeline = attn_peaks.pipeline


def _candidate_pairs(args, result) -> int:
    """Comparisons an all-pairs scan makes: sum over hazards of events x records."""
    events, records = args[0], args[1]
    per_hazard: dict[str, int] = {}
    for record in records:
        per_hazard[record.hazard] = per_hazard.get(record.hazard, 0) + 1
    return sum(per_hazard.get(event.hazard, 0) for event in events)


# (module, attribute, span name, {count name: f(args, result)})
HOOKS = [
    (pipeline, "run_pipeline", "pipeline.run_pipeline", {}),
    (pipeline, "emit_timeseries", "pipeline.emit_timeseries", {}),
    (pipeline, "load_gazetteer", "ingest.load_gazetteer", {}),
    (pipeline, "load_documents", "ingest.load_documents", {"docs": lambda a, r: len(r)}),
    (pipeline, "filter_single_country", "ingest.filter_single_country", {"kept": lambda a, r: len(r)}),
    (pipeline, "build_count_series", "ingest.build_count_series", {}),
    (pipeline, "corpus_stats", "ingest.corpus_stats", {}),
    (pipeline, "detect_events", "peaks.detect_events", {}),
    (attn_peaks.peaks, "local_maxima", "peaks.local_maxima", {"candidates": lambda a, r: len(r)}),
    (attn_peaks.peaks, "enforce_constraints", "peaks.enforce_constraints", {"peaks": lambda a, r: len(r)}),
    (attn_peaks.peaks, "segment_events", "peaks.segment_events", {"events": lambda a, r: len(r)}),
    (pipeline, "measure_events", "measures.measure_events", {"events": lambda a, r: len(r)}),
    (pipeline, "summarize", "measures.summarize", {}),
    (attn_peaks.align, "load_registry", "align.load_registry", {"records": lambda a, r: len(r.records)}),
    (
        attn_peaks.align,
        "align_events",
        "align.align_events",
        {"pairs": lambda a, r: len(r.pairs), "candidate_pairs": _candidate_pairs},
    ),
]


class Tracer:
    """Spans of one traced run, in call order; ``parent`` is a span index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = {key: count(args, result) for key, count in counters.items()}
            return result

        return traced

    def install(self) -> None:
        for module, attribute, name, counters in HOOKS:
            fn = getattr(module, attribute)
            self._originals.append((module, attribute, fn))
            setattr(module, attribute, self._wrap(name, fn, counters))

    def uninstall(self) -> None:
        for module, attribute, fn in reversed(self._originals):
            setattr(module, attribute, fn)
        self._originals.clear()


def main(argv: list[str]) -> int:
    config_path, out_base, seconds, spans_path = argv
    config = pipeline.load_config(config_path)
    out_base = Path(out_base)
    record: dict = {
        "span_names": [name for _, _, name, _ in HOOKS],
        "count_names": [f"{name}.{key}" for _, _, name, counters in HOOKS for key in counters],
        "untraced_s": [],
        "traced_s": [],
        "runs": [],
        "out_dirs": [],
    }
    began = time.perf_counter()
    # One untimed run first, so neither side pays for first-call work in the process.
    config.out_dir = out_base / "warmup"
    pipeline.run_pipeline(config, "run")
    record["out_dirs"].append(str(config.out_dir))
    pair, pair_s = 0, 0.0
    # Stop before a pair that would end past SECONDS (at least one pair).
    while pair == 0 or time.perf_counter() - began + pair_s <= float(seconds):
        pair_started = time.perf_counter()
        # Alternate which side goes first, so neither always runs on a warmer process.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            config.out_dir = out_base / f"run{len(record['out_dirs'])}"
            tracer = Tracer()
            if traced:
                tracer.install()
            started = time.perf_counter()
            try:
                pipeline.run_pipeline(config, "run")
            finally:
                elapsed = time.perf_counter() - started
                tracer.uninstall()
            record["out_dirs"].append(str(config.out_dir))
            if traced:
                record["traced_s"].append(elapsed)
                record["runs"].append(tracer.spans)
            else:
                record["untraced_s"].append(elapsed)
        pair += 1
        pair_s = time.perf_counter() - pair_started
    Path(spans_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
