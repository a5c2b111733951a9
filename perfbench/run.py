"""attn-peaks benchmark: the real CLI on seeded corpora, outputs checked.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Workloads are ``syndicated``, ``distinct-bodies`` and ``registry-align``
(see ``workloads.py`` for what each one stresses). Inputs are generated from
the seed, then the benchmark runs under a closed loop: one client, one
pipeline at a time, single process, no threads.

``--trace 0`` measures what a user sees. Each sample spawns
``python3 -m attn_peaks run --config ... --out-dir <fresh>`` with the
checkout's ``src`` on ``PYTHONPATH`` and times it from spawn to exit, until
the samples add up to ``--seconds`` (at least two). Peak RSS comes from the
child's own rusage, read by the small ``launch.py`` that spawns it.
``setup_s`` is the median, over fresh interpreters started between the CLI
runs, of import + ``load_config`` + ``validate_config`` + ``load_gazetteer``.

``--trace 1`` spawns ``traced.py``, which alternates untraced and traced
in-process ``run_pipeline`` calls and records one span per call of the
layers' public functions; the per-layer metrics are derived from those spans.

The first run's outputs go through ``checker.py``; every later run of the
seed must be byte-identical to them (one that is not is checked in full and
counts as failed). Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record (environment, samples, spans) is
written to ``.perfbench_results/``. The exit code is 1 when any run failed
(``error_rate`` > 0) and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checker import check_outputs, digest_dir
from workloads import WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GAZETTEER = SRC / "attn_peaks" / "data" / "countries_de.txt"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

SETUP_PROBES = 9
MIN_CLI_RUNS = 2
# A run must end within 180 s: children still running at the deadline are killed
# and count as failed, and no CLI run starts after the loop budget.
DEADLINE_S = 165.0
LOOP_BUDGET_S = 140.0

class BenchmarkError(Exception):
    """The benchmark cannot run at all (missing sources, broken set-up)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stderr_path: Path, timeout: float) -> dict:
    """Run ``argv`` through ``launch.py``: its exit code, wall seconds and peak RSS in MiB.

    A command still running after ``timeout`` seconds is killed and reported
    with exit code ``-SIGKILL``.
    """
    with stderr_path.open("wb") as stderr:
        # A session of its own, so a timeout kills the launcher and the command together.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *argv], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, stderr=stderr, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return {"exit_code": -signal.SIGKILL, "wall_s": timeout, "peak_rss_mib": 0.0}
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "wall_s": 0.0, "peak_rss_mib": 0.0}
    return json.loads(out)


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def measure_setup(workload: Workload, deadline: float) -> float:
    """Set-up seconds of one fresh interpreter (see ``setup_probe.py``)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workload.config)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=deadline - time.perf_counter(),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("set-up probe timed out") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Verdicts:
    """Per-run correctness: checker problems plus byte identity across runs."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.reference: dict[str, str] | None = None
        self.reference_problems: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, label: str, exit_code: int, out_dir: Path, stderr_tail: str = "") -> bool:
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}: {stderr_tail}"]
        elif not out_dir.is_dir():
            problems = ["no output directory"]
        else:
            digests = digest_dir(out_dir)
            if self.reference is None:
                self.reference = digests
                self.reference_problems = check_outputs(self.workload, out_dir)
                problems = self.reference_problems
            elif digests == self.reference:
                problems = self.reference_problems  # byte-identical to a checked run
            else:
                changed = sorted(
                    n for n in set(digests) | set(self.reference)
                    if digests.get(n) != self.reference.get(n)
                )
                problems = check_outputs(self.workload, out_dir)
                problems.append(f"outputs differ from the first run: {', '.join(changed)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failures.append(f"{label}: {problems[0]}")
        return not problems


def measure_cli(
    workload: Workload, run_dir: Path, seconds: float, verdicts: Verdicts, began: float
) -> dict:
    """Timed CLI runs until the next one would end past ``seconds`` (at least two).

    The ``SETUP_PROBES`` set-up probes are spread between the CLI runs, so that
    the set-up median spans the whole run rather than one moment of it.
    """
    deadline = began + DEADLINE_S
    walls, rss, spent, setup = [], [], [], []
    while time.perf_counter() - began + max(spent, default=0.0) < LOOP_BUDGET_S and (
        len(spent) < MIN_CLI_RUNS or sum(spent) + statistics.median(spent) <= seconds
    ):
        k = len(spent)
        out_dir = run_dir / f"out{k}"
        stderr_path = run_dir / f"stderr{k}.txt"
        argv = [
            sys.executable, "-m", "attn_peaks", "run",
            "--config", str(workload.config), "--out-dir", str(out_dir),
        ]
        child = spawn(argv, stderr_path, deadline - time.perf_counter())
        spent.append(child["wall_s"])
        if verdicts.judge(f"cli run {k}", child["exit_code"], out_dir, _stderr_tail(stderr_path)):
            walls.append(child["wall_s"])
            rss.append(child["peak_rss_mib"])
        while len(setup) < SETUP_PROBES * min(1.0, sum(spent) / seconds):
            setup.append(measure_setup(workload, deadline))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload, deadline))
    return {"wall_s": walls, "peak_rss_mib": rss, "setup_s": setup}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], span_names: list[str], count_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    ``span_names`` and ``count_names`` are what the traced run installed; a
    span that never ran (``align.load_registry`` without registries) sums to zero.
    """
    seconds = dict.fromkeys(span_names, 0.0)
    counts = dict.fromkeys(count_names, 0)
    calls = dict.fromkeys(span_names, 0)
    for span in spans:
        name = span["name"]
        seconds[name] += span["end"] - span["start"]
        calls[name] += 1
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] += value
    m = {f"{name}.s": value for name, value in seconds.items()}
    m.update(counts)
    m["ingest.load_documents.docs_per_s"] = _ratio(
        m["ingest.load_documents.docs"], m["ingest.load_documents.s"]
    )
    # The filter's input is every loaded document.
    m["ingest.filter_single_country.keep_ratio"] = _ratio(
        m["ingest.filter_single_country.kept"], m["ingest.load_documents.docs"]
    )
    m["peaks.peak_yield"] = _ratio(
        m["peaks.enforce_constraints.peaks"], m["peaks.local_maxima.candidates"]
    )
    m["measures.summarize.calls"] = calls["measures.summarize"]
    m["align.pair_yield"] = _ratio(
        m["align.align_events.pairs"], m["align.align_events.candidate_pairs"]
    )
    self_s = 0.0
    for i, span in enumerate(spans):
        if span["name"] == "pipeline.run_pipeline":
            children = [(s["start"], s["end"]) for s in spans if s["parent"] == i]
            self_s += span["end"] - span["start"] - _union_length(children)
    m["pipeline.self_s"] = self_s
    return m


def missing_spans(spans: list[dict], span_names: list[str], registries: bool) -> list[str]:
    """Hooked functions a traced run never called.

    Every hooked function runs on every workload, ``align.load_registry`` only
    when registries are configured.
    """
    optional = set() if registries else {"align.load_registry"}
    return sorted(set(span_names) - optional - {span["name"] for span in spans})


def measure_traced(
    workload: Workload, run_dir: Path, seconds: float, verdicts: Verdicts, deadline: float
) -> tuple[dict, dict]:
    spans_path = run_dir / "spans.json"
    stderr_path = run_dir / "traced_stderr.txt"
    argv = [
        sys.executable, str(HERE / "traced.py"), str(workload.config),
        str(run_dir / "traced"), str(seconds), str(spans_path),
    ]
    code = spawn(argv, stderr_path, deadline - time.perf_counter())["exit_code"]
    if code != 0:
        verdicts.judge("traced run", code, run_dir / "traced", _stderr_tail(stderr_path))
        return {}, {}
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    for k, out_dir in enumerate(record["out_dirs"]):
        verdicts.judge(f"traced-process run {k}", 0, Path(out_dir))
    for spans in record["runs"]:
        missing = missing_spans(spans, record["span_names"], bool(workload.registries))
        if missing:
            raise BenchmarkError(
                f"traced run never called {', '.join(missing)}; "
                "the pipeline no longer reaches it where traced.py hooks it"
            )
    per_run = [
        layer_metrics(spans, record["span_names"], record["count_names"])
        for spans in record["runs"]
    ]
    metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    metrics["trace.overhead_ratio"] = statistics.median(record["traced_s"]) / statistics.median(
        record["untraced_s"]
    )
    return metrics, record


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "attn_peaks").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    """HEAD of the checkout, when it is a git work tree; ``src_sha256`` identifies it otherwise."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(workload: Workload) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": workload.seed,
        "workload": workload.name,
        "sizes": workload.sizes,
    }


def _tail_percentile(values: list[float], what: str) -> str:
    """States the sample count, and the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"median of {n} {what}; too few for a higher percentile"
    p = 100 * (1 - 10 / n)
    return f"median of {n} {what}; p{p:.0f} = {float(np.percentile(values, p)):.6g}"


def load_spec() -> dict:
    """Metric names and units, and the default run length, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def _end_to_end(workload: Workload, samples: dict) -> tuple[dict, list[str]]:
    walls, setup = samples["wall_s"], samples["setup_s"]
    if not walls:
        return {}, []
    metrics = {
        "wall_s": statistics.median(walls),
        "docs_per_s": statistics.median(workload.n_docs / w for w in walls),
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
        "setup_s": statistics.median(setup),
    }
    lines = [
        f"  wall_s        {metrics['wall_s']:.4f} s     {_tail_percentile(walls, 'CLI runs')}",
        f"  docs_per_s    {metrics['docs_per_s']:.1f} 1/s  at {workload.n_docs} documents",
        f"  peak_rss_mib  {metrics['peak_rss_mib']:.1f} MiB   {_tail_percentile(samples['peak_rss_mib'], 'CLI runs')}",
        f"  setup_s       {metrics['setup_s']:.4f} s     {_tail_percentile(setup, 'fresh interpreters')}",
    ]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    if not (SRC / "attn_peaks" / "__init__.py").is_file() or not GAZETTEER.is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    began = time.perf_counter()
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = generate(name, run_dir / "inputs", seed, GAZETTEER)
        generated_s = time.perf_counter() - began
        verdicts = Verdicts(workload)
        record: dict = {"environment": environment(workload), "generate_s": generated_s}
        lines = [
            f"attn-peaks benchmark: workload={name} seed={seed} trace={int(trace)}",
            "  env " + " ".join(f"{k}={v}" for k, v in record["environment"].items()),
            f"  inputs generated in {generated_s:.2f} s; closed loop, 1 client, 1 process",
        ]
        if trace:
            units = spec["per_layer"]
            metrics, record["trace"] = measure_traced(
                workload, run_dir, seconds, verdicts, began + DEADLINE_S
            )
            lines += [f"  {k:42s} {v:.6g} {units[k]}" for k, v in metrics.items()]
        else:
            units = spec["end_to_end"]
            record["samples"] = samples = measure_cli(workload, run_dir, seconds, verdicts, began)
            metrics, more = _end_to_end(workload, samples)
            lines += more
        if metrics and set(metrics) != set(units):
            raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        failed = len(verdicts.failures)
        lines.append(
            f"  error_rate    {failed / verdicts.attempted:.4f}  "
            f"({failed} of {verdicts.attempted} runs failed)"
        )
        lines += [f"  FAILED {f}" for f in verdicts.failures]
        result = {
            "correct": failed == 0,
            "attempted": verdicts.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record.update(result=result, failures=verdicts.failures)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
        print("\n".join(lines), flush=True)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (ignored with 'all')")
    args = parser.parse_args(argv)
    if args.workload == "all":  # every workload, end to end and traced
        runs = [(n, trace) for n in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        results = {n: [] for n, _ in runs}
        for name, trace in runs:
            results[name].append(run_workload(name, args.seed, seconds, trace, spec))
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        result = results[args.workload][0]
    else:
        every = [r for rs in results.values() for r in rs]
        result = {
            "correct": all(r["correct"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "metrics": {
                f"{n}.{k}": v for n, rs in results.items() for r in rs for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
