"""Benchmark entry point: repeat one workload's job and report medians.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-miss --seed 1 \\
        --seconds 33 --trace 0

Each repetition runs ``job.py`` in a fresh interpreter on a fresh,
private, cold result store under ``.perfbench_work/`` with one process
and a scrubbed environment, and repetitions continue while the next one
fits in ``--seconds``.  Host times are reported as medians over the
repetitions, scaled to the reference host's speed by the calibration
bursts each repetition times between its runs (see
``REFERENCE_CALIB_S``); the unscaled medians are printed beside them.
With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` one untraced repetition is followed by
traced ones and the line carries the per-layer metrics.
Human-readable lines above it give every metric with its unit and
sample count.  See README.md beside this file for the metric list.

Exits non-zero without printing a result when the program is missing
or a repetition crashes, times out, or prints no report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-hit", "sweep-miss", "survival-sliced", "traced-miss")
DEFAULT_SEED = 1
#: Repetitions made even when they overrun --seconds.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Wall-clock cap on the whole benchmark, repetitions included.
DEADLINE_S = 170.0

#: Mean calibration-burst seconds (``job.calibration_burst``) on the
#: reference host, a 2-vCPU Xeon VM running CPython 3.11.  Host times
#: are scaled by this over the repetition's own mean burst, so they read
#: as seconds on the reference host at its usual speed.  That host's
#: speed swings by a third within a minute; over ten sweep-hit runs the
#: quartile spread of job_s medians was 32% raw and 3% scaled.
REFERENCE_CALIB_S = 0.0410


class BenchError(Exception):
    """A failure that must end the benchmark without a result."""


def child_env(workdir: Path) -> Dict[str, str]:
    """The environment of a repetition: no REPRO_* knob can change what
    is measured, and temporary files stay inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def run_job(workload: str, seed: int, workdir: Path, traced: bool,
            deadline: float, spans: Optional[Path]) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its report."""
    workdir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir)]
    if traced:
        command.append("--traced")
        if spans is not None:
            command += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command, env=child_env(workdir), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"{workload} repetition exited "
                         f"{done.returncode} without a report")
    report: Dict[str, Any] = json.loads(lines[-1])
    report["setup_s"] = report["setup_mono"] - spawned
    report["wall_s"] = time.monotonic() - spawned
    return report


def remove_work(work_root: Path) -> None:
    """Delete a private work area, and its parent once that is empty."""
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        work_root.parent.rmdir()
    except OSError:
        pass   # other benchmark processes still use it


def expected_digest(workload: str, seed: int) -> Optional[str]:
    """The recorded result digest, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads((HERE / "expected.json").read_text())
    return data["digests"].get(workload)


def metric_units(per_layer: bool = False) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if per_layer else "end_to_end"]}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # Turn SIGTERM into an exception so a running repetition is killed
    # and reaped by subprocess.run instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        def fits(last: Dict[str, Any]) -> bool:
            return time.monotonic() - start + last["wall_s"] <= args.seconds

        def one(traced_job: bool) -> Dict[str, Any]:
            return run_job(args.workload, args.seed,
                           work_root / f"rep{len(untraced) + len(traced)}",
                           traced_job, deadline, spans)

        def repeat(reports: List[Dict[str, Any]], minimum: int,
                   traced_job: bool) -> None:
            while len(reports) < minimum or fits(reports[-1]):
                reports.append(one(traced_job))

        if args.trace:
            untraced.append(one(False))
            repeat(traced, MIN_TRACED_REPS, True)
        else:
            repeat(untraced, MIN_REPS, False)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        remove_work(work_root)

    failed, problems = check_outputs(args.workload, args.seed, untraced,
                                     traced)
    attempted = sum(r["runs"] for r in untraced + traced)
    end_to_end = summarize(untraced)
    calib_s = median([r["calib_s"] for r in untraced + traced])

    print(f"perfbench {args.workload} seed={args.seed} "
          f"untraced_reps={len(untraced)} traced_reps={len(traced)} "
          f"runs/rep={untraced[0]['runs']} calib_s={calib_s:.6f}")
    for name, (value, raw, count, unit) in end_to_end.items():
        print(f"  {name:<18} {value:14.6f} {unit:<9}"
              f" median of {count}  (unscaled {raw:.6f})")
    print(f"  {'ops_failed_frac':<18} {failed / attempted:14.6f} "
          f"{'1':<9} {failed}/{attempted} runs failed")
    for problem in problems:
        print(f"  FAILED: {problem}")

    listed = metric_units(per_layer=bool(args.trace))
    if args.trace:
        # A traced repetition that raised has no layers; its runs are
        # already counted as failed.
        layers = [r["layers"] for r in traced if "layers" in r]
        metrics = {name: median([layer[name] for layer in layers])
                   for name in (layers[0] if layers else ())}
        traced_job_s = median([scaled(r, r["job_s"]) for r in traced])
        untraced_job_s = end_to_end["job_s"][0]
        metrics["tracing.overhead_s"] = traced_job_s - untraced_job_s
        metrics["tracing.overhead_frac"] = (metrics["tracing.overhead_s"]
                                            / untraced_job_s)
        metrics["host.calib_s"] = calib_s
        metrics["runner.run_s_p50"] = end_to_end["run_s_p50"][0]
        print(f"  per-layer metrics, median of {len(layers)} traced reps "
              f"(traced job_s {traced_job_s:.4f} s); spans in {spans}")
        for name, value in metrics.items():
            print(f"    {name:<40} {value:.6g}")
        print(f"  work counters: {json.dumps(traced[0].get('counters'))}")
    else:
        metrics = {name: stat[0] for name, stat in end_to_end.items()}
    if missing := set(listed) - set(metrics):
        if not problems:
            print(f"perfbench: metrics missing from the report: "
                  f"{sorted(missing)}", file=sys.stderr)
            return 1
        metrics.update(dict.fromkeys(missing, 0.0))
    result_metrics = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in listed.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def scaled(report: Dict[str, Any], seconds: float) -> float:
    """Host seconds of a repetition, at the reference host's speed."""
    return seconds * REFERENCE_CALIB_S / report["calib_s"]


def summarize(untraced: List[Dict[str, Any]]
              ) -> Dict[str, Tuple[float, float, int, str]]:
    """End-to-end metric -> (scaled median, unscaled median, samples,
    unit)."""
    def stat(pairs: List[Tuple[Dict[str, Any], float]], unit: str = "s",
             scale: bool = True) -> Tuple[float, float, int, str]:
        return (median([scaled(r, v) if scale else v for r, v in pairs]),
                median([v for _r, v in pairs]), len(pairs), unit)

    def rate(report: Dict[str, Any], job_s: float) -> float:
        return report["instructions"] / job_s / 1e6

    return {
        "setup_s": stat([(r, r["setup_s"]) for r in untraced]),
        "job_s": stat([(r, r["job_s"]) for r in untraced]),
        "cpu_s": stat([(r, r["cpu_s"]) for r in untraced]),
        "run_s_p50": stat([(r, lap) for r in untraced for lap in r["run_s"]]),
        "sim_minstr_per_s": (
            median([rate(r, scaled(r, r["job_s"])) for r in untraced]),
            median([rate(r, r["job_s"]) for r in untraced]), len(untraced),
            "Minstr/s"),
        "peak_rss_mb": stat([(r, r["peak_rss_mb"]) for r in untraced],
                            unit="MB", scale=False),
    }


def check_outputs(workload: str, seed: int, untraced: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """Failed runs and problems over every repetition's output check."""
    failed = 0
    problems: List[str] = []
    reports = untraced + traced
    want = expected_digest(workload, seed) or untraced[0]["digest"]
    for report in reports:
        if report["digest"] != want:
            problems.append(f"digest {report['digest']} != {want}"
                            + (" (traced)" if report["traced"] else ""))
            failed += report["runs"]
        else:
            failed += report["failed"]
        problems += [f"run {index}: {message}"
                     for index, message in report["violations"]]
    counters = [r.get("counters") for r in traced]
    if any(c != counters[0] for c in counters[1:]):
        problems.append("work counters differ between same-seed runs")
        failed += sum(r["runs"] for r in traced[1:])
    return min(failed, sum(r["runs"] for r in reports)), problems


if __name__ == "__main__":
    sys.exit(main())
