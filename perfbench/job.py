"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every job pays
its own imports and starts on a cold, private result store::

    PYTHONPATH=src python3 perfbench/job.py --workload sweep-miss \\
        --seed 1 --workdir .perfbench_work/x [--traced]

It prints one JSON object on its last stdout line: the job's timings,
its output digest and failure accounting and, with ``--traced``, the
per-layer numbers and exact work counters from :mod:`tracing`.
``setup_mono`` is ``time.monotonic()`` at the first simulation, so the
parent can measure set-up from before the interpreter started.
"""

from __future__ import annotations

import argparse
import heapq
import json
import logging
import resource
import statistics
import sys
import time
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads
from repro.experiments.runner import Runner
from repro.store import FileStore
from tracing import Tracer, install


#: Iterations of the calibration loop timed after every simulated run.
CALIB_ITERATIONS = 30_000


def calibration_burst() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    Like the simulator it mixes integer arithmetic with dict, tuple and
    heap traffic, so it slows down with the host the way the simulator
    does: in a probe on the reference host, while raw job times rose by
    half, this loop's time rose by 45% and a plain arithmetic loop's by
    only a third.
    """
    start = time.perf_counter()
    table: Dict[int, Tuple[int, int]] = {}
    heap: List[Tuple[int, int]] = []
    x = 12345
    for i in range(CALIB_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFFF
        entry = table.get(key)
        table[key] = (i, x) if entry is None else (entry[0] + 1, x)
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class _FailureLog(logging.Handler):
    """Counts the runner's fall-backs (unusable snapshot or cache entry
    -> re-simulate); each is a failed operation."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: List[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _drain_ns(workload: str, seed: int, records: int) -> int:
    """Host ns to draw ``records`` records from a fresh trace."""
    from repro.workloads.profiles import get_profile
    trace = get_profile(workload).trace(seed)
    fast_next = getattr(trace, "fast_next", None)
    source = iter(fast_next, None) if fast_next is not None else trace
    start = time.perf_counter_ns()
    deque(islice(source, records), maxlen=0)
    return time.perf_counter_ns() - start


def _layers(tracer: Any, results: List[Any], job_s: float,
            fallbacks: List[str]) -> Dict[str, float]:
    """Per-layer metrics of a traced job (see README.md for units)."""
    spans = tracer.span_totals()
    counts = tracer.counts
    out: Dict[str, float] = {}

    def per(total: float, calls: float, scale: float) -> float:
        return total * scale / calls if calls else 0.0

    def hot(name: str, flagged: Optional[str] = None) -> float:
        calls, ns, flag_count = tracer.hot_totals(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.ns_per_call"] = per(ns, calls, 1.0)
        if flagged is not None:
            out[f"{name}.{flagged}"] = flag_count
        return ns / 1e9

    def span(name: str) -> Dict[str, float]:
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    # repro.workloads: re-draw every consumed record from a fresh trace.
    by_trace = dict(tracer.warm_records)
    for key, calls in tracer.calls_by_key("llc.access").items():
        by_trace[key] = by_trace.get(key, 0) + calls
    records = sum(by_trace.values())
    drain_ns = sum(_drain_ns(name, seed, count)
                   for (name, seed), count in sorted(by_trace.items()))
    out["trace.records"] = records
    out["trace.ns_per_record"] = per(drain_ns, records, 1.0)

    # repro.cache
    warm = span("llc.warm_chunk")
    warm_records = counts["llc.warm_chunk.records"]
    out["llc.warm_chunk.calls"] = warm["calls"]
    out["llc.warm_chunk.s"] = warm["s"]
    out["llc.warm_chunk.ns_per_record"] = per(warm["s"], warm_records, 1e9)
    access_s = hot("llc.access", flagged="hits")
    hits = out.pop("llc.access.hits")
    out["llc.hits"] = hits
    out["llc.misses"] = out["llc.access.calls"] - hits
    out["llc.hit_ratio"] = per(hits, out["llc.access.calls"], 1.0)
    calls, ns, found = tracer.hot_totals("llc.pick_eager_candidate")
    out["llc.pick_eager_candidate.calls"] = calls
    out["llc.pick_eager_candidate.s"] = ns / 1e9
    out["llc.pick_eager_candidate.found_ratio"] = per(found, calls, 1.0)
    eager = sum(r.eager_writebacks for r in results)
    wasted = sum(r.wasted_eager for r in results)
    out["llc.eager_useful_ratio"] = 1.0 - wasted / eager if eager else 0.0

    # repro.memory
    submit_s = sum(hot(f"controller.submit_{kind}", flagged="refused")
                   for kind in ("read", "write", "eager"))
    out.pop("controller.submit_eager.refused")
    writes = sum(r.writes_issued_normal + r.writes_issued_slow
                 + r.eager_issued for r in results)
    out["controller.cancel_ratio"] = per(
        sum(r.cancellations for r in results), writes, 1.0)

    # repro.sim
    init = span("system.init")
    out["system.init.calls"] = init["calls"]
    out["system.init.s"] = init["s"]
    out["system.start_run.s"] = span("system.start_run")["s"]
    drain = span("system.continue_run")
    out["system.continue_run.calls"] = drain["calls"]
    out["system.continue_run.s"] = drain["s"]
    out["system.continue_run.self_s"] = drain["self_s"]
    out["events.scheduled"] = counts["events.scheduled"]
    out["events.host_ns_per_event"] = per(
        drain["s"], counts["events.scheduled"], 1e9)

    # repro.endurance
    wear_s = hot("wear.record_write")
    calls, ns, _ = tracer.hot_totals("wear.flush_pending")
    out["wear.flush_pending.calls"] = calls
    out["wear.flush_pending.s"] = ns / 1e9

    # repro.faults
    faults_s = hot("faults.record_damage") + hot("faults.verify_write")
    out["faults.write_retries"] = sum(r.fault_write_retries for r in results)
    out["faults.lines_retired"] = sum(r.lines_retired for r in results)

    # repro.checkpoint
    save, restore = span("checkpoint.save"), span("checkpoint.restore")
    out["checkpoint.save.calls"] = save["calls"]
    out["checkpoint.save.ms_per_call"] = per(save["s"], save["calls"], 1e3)
    out["checkpoint.save.bytes"] = counts["checkpoint.save.bytes"]
    out["checkpoint.restore.calls"] = restore["calls"]
    out["checkpoint.restore.ms_per_call"] = per(
        restore["s"], restore["calls"], 1e3)
    out["checkpoint.fallbacks"] = sum(
        1 for message in fallbacks if message.startswith("snapshot "))

    # repro.store
    put, get = span("store.put"), span("store.get")
    out["store.put.calls"] = put["calls"]
    out["store.put.us_per_call"] = per(put["s"], put["calls"], 1e6)
    out["store.put.bytes"] = counts["store.put.bytes"]
    out["store.get.calls"] = get["calls"]
    out["store.get.us_per_call"] = per(get["s"], get["calls"], 1e6)
    out["store.get.hit_ratio"] = per(counts["store.get.hits"],
                                     get["calls"], 1.0)

    # repro.telemetry
    calls, epoch_ns, _ = tracer.hot_totals("telemetry.sample_epoch")
    out["telemetry.sample_epoch.calls"] = calls
    out["telemetry.sample_epoch.us_per_call"] = per(epoch_ns, calls, 1e-3)
    bundle = span("telemetry.write")
    out["telemetry.write.calls"] = bundle["calls"]
    out["telemetry.write.ms_per_call"] = per(
        bundle["s"], bundle["calls"], 1e3)
    out["telemetry.write.bytes"] = counts["telemetry.write.bytes"]

    # repro.experiments
    out["runner.self_s"] = span("job")["self_s"]

    # Shares of the traced job's wall time, per layer.
    shares = {
        "llc.warm_chunk": warm["s"],
        "llc.access": access_s,
        "controller": submit_s,
        "wear": wear_s,
        "faults": faults_s,
        "checkpoint": save["s"] + restore["s"],
        "store": put["s"] + get["s"],
        "telemetry": epoch_ns / 1e9 + bundle["s"],
    }
    for name, seconds in shares.items():
        out[f"{name}.share"] = seconds / job_s
    return out


#: Work counters that must repeat exactly for a given seed.
COUNTERS = ("trace.records", "llc.warm_chunk.calls", "llc.hits",
            "llc.misses", "controller.submit_read.calls",
            "controller.submit_read.refused", "controller.submit_write.calls",
            "controller.submit_write.refused",
            "controller.submit_eager.calls", "events.scheduled",
            "checkpoint.save.calls", "checkpoint.save.bytes",
            "store.put.calls", "store.put.bytes", "store.get.calls",
            "telemetry.write.bytes")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path,
                        help="where a traced job writes its spans")
    args = parser.parse_args(argv)

    configs = workloads.build(args.workload, args.seed)
    store = FileStore(args.workdir / "store")
    runner = Runner(store=store)
    failures = _FailureLog()
    logging.getLogger("repro.experiments.runner").addHandler(failures)
    tracer: Optional[Tracer] = None
    execute = workloads.execute
    if args.traced:
        tracer = Tracer()
        install(tracer, store)
        execute = tracer.span("job", execute)

    laps: List[float] = []
    bursts: List[float] = []
    paused_s = paused_cpu_s = 0.0
    setup_mono = time.monotonic()
    start = last = time.perf_counter()
    cpu_start = time.process_time()

    def lap() -> None:
        # Close this run's lap, then sample the host's speed with a
        # calibration burst that is kept off every job clock.
        nonlocal last, paused_s, paused_cpu_s
        now = time.perf_counter()
        laps.append(now - last)
        cpu = time.process_time()
        bursts.append(calibration_burst())
        last = time.perf_counter()
        paused_s += last - now
        paused_cpu_s += time.process_time() - cpu
        if tracer is not None:
            tracer.exclude(int((last - now) * 1e9))

    error = None
    results: List[Any] = []
    try:
        results = execute(args.workload, runner, configs, args.workdir, lap)
    except Exception as exc:   # any failure is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - start - paused_s
    cpu_s = time.process_time() - cpu_start - paused_cpu_s
    if not bursts:   # the job raised before its first run ended
        bursts.append(calibration_burst())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    violations: List[Any] = []
    digest = None
    if error is not None:
        violations.append([-1, error])
    else:
        records = workloads.canonical_records(args.workload, configs,
                                              results)
        digest = workloads.digest(records)
        violations += workloads.check(args.workload, runner, configs,
                                      results, records)
    violations += [[-1, message] for message in failures.messages]
    # A failed run is one with a violation of its own; each job-level
    # violation (a fall-back, a bad merge) costs one more; a job that
    # raised completed none of its runs.
    failed = len(configs)
    if error is None:
        failed = min(failed, len({i for i, _ in violations if i >= 0})
                     + sum(1 for i, _ in violations if i < 0))

    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "runs": len(configs),
        "failed": failed,
        "violations": violations,
        "digest": digest,
        "setup_mono": setup_mono,
        "job_s": job_s,
        "cpu_s": cpu_s,
        "run_s": laps,
        "calib_s": statistics.mean(bursts),
        "instructions": sum(r.instructions for r in results),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None and error is None:
        layers = _layers(tracer, results, job_s, failures.messages)
        report["layers"] = layers
        report["counters"] = {name: layers[name] for name in COUNTERS}
        if args.spans is not None:
            tracer.write_spans(str(args.spans))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
