"""Observe-only layer tracing, installed from outside the simulator.

The traced run wraps calls into each layer's public functions and
records them two ways:

* **Spans** (name, start, end, parent, run id) around coarse calls -
  a job, a simulation, ``System.__init__``/``start_run``/
  ``continue_run``, ``LastLevelCache.warm_chunk``, snapshot save and
  restore, store get/put, telemetry bundle writes.  Spans live in a
  list in memory and are written out once, at the end of the job.
* **Hot counters** (calls, host ns, flagged outcomes) around per-access
  calls - ``llc.access``, ``controller.submit_*``, wear and fault
  accounting - where one span per call would cost more memory than the
  job itself.  Their time is charged to the innermost open span, so a
  span's self time is its duration minus its child spans and the hot
  calls made while it was innermost.

Nothing here changes what the simulator computes: every wrapper calls
the original function with the original arguments and returns its
result untouched.  The benchmark checks this by comparing the traced
run's result digest with the untraced run's.

The fast path rebinds some methods per instance (``llc.access`` and
``controller.submit_*``), so class-level wrappers would miss them; the
per-access wrappers are installed on each instance right after
``System.__init__`` returns, which also covers the systems that
``repro.checkpoint.restore_system`` builds.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# A span is a mutable list so the wrapper can close it in place:
# [name, start_ns, end_ns, parent_index, run_id, child_ns].
Span = List[Any]

_NAME, _START, _END, _PARENT, _RUN, _CHILD = range(6)


class Tracer:
    """In-memory span and counter recorder for one traced job."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        # name -> one [calls, ns, flagged, key] list per wrapped
        # instance, so counts can be attributed to the instance's key.
        self.hot: Dict[str, List[List[Any]]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        # (workload, seed) -> records consumed by functional warmup.
        self.warm_records: Dict[Tuple[str, int], int] = defaultdict(int)
        self._depth = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any],
             run_id: Optional[Callable[..., str]] = None,
             on_return: Optional[Callable[..., None]] = None,
             ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``run_id(*args)`` names the simulation the span belongs to; when
        omitted the span inherits its parent's run id.
        ``on_return(result, *args)`` runs after the span closes.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            if run_id is not None:
                rid = run_id(*args)
            else:
                rid = spans[parent][_RUN] if parent >= 0 else ""
            record: Span = [name, 0, 0, parent, rid, 0]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[_END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - record[_START]
            if on_return is not None:
                on_return(result, *args)
            return result

        return traced

    def hot_call(self, name: str, fn: Callable[..., Any],
                 flag: Optional[Callable[[Any], bool]] = None,
                 key: Any = None) -> Callable[..., Any]:
        """Wrap a per-access ``fn``: count calls, host ns and, when
        ``flag(result)`` holds, flagged outcomes (hits, refusals...).
        ``key`` tags this instance's counters (see :attr:`hot`)."""
        stat: List[Any] = [0, 0, 0, key]
        self.hot[name].append(stat)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._depth -= 1
            stat[0] += 1
            stat[1] += elapsed
            if flag is not None and flag(result):
                stat[2] += 1
            # Only the outermost hot call is charged to the open span:
            # a nested one (flush_pending inside record_write) is
            # already inside its caller's interval.
            if not tracer._depth and stack:
                spans[stack[-1]][_CHILD] += elapsed
            return result

        return traced

    def exclude(self, ns: int) -> None:
        """Keep ``ns`` of benchmark bookkeeping out of the innermost open
        span's self time."""
        if self._stack:
            self.spans[self._stack[-1]][_CHILD] += ns

    # -- summaries -----------------------------------------------------

    def hot_totals(self, name: str) -> Tuple[int, int, int]:
        """(calls, ns, flagged) summed over every wrapped instance."""
        calls = ns = flagged = 0
        for stat in self.hot.get(name, ()):
            calls += stat[0]
            ns += stat[1]
            flagged += stat[2]
        return calls, ns, flagged

    def calls_by_key(self, name: str) -> Dict[Any, int]:
        """Calls of ``name`` summed per instance key."""
        calls: Dict[Any, int] = defaultdict(int)
        for stat in self.hot.get(name, ()):
            calls[stat[3]] += stat[0]
        return calls

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for name, start, end, _parent, _run, child in self.spans:
            entry = totals.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child) / 1e9
        return totals

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (atomic replace)."""
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as out:
            for name, start, end, parent, run, child in self.spans:
                out.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run,
                    "self_ns": end - start - child,
                }) + "\n")
        os.replace(tmp, path)


def install(tracer: Tracer, store: Any) -> None:
    """Wrap the layers' public entry points for one traced job.

    The wrappers stay in place for the life of the process, which runs
    exactly one job.
    """
    import repro.checkpoint as checkpoint
    import repro.experiments.runner as runner
    from repro.sim.system import System

    def config_run_id(config: Any, *_rest: Any) -> str:
        return str(config.cache_digest())

    def system_run_id(system: Any, *_rest: Any) -> str:
        return str(system.config.cache_digest())

    def init_run_id(_system: Any, config: Any) -> str:
        return str(config.cache_digest())

    # repro.experiments: one span per simulation entry point.  Runner
    # resolves both names as module globals at call time.
    runner.run_simulation = tracer.span(
        "runner.run", runner.run_simulation, run_id=config_run_id)
    runner._advance_slice = tracer.span(
        "runner.advance_slice", runner._advance_slice, run_id=config_run_id)

    # repro.sim: System construction and the two run phases.  The
    # per-access layers are wrapped per instance once __init__ returns.
    original_init = System.__init__

    def init_and_instrument(system: Any, config: Any) -> None:
        original_init(system, config)
        _instrument_system(tracer, system)

    def count_events(result: Any, system: Any, *_rest: Any) -> None:
        if result is not None:
            # The queue's sequence counter survives snapshot/restore, so
            # the final system of a run holds the whole run's count.
            tracer.counts["events.scheduled"] += system.events._seq

    System.__init__ = tracer.span(  # type: ignore[method-assign]
        "system.init", init_and_instrument, run_id=init_run_id)
    System.start_run = tracer.span(  # type: ignore[method-assign]
        "system.start_run", System.start_run, run_id=system_run_id)
    System.continue_run = tracer.span(  # type: ignore[method-assign]
        "system.continue_run", System.continue_run, run_id=system_run_id,
        on_return=count_events)

    # repro.checkpoint: Runner._advance_slice imports these from the
    # package at call time, so package-level wrappers catch them.
    def count_snapshot(path: Any, *_rest: Any) -> None:
        tracer.counts["checkpoint.save.bytes"] += os.path.getsize(path)

    checkpoint.save_snapshot = tracer.span(
        "checkpoint.save", checkpoint.save_snapshot, on_return=count_snapshot)
    checkpoint.restore_system = tracer.span(
        "checkpoint.restore", checkpoint.restore_system)

    # repro.store: the job's private store instance.
    def count_put(_result: Any, _digest: str, data: bytes) -> None:
        tracer.counts["store.put.bytes"] += len(data)

    def count_get(result: Any, *_rest: Any) -> None:
        if result is not None:
            tracer.counts["store.get.hits"] += 1

    store.put = tracer.span("store.put", store.put, on_return=count_put)
    store.get = tracer.span("store.get", store.get, on_return=count_get)


def _is_false(result: Any) -> bool:
    return result is False


def _is_hit(result: Any) -> bool:
    return bool(result.hit)


def _is_found(result: Any) -> bool:
    return result is not None


def _instrument_system(tracer: Tracer, system: Any) -> None:
    """Per-instance wrappers on a freshly constructed System."""
    trace_key = (system.config.workload, system.config.seed)
    hot = tracer.hot_call

    # repro.cache: records are attributed to the (workload, seed) trace
    # they came from, so the trace layer can be timed on the same count.
    llc = system.llc

    def count_warm(result: Tuple[int, bool], *_rest: Any) -> None:
        tracer.counts["llc.warm_chunk.records"] += result[0]
        tracer.warm_records[trace_key] += result[0]

    llc.warm_chunk = tracer.span("llc.warm_chunk", llc.warm_chunk,
                                 on_return=count_warm)
    llc.access = hot("llc.access", llc.access, flag=_is_hit, key=trace_key)
    llc.pick_eager_candidate = hot("llc.pick_eager_candidate",
                                   llc.pick_eager_candidate, flag=_is_found)

    # repro.memory: the core caches the write path as its writeback
    # sink at construction, so re-point it at the wrapper too.
    controller = system.controller
    original_write = controller.submit_write
    controller.submit_read = hot("controller.submit_read",
                                 controller.submit_read, flag=_is_false)
    controller.submit_write = hot("controller.submit_write",
                                  original_write, flag=_is_false)
    controller.submit_eager = hot("controller.submit_eager",
                                  controller.submit_eager, flag=_is_false)
    if system.core.writeback_sink == original_write:
        system.core.writeback_sink = controller.submit_write

    # repro.endurance: the fast spine calls record_write_fast, the
    # reference spine (fault runs) record_write; both are one write.
    wear = system.wear
    wear.record_write = hot("wear.record_write", wear.record_write)
    wear.record_write_fast = hot("wear.record_write", wear.record_write_fast)
    wear.flush_pending = hot("wear.flush_pending", wear.flush_pending)

    # repro.faults
    injector = system.faults
    if injector is not None:
        injector.record_damage = hot("faults.record_damage",
                                     injector.record_damage)
        injector.verify_write = hot("faults.verify_write",
                                    injector.verify_write)

    # repro.telemetry: the shared disabled singleton is never wrapped.
    telemetry = system.telemetry
    if telemetry.enabled:
        def count_bundle(paths: Any, *_rest: Any) -> None:
            tracer.counts["telemetry.write.bytes"] += sum(
                os.path.getsize(path) for path in paths)

        telemetry.sample_epoch = hot("telemetry.sample_epoch",
                                     telemetry.sample_epoch)
        telemetry.write = tracer.span("telemetry.write", telemetry.write,
                                      on_return=count_bundle)
