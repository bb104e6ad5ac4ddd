"""Full simulator state <-> JSON-compatible dict, bit-identical on resume.

The codec walks a paused :class:`repro.sim.system.System` and produces a
plain dict (strings, numbers, bools, lists, dicts, ``None``) capturing
*everything* the rest of the run depends on: the event queue with its
reserved sequence numbers and deferred-event seam, controller/bank/queue
state down to object identity between queue entries and in-flight
operations, LLC contents and LRU order, wear accounting (flushed before
capture), fault-injector per-line endurance state, every RNG stream, the
telemetry epoch alignment, and the core's architectural state.

Two representation rules keep restores bit-identical:

* **Identity tables.**  :class:`~repro.memory.queues.Request` and
  :class:`~repro.memory.bank.InFlight` objects appear in several places
  at once (queue FIFOs, bank in-flight slots, mirror arrays, *and*
  inside stale completion-event closures, where ``bank.in_flight is not
  op`` identity checks are load-bearing).  Each object is serialized
  once under a table index and every appearance stores the index, so
  the restored object graph has the same aliasing as the original.
* **Descriptors, not pickles.**  Event callbacks are bound methods and
  small lambdas over live simulator objects.  They are encoded as
  symbolic descriptors (``["ctrl.read", bank, op]``) and rebuilt
  against the restored system with the same closure shape, so a
  restored system can itself be captured again byte-identically
  (double round-trip idempotence).

Dicts with insertion-order-dependent semantics (per-factor wear tallies,
lazily touched fault lines, the DRAM buffer's LRU order) are serialized
as pair lists so JSON round-trips preserve their order exactly.
"""

from __future__ import annotations

import itertools
import json
import random
import zlib
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.cache.lru import CacheLine, LRUCache
from repro.cpu.trace import TraceRecord
from repro.memory.bank import InFlight
from repro.memory.queues import Request, RequestQueue
from repro.workloads.patterns import (Pattern, PhasedPattern,
                                      ReadModifyWrite, SequentialStream)

from .errors import CheckpointError, CheckpointUnsupportedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.system import System

#: Version of the *state* layout below (the file envelope has its own).
STATE_SCHEMA_VERSION = 1

_CTRL_STATS_FIELDS: Tuple[str, ...] = (
    "reads_from_llc", "writes_from_llc", "eager_from_llc", "reads_issued",
    "read_row_hits", "read_row_misses", "writes_issued_normal",
    "writes_issued_slow", "eager_issued", "writes_completed",
    "reads_completed", "cancellations", "pauses", "drain_events",
    "drain_time_ns", "read_latency_sum_ns",
)
_LLC_STATS_FIELDS: Tuple[str, ...] = (
    "accesses", "hits", "misses", "writebacks", "eager_writebacks",
    "wasted_eager",
)
_FAULT_STATS_FIELDS: Tuple[str, ...] = (
    "cells_failed", "write_retries", "corrected_writes", "lines_retired",
    "uncorrectable", "first_failure_ns", "uncorrectable_ns",
)
_DRAM_STATS_FIELDS: Tuple[str, ...] = (
    "writebacks_in", "coalesced", "drains_out",
)
_CORE_FIELDS: Tuple[str, ...] = (
    "instructions_retired", "accesses_processed", "outstanding_reads",
    "stall_time_ns", "_next_read_id", "_wait_read_id", "_waiting_mlp",
    "_waiting_write_space", "_waiting_read_space", "_wait_since",
    "_pending_writeback", "_finished",
)


def _fields_to_dict(obj: Any, fields: Sequence[str]) -> Dict[str, Any]:
    return {name: getattr(obj, name) for name in fields}


def _fields_from_dict(obj: Any, fields: Sequence[str],
                      data: Dict[str, Any]) -> None:
    for name in fields:
        setattr(obj, name, data[name])


def _rng_to_json(rng: random.Random) -> List[Any]:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_from_json(rng: random.Random, data: Sequence[Any]) -> None:
    rng.setstate((data[0], tuple(data[1]), data[2]))


def _trace_record_row(record: Optional[TraceRecord]) -> Optional[List[Any]]:
    if record is None:
        return None
    return [record.gap_insts, record.block,
            bool(record.is_write), bool(record.dependent)]


def _trace_record_from_row(row: Optional[Sequence[Any]]
                           ) -> Optional[TraceRecord]:
    if row is None:
        return None
    return TraceRecord(row[0], row[1], bool(row[2]), bool(row[3]))


def _pattern_state(pattern: Pattern) -> Dict[str, Any]:
    """The mutable draw-state of one access pattern (recursive)."""
    if isinstance(pattern, SequentialStream):
        return {"cursor": pattern._cursor}
    if isinstance(pattern, ReadModifyWrite):
        return {"pending_write": pattern._pending_write}
    if isinstance(pattern, PhasedPattern):
        return {
            "served": pattern._served,
            "in_second": pattern._in_second,
            "first": _pattern_state(pattern.first),
            "second": _pattern_state(pattern.second),
        }
    return {}


def _restore_pattern(pattern: Pattern, state: Dict[str, Any]) -> None:
    if isinstance(pattern, SequentialStream):
        pattern._cursor = state["cursor"]
    elif isinstance(pattern, ReadModifyWrite):
        pattern._pending_write = state["pending_write"]
    elif isinstance(pattern, PhasedPattern):
        pattern._served = state["served"]
        pattern._in_second = state["in_second"]
        _restore_pattern(pattern.first, state["first"])
        _restore_pattern(pattern.second, state["second"])


def _closure_cells(fn: Callable[..., Any]) -> Dict[str, Any]:
    code = fn.__code__
    closure = fn.__closure__ or ()
    return dict(zip(code.co_freevars,
                    (cell.cell_contents for cell in closure)))


# Factory helpers rebuild event lambdas with the *same closure shape*
# as the originals in repro.memory.controller, so a restored system
# re-captures to an identical snapshot (the encoder below reads the
# closure cells back out by name).

def _make_complete_read(ctrl: Any, bank: Any, op: InFlight
                        ) -> Callable[[], None]:
    return lambda: ctrl._complete_read(bank, op)


def _make_complete_write(ctrl: Any, bank: Any, op: InFlight
                         ) -> Callable[[], None]:
    return lambda: ctrl._complete_write(bank, op)


def _make_complete_read_fast(ctrl: Any, bank_index: int, op: InFlight
                             ) -> Callable[[], None]:
    return lambda: ctrl._complete_read_fast(bank_index, op)


def _make_complete_write_fast(ctrl: Any, bank_index: int, op: InFlight
                              ) -> Callable[[], None]:
    return lambda: ctrl._complete_write_fast(bank_index, op)


def _make_poke(ctrl: Any, bank_index: int) -> Callable[..., None]:
    return lambda b=bank_index: ctrl._try_issue_bank(b)


class _Capture:
    """One capture pass: identity tables plus callback encoding."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self._request_index: Dict[int, int] = {}
        self.request_rows: List[List[Any]] = []
        self._inflight_index: Dict[int, int] = {}
        self.inflight_rows: List[List[Any]] = []

    def request_ref(self, request: Request) -> int:
        key = id(request)
        serial = self._request_index.get(key)
        if serial is None:
            serial = len(self.request_rows)
            self._request_index[key] = serial
            self.request_rows.append([
                request.kind, request.block, request.bank, request.rank,
                request.row, request.arrival_ns,
                self._encode_request_callback(request.callback),
                request.attempts, request.retries, request.speed_factor,
                request.progress_ns, request.req_id,
            ])
        return serial

    def inflight_ref(self, op: InFlight) -> int:
        key = id(op)
        serial = self._inflight_index.get(key)
        if serial is None:
            serial = len(self.inflight_rows)
            self._inflight_index[key] = serial
            self.inflight_rows.append([
                self.request_ref(op.request), op.start_ns, op.finish_ns,
                op.pulse_start_ns, bool(op.cancellable),
                op.resumed_progress_ns,
            ])
        return serial

    def _encode_request_callback(
            self, callback: Optional[Callable[..., None]]
    ) -> Optional[List[Any]]:
        if callback is None:
            return None
        core = self.system.core
        bound_self = getattr(callback, "__self__", None)
        if bound_self is core:
            name = callback.__func__.__name__  # type: ignore[attr-defined]
            if name == "_read_done_plain":
                return ["plain"]
            raise CheckpointUnsupportedError(
                f"unsupported bound request callback SimpleCore.{name}")
        code = getattr(callback, "__code__", None)
        if code is not None and code.co_name == "on_done":
            cells = _closure_cells(callback)
            return ["dep", cells["read_id"]]
        raise CheckpointUnsupportedError(
            f"unsupported request callback {callback!r}")

    def encode_waiter(self, waiter: Callable[[], None]) -> str:
        core = self.system.core
        bound_self = getattr(waiter, "__self__", None)
        if bound_self is core:
            name = waiter.__func__.__name__  # type: ignore[attr-defined]
            if name in ("_write_space_ready", "_read_space_ready"):
                return name
        raise CheckpointUnsupportedError(
            f"unsupported space waiter {waiter!r}")

    def encode_event(self, callback: Callable[[], None]) -> List[Any]:
        system = self.system
        bound_self = getattr(callback, "__self__", None)
        if bound_self is not None:
            name = callback.__func__.__name__  # type: ignore[attr-defined]
            if bound_self is system and name in ("_sample_tick",
                                                 "_eager_tick"):
                return ["system", name]
            if bound_self is system.core and name in ("_start_event",
                                                      "_gap_fired"):
                return ["core", name]
            raise CheckpointUnsupportedError(
                f"unsupported bound event callback "
                f"{type(bound_self).__name__}.{name}")
        code = getattr(callback, "__code__", None)
        if code is None:
            raise CheckpointUnsupportedError(
                f"unsupported event callback {callback!r}")
        names = code.co_names
        cells = _closure_cells(callback)
        if "_try_issue_bank" in names:
            defaults = callback.__defaults__ or ()  # type: ignore[attr-defined]
            return ["ctrl.poke", defaults[0]]
        if "_complete_read_fast" in names:
            return ["ctrl.read_fast", cells["bank_index"],
                    self.inflight_ref(cells["op"])]
        if "_complete_write_fast" in names:
            return ["ctrl.write_fast", cells["bank_index"],
                    self.inflight_ref(cells["op"])]
        if "_complete_read" in names:
            return ["ctrl.read", cells["bank"].index,
                    self.inflight_ref(cells["op"])]
        if "_complete_write" in names:
            return ["ctrl.write", cells["bank"].index,
                    self.inflight_ref(cells["op"])]
        raise CheckpointUnsupportedError(
            f"unsupported event callback {callback!r} "
            f"(co_names={names!r})")


class _Restore:
    """One restore pass: rebuilt identity tables plus callback decoding."""

    def __init__(self, system: "System", state: Dict[str, Any]) -> None:
        self.system = system
        core = system.core
        self.requests: List[Request] = []
        for row in state["requests"]:
            callback: Optional[Callable[..., None]] = None
            desc = row[6]
            if desc is not None:
                if desc[0] == "plain":
                    callback = core._read_done_plain
                else:
                    callback = core._make_read_callback(desc[1])
            self.requests.append(Request(
                kind=row[0], block=row[1], bank=row[2], rank=row[3],
                row=row[4], arrival_ns=row[5], callback=callback,
                attempts=row[7], retries=row[8], speed_factor=row[9],
                progress_ns=row[10], req_id=row[11],
            ))
        self.inflights: List[InFlight] = [
            InFlight(request=self.requests[row[0]], start_ns=row[1],
                     finish_ns=row[2], pulse_start_ns=row[3],
                     cancellable=bool(row[4]), resumed_progress_ns=row[5])
            for row in state["inflights"]
        ]

    def decode_waiter(self, name: str) -> Callable[[], None]:
        waiter = getattr(self.system.core, name)
        return waiter  # type: ignore[no-any-return]

    def decode_event(self, desc: Sequence[Any]) -> Callable[..., None]:
        kind = desc[0]
        system = self.system
        if kind == "system":
            return getattr(system, desc[1])  # type: ignore[no-any-return]
        if kind == "core":
            return getattr(system.core, desc[1])  # type: ignore[no-any-return]
        ctrl = system.controller
        if kind == "ctrl.poke":
            return _make_poke(ctrl, desc[1])
        if kind == "ctrl.read":
            return _make_complete_read(ctrl, ctrl.banks[desc[1]],
                                       self.inflights[desc[2]])
        if kind == "ctrl.write":
            return _make_complete_write(ctrl, ctrl.banks[desc[1]],
                                        self.inflights[desc[2]])
        if kind == "ctrl.read_fast":
            return _make_complete_read_fast(ctrl, desc[1],
                                            self.inflights[desc[2]])
        if kind == "ctrl.write_fast":
            return _make_complete_write_fast(ctrl, desc[1],
                                             self.inflights[desc[2]])
        raise CheckpointError(f"unknown event descriptor {desc!r}")


def _capture_queue(capture: _Capture, queue: RequestQueue) -> Dict[str, Any]:
    return {
        "fifos": [[capture.request_ref(req) for req in fifo]
                  for fifo in queue._fifos],
        "size": queue._size,
        "occupancy_integral": queue._occupancy_integral,
        "last_change_ns": queue._last_change_ns,
        "epoch_peak": queue._epoch_peak,
    }


def _restore_queue(restore: _Restore, queue: RequestQueue,
                   state: Dict[str, Any]) -> None:
    for bank, refs in enumerate(state["fifos"]):
        fifo = queue._grow_to(bank)
        fifo.clear()
        fifo.extend(restore.requests[ref] for ref in refs)
    queue._size = state["size"]
    queue._occupancy_integral = state["occupancy_integral"]
    queue._last_change_ns = state["last_change_ns"]
    queue._epoch_peak = state["epoch_peak"]


def _capture_trace(system: "System") -> Dict[str, Any]:
    trace = system._trace
    rng = getattr(trace, "rng", None)
    patterns = getattr(trace, "patterns", None)
    if rng is None or patterns is None:
        raise CheckpointUnsupportedError(
            f"workload {system.config.workload!r} uses a trace without "
            "checkpointable state (workload mixes are generator-backed "
            "and cannot be checkpointed; use a single profile)")
    return {
        "rng": _rng_to_json(rng),
        "patterns": [_pattern_state(p) for p in patterns],
    }


def _restore_trace(system: "System", state: Dict[str, Any]) -> None:
    trace = system._trace
    rng = getattr(trace, "rng", None)
    patterns = getattr(trace, "patterns", None)
    if rng is None or patterns is None:
        raise CheckpointError(
            f"workload {system.config.workload!r} trace is not restorable")
    if len(patterns) != len(state["patterns"]):
        raise CheckpointError(
            f"trace pattern count changed: snapshot has "
            f"{len(state['patterns'])}, live trace has {len(patterns)}")
    _rng_from_json(rng, state["rng"])
    for pattern, pattern_state in zip(patterns, state["patterns"]):
        _restore_pattern(pattern, pattern_state)


def _capture_llc(system: "System") -> Dict[str, Any]:
    llc = system.llc
    lru = llc.cache
    deadblock = llc.deadblock
    age = deadblock.age_threshold
    return {
        "stats": _fields_to_dict(llc.stats, _LLC_STATS_FIELDS),
        "rng": _rng_to_json(llc.rng),
        "sets": [[[line.tag, bool(line.dirty), bool(line.eager_cleaned),
                   line.last_touch] for line in lines]
                 for lines in lru.sets],
        "set_access_counts": list(lru.set_access_counts),
        "profiler": {
            "hit_counters": list(llc.profiler.hit_counters),
            "miss_counter": llc.profiler.miss_counter,
            "eager_position": llc.profiler.eager_position,
            "samples_taken": llc.profiler.samples_taken,
        },
        "deadblock": {
            "buckets": list(deadblock.buckets),
            "total_reuses": deadblock.total_reuses,
            # float("inf") is not valid strict JSON; None encodes it.
            "age_threshold": None if age == float("inf") else age,
            "samples_taken": deadblock.samples_taken,
        },
    }


def _restore_llc(system: "System", state: Dict[str, Any]) -> None:
    llc = system.llc
    lru: LRUCache = llc.cache
    _fields_from_dict(llc.stats, _LLC_STATS_FIELDS, state["stats"])
    _rng_from_json(llc.rng, state["rng"])
    if len(state["sets"]) != lru.num_sets:
        raise CheckpointError(
            f"LLC geometry changed: snapshot has {len(state['sets'])} "
            f"sets, live cache has {lru.num_sets}")
    for index, rows in enumerate(state["sets"]):
        # Rows are [tag, dirty, eager_cleaned, last_touch] with JSON
        # booleans, CacheLine's positional field order; starmap builds
        # a 2 MB LLC's 32K lines about twice as fast as keyword calls.
        lru.sets[index][:] = itertools.starmap(CacheLine, rows)
    lru.set_access_counts[:] = state["set_access_counts"]
    if lru._fastpath:
        for index, lines in enumerate(lru.sets):
            tags = [line.tag for line in lines]
            lru._tag_sets[index][:] = tags
            members = lru._tag_members[index]
            members.clear()
            members.update(tags)
    # hit_counters / buckets are aliased by the LLC hot path
    # (llc._hit_counters, llc._db_buckets); restore strictly in place.
    profiler = llc.profiler
    profiler.hit_counters[:] = state["profiler"]["hit_counters"]
    profiler.miss_counter = state["profiler"]["miss_counter"]
    profiler.eager_position = state["profiler"]["eager_position"]
    profiler.samples_taken = state["profiler"]["samples_taken"]
    deadblock = llc.deadblock
    deadblock.buckets[:] = state["deadblock"]["buckets"]
    deadblock.total_reuses = state["deadblock"]["total_reuses"]
    age = state["deadblock"]["age_threshold"]
    deadblock.age_threshold = float("inf") if age is None else age
    deadblock.samples_taken = state["deadblock"]["samples_taken"]


def _capture_dram_buffer(system: "System") -> Optional[Dict[str, Any]]:
    buffer = system.dram_buffer
    if buffer is None:
        return None
    return {
        "lines": list(buffer._lines.keys()),
        "stats": _fields_to_dict(buffer.stats, _DRAM_STATS_FIELDS),
    }


def _restore_dram_buffer(system: "System",
                         state: Optional[Dict[str, Any]]) -> None:
    buffer = system.dram_buffer
    if (buffer is None) != (state is None):
        raise CheckpointError(
            "snapshot and config disagree about DRAM-buffer state")
    if buffer is not None and state is not None:
        buffer._lines.clear()
        for block in state["lines"]:
            buffer._lines[block] = None
        _fields_from_dict(buffer.stats, _DRAM_STATS_FIELDS, state["stats"])


def _capture_wear(system: "System") -> Dict[str, Any]:
    wear = system.wear
    return {
        "records": [[record.normal_writes,
                     [[factor, count] for factor, count
                      in record.slow_writes_by_factor.items()]]
                    for record in wear.records],
        "damage_watermarks": list(wear._damage_watermarks),
        "remappers": [{
            "gap": remapper.gap, "start": remapper.start,
            "writes_since_move": remapper._writes_since_move,
            "total_writes": remapper.total_writes,
            "gap_moves": remapper.gap_moves,
        } for remapper in wear.remappers],
        "block_damage": [list(row) for row in wear.block_damage],
    }


def _restore_wear(system: "System", state: Dict[str, Any]) -> None:
    wear = system.wear
    for record, row in zip(wear.records, state["records"]):
        record.normal_writes = row[0]
        record.slow_writes_by_factor = {
            factor: count for factor, count in row[1]}
    wear._damage_watermarks = list(state["damage_watermarks"])
    for remapper, remap_state in zip(wear.remappers, state["remappers"]):
        remapper.gap = remap_state["gap"]
        remapper.start = remap_state["start"]
        remapper._writes_since_move = remap_state["writes_since_move"]
        remapper.total_writes = remap_state["total_writes"]
        remapper.gap_moves = remap_state["gap_moves"]
    for target, row in zip(wear.block_damage, state["block_damage"]):
        target[:] = row
    # Pending whole-write buffers were flushed before capture.
    wear._pend_normal = [0.0] * wear.num_banks
    wear._pend_slow = [dict() for _ in range(wear.num_banks)]
    wear._pend_dirty = False


def _capture_faults(system: "System") -> Optional[Dict[str, Any]]:
    injector = system.faults
    if injector is None:
        return None
    return {
        "stats": _fields_to_dict(injector.stats, _FAULT_STATS_FIELDS),
        "rng": _rng_to_json(injector._rng),
        "spares_left": list(injector.spares_left),
        "retired_per_bank": list(injector.retired_per_bank),
        "lines": [[[line, [list(ls.limits), ls.damage, ls.dead,
                           ls.replaced]]
                   for line, ls in bank_lines.items()]
                  for bank_lines in injector._lines],
    }


def _restore_faults(system: "System",
                    state: Optional[Dict[str, Any]]) -> None:
    injector = system.faults
    if injector is None:
        if state is not None:
            raise CheckpointError(
                "snapshot carries fault state but config has no faults")
        return
    if state is None:
        raise CheckpointError(
            "config enables faults but snapshot has no fault state")
    from repro.faults.injector import _LineState
    _fields_from_dict(injector.stats, _FAULT_STATS_FIELDS, state["stats"])
    _rng_from_json(injector._rng, state["rng"])
    injector.spares_left[:] = state["spares_left"]
    injector.retired_per_bank[:] = state["retired_per_bank"]
    for bank_lines, rows in zip(injector._lines, state["lines"]):
        bank_lines.clear()
        for line, (limits, damage, dead, replaced) in rows:
            bank_lines[line] = _LineState(
                limits=list(limits), damage=damage, dead=dead,
                replaced=replaced)


def _capture_telemetry(system: "System") -> Optional[Dict[str, Any]]:
    telemetry = system.telemetry
    if not telemetry.enabled:
        return None
    registry = telemetry.metrics
    tracer = telemetry.tracer

    def heatmap_state(heatmap: Any) -> Dict[str, Any]:
        return {
            "epoch_times_ns": list(heatmap.epoch_times_ns),
            "rows": [list(row) for row in heatmap.rows],
        }

    return {
        "metrics": {
            "counters": {name: counter.value for name, counter
                         in registry._counters.items()},
            "gauges": {name: gauge.value for name, gauge
                       in registry._gauges.items()},
            "histograms": {name: {"bounds": list(hist.bounds),
                                  "counts": list(hist.counts)}
                           for name, hist in registry._histograms.items()},
            "sample_times_ns": list(registry.sample_times_ns),
            "series": {name: list(column) for name, column
                       in registry.series.items()},
        },
        "tracer": {
            "recorded": tracer.recorded,
            "ring": [list(record) for record in tracer._ring],
        },
        "heatmap": heatmap_state(telemetry.heatmap),
        "retired_heatmap": heatmap_state(telemetry.retired_heatmap),
    }


def _restore_telemetry(system: "System",
                       state: Optional[Dict[str, Any]]) -> None:
    telemetry = system.telemetry
    if not telemetry.enabled:
        if state is not None:
            raise CheckpointError(
                "snapshot carries telemetry but config disables it")
        return
    if state is None:
        raise CheckpointError(
            "config enables telemetry but snapshot has no telemetry state")
    registry = telemetry.metrics
    metrics = state["metrics"]
    for name, value in metrics["counters"].items():
        registry.counter(name).value = value
    for name, value in metrics["gauges"].items():
        registry.gauge(name).value = value
    for name, hist in metrics["histograms"].items():
        registry.histogram(name, tuple(hist["bounds"])).counts[:] = \
            hist["counts"]
    registry.sample_times_ns[:] = metrics["sample_times_ns"]
    registry.series = {name: list(column) for name, column
                       in metrics["series"].items()}
    tracer = telemetry.tracer
    tracer._ring.clear()
    tracer._ring.extend(tuple(record) for record in state["tracer"]["ring"])
    tracer.recorded = state["tracer"]["recorded"]
    for heatmap, heat_state in ((telemetry.heatmap, state["heatmap"]),
                                (telemetry.retired_heatmap,
                                 state["retired_heatmap"])):
        heatmap.epoch_times_ns[:] = heat_state["epoch_times_ns"]
        heatmap.rows[:] = [list(row) for row in heat_state["rows"]]


def capture_state(system: "System") -> Dict[str, Any]:
    """Serialize a paused system's complete state to a plain dict.

    Must be called at an event boundary (no core frame on the stack).
    Buffered accounting (wear pending buffers, controller telemetry
    pending counters) is flushed first; flushing commutes with the
    accounting the rest of the run would do, so a captured-and-continued
    run stays bit-identical to a straight-through one.
    """
    core = system.core
    if core._in_run or core._owns_clock:
        raise CheckpointUnsupportedError(
            "capture_state must run at an event boundary, not from "
            "inside a core execution frame")
    ctrl = system.controller
    system.wear.flush_pending()
    if ctrl._ts is not None:
        ctrl._ts.flush_pending()
    ctrl.sync_bank_state()

    capture = _Capture(system)
    events = system.events

    banks_rows = []
    for bank in ctrl.banks:
        banks_rows.append([
            bank.open_row, bank.busy_until,
            None if bank.in_flight is None
            else capture.inflight_ref(bank.in_flight),
            bank.busy_time_ns, bank.ops_begun, bank.ops_cancelled,
            bank.lines_retired,
        ])
    mirror_in_flight = [
        None if op is None else capture.inflight_ref(op)
        for op in ctrl._bank_in_flight
    ]
    heap_rows = [[time_ns, seq, capture.encode_event(callback)]
                 for time_ns, seq, callback in events._heap]
    deferred = events._deferred
    deferred_row = (None if deferred is None else
                    [deferred[0], deferred[1],
                     capture.encode_event(deferred[2])])

    # Peek-and-reanchor: observe the next request id without changing
    # what the live controller will hand out next.
    next_request_id = next(ctrl._request_ids)
    ctrl._request_ids = itertools.count(next_request_id)

    quota = system.quota
    flip = system.flip_n_write

    state: Dict[str, Any] = {
        "state_schema": STATE_SCHEMA_VERSION,
        "fastpath": bool(ctrl._fastpath),
        "sanitize": bool(system.sanitize),
        "events": {
            "now": events.now,
            "seq": events._seq,
            "heap": heap_rows,
            "deferred": deferred_row,
        },
        "system": {
            "measure_start_ns": system._measure_start_ns,
            "measure_end_ns": system._measure_end_ns,
            "accesses_at_last_scan": system._accesses_at_last_scan,
            "done": system._done,
        },
        "core": {
            **_fields_to_dict(core, _CORE_FIELDS),
            "pending_fill": _trace_record_row(core._pending_fill),
            "gap_record": _trace_record_row(core._gap_record),
        },
        "trace": _capture_trace(system),
        "controller": {
            "bus_free_ns": ctrl.bus_free_ns,
            "drain_mode": ctrl.drain_mode,
            "drain_started_ns": ctrl._drain_started_ns,
            "stats": _fields_to_dict(ctrl.stats, _CTRL_STATS_FIELDS),
            "wear_write_tally": ctrl._wear_write_tally,
            "wear_write_baseline": ctrl._wear_write_baseline,
            "next_request_id": next_request_id,
            "write_space_waiters": [capture.encode_waiter(w)
                                    for w in ctrl._write_space_waiters],
            "read_space_waiters": [capture.encode_waiter(w)
                                   for w in ctrl._read_space_waiters],
            "faw": [list(limiter._recent) for limiter in ctrl.faw],
            "queues": {
                "read": _capture_queue(capture, ctrl.read_q),
                "write": _capture_queue(capture, ctrl.write_q),
                "eager": _capture_queue(capture, ctrl.eager_q),
            },
            "banks": banks_rows,
            "bank_busy_until": list(ctrl._bank_busy_until),
            "bank_open_row": list(ctrl._bank_open_row),
            "bank_in_flight": mirror_in_flight,
        },
        "llc": _capture_llc(system),
        "wear": _capture_wear(system),
        "quota": None if quota is None else {
            "cumulative_wear": list(quota.cumulative_wear),
            "slow_only": list(quota.slow_only),
            "previous_periods": quota.previous_periods,
            "slow_only_periods": quota.slow_only_periods,
        },
        "faults": _capture_faults(system),
        "flip_n_write": None if flip is None else {
            "rng": _rng_to_json(flip.rng),
            "lines_written": flip.lines_written,
            "bits_written": flip.bits_written,
        },
        "dram_buffer": _capture_dram_buffer(system),
        "telemetry": _capture_telemetry(system),
        # Identity tables last: fully populated by the walks above.
        "requests": capture.request_rows,
        "inflights": capture.inflight_rows,
    }
    return state


def restore_state(system: "System", state: Dict[str, Any]) -> None:
    """Overwrite a freshly constructed system with captured state.

    ``system`` must come straight from ``System(config)`` with the same
    config (and the same fastpath/sanitize environment) the snapshot was
    captured under: construction wires probes, rebinds hot-path methods,
    and rebuilds the workload trace; this function then overwrites every
    piece of mutable state.
    """
    if state.get("state_schema") != STATE_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported state schema {state.get('state_schema')!r} "
            f"(this build reads schema {STATE_SCHEMA_VERSION})")
    ctrl = system.controller
    if bool(ctrl._fastpath) != bool(state["fastpath"]):
        raise CheckpointError(
            f"snapshot was captured with fastpath="
            f"{bool(state['fastpath'])} but this environment resolves "
            f"fastpath={bool(ctrl._fastpath)} (check REPRO_NO_FASTPATH)")
    if bool(system.sanitize) != bool(state["sanitize"]):
        raise CheckpointError(
            f"snapshot was captured with sanitize="
            f"{bool(state['sanitize'])} but this environment resolves "
            f"sanitize={bool(system.sanitize)} (check REPRO_SANITIZE)")

    restore = _Restore(system, state)
    events = system.events
    events_state = state["events"]
    events.now = events_state["now"]
    events._seq = events_state["seq"]
    events._heap = [
        (row[0], row[1], restore.decode_event(row[2]))
        for row in events_state["heap"]
    ]
    deferred_row = events_state["deferred"]
    events._deferred = (None if deferred_row is None else
                        (deferred_row[0], deferred_row[1],
                         restore.decode_event(deferred_row[2])))
    events.stop = False

    system_state = state["system"]
    system._measure_start_ns = system_state["measure_start_ns"]
    system._measure_end_ns = system_state["measure_end_ns"]
    system._accesses_at_last_scan = system_state["accesses_at_last_scan"]
    system._done = system_state["done"]

    core = system.core
    core_state = state["core"]
    _fields_from_dict(core, _CORE_FIELDS, core_state)
    core._pending_fill = _trace_record_from_row(core_state["pending_fill"])
    core._gap_record = _trace_record_from_row(core_state["gap_record"])
    core._in_run = False
    core._owns_clock = False
    core.stop_requested = False

    _restore_trace(system, state["trace"])

    ctrl_state = state["controller"]
    ctrl.bus_free_ns = ctrl_state["bus_free_ns"]
    ctrl.drain_mode = ctrl_state["drain_mode"]
    ctrl._drain_started_ns = ctrl_state["drain_started_ns"]
    _fields_from_dict(ctrl.stats, _CTRL_STATS_FIELDS, ctrl_state["stats"])
    ctrl._wear_write_tally = ctrl_state["wear_write_tally"]
    ctrl._wear_write_baseline = ctrl_state["wear_write_baseline"]
    ctrl._request_ids = itertools.count(ctrl_state["next_request_id"])
    ctrl._write_space_waiters[:] = [
        restore.decode_waiter(name)
        for name in ctrl_state["write_space_waiters"]]
    ctrl._read_space_waiters[:] = [
        restore.decode_waiter(name)
        for name in ctrl_state["read_space_waiters"]]
    for limiter, recent in zip(ctrl.faw, ctrl_state["faw"]):
        limiter._recent.clear()
        limiter._recent.extend(recent)
    _restore_queue(restore, ctrl.read_q, ctrl_state["queues"]["read"])
    _restore_queue(restore, ctrl.write_q, ctrl_state["queues"]["write"])
    _restore_queue(restore, ctrl.eager_q, ctrl_state["queues"]["eager"])
    for bank, row in zip(ctrl.banks, ctrl_state["banks"]):
        bank.open_row = row[0]
        bank.busy_until = row[1]
        bank.in_flight = (None if row[2] is None
                          else restore.inflights[row[2]])
        bank.busy_time_ns = row[3]
        bank.ops_begun = row[4]
        bank.ops_cancelled = row[5]
        bank.lines_retired = row[6]
    ctrl._bank_busy_until[:] = ctrl_state["bank_busy_until"]
    ctrl._bank_open_row[:] = ctrl_state["bank_open_row"]
    ctrl._bank_in_flight[:] = [
        None if ref is None else restore.inflights[ref]
        for ref in ctrl_state["bank_in_flight"]]

    _restore_llc(system, state["llc"])
    _restore_wear(system, state["wear"])

    quota_state = state["quota"]
    if (system.quota is None) != (quota_state is None):
        raise CheckpointError(
            "snapshot and config disagree about wear-quota state")
    if system.quota is not None and quota_state is not None:
        system.quota.cumulative_wear = list(quota_state["cumulative_wear"])
        system.quota.slow_only[:] = [
            bool(v) for v in quota_state["slow_only"]]
        system.quota.previous_periods = quota_state["previous_periods"]
        system.quota.slow_only_periods = quota_state["slow_only_periods"]

    _restore_faults(system, state["faults"])

    flip_state = state["flip_n_write"]
    if (system.flip_n_write is None) != (flip_state is None):
        raise CheckpointError(
            "snapshot and config disagree about Flip-N-Write state")
    if system.flip_n_write is not None and flip_state is not None:
        _rng_from_json(system.flip_n_write.rng, flip_state["rng"])
        system.flip_n_write.lines_written = flip_state["lines_written"]
        system.flip_n_write.bits_written = flip_state["bits_written"]

    _restore_dram_buffer(system, state["dram_buffer"])
    _restore_telemetry(system, state["telemetry"])


def capture_warm_state(system: "System") -> bytes:
    """Encode the state functional warmup leaves behind, compactly.

    Warmup touches exactly three things - the LLC, the trace's RNG and
    pattern cursors, and the DRAM write buffer - so their codec sections
    are the whole post-warmup state of every config sharing the
    system's :meth:`~repro.sim.config.SimConfig.warm_key`.  The sections
    are held as zlib-compressed compact JSON: a sweep may keep one of
    these alive across several runs, and the live dict is ~20x larger.

    Raises :class:`CheckpointUnsupportedError` for generator-backed
    traces (workload mixes), exactly like :func:`capture_state`.
    """
    state = {
        "trace": _capture_trace(system),
        "llc": _capture_llc(system),
        "dram_buffer": _capture_dram_buffer(system),
    }
    return zlib.compress(json.dumps(
        state, separators=(",", ":"), allow_nan=False).encode("utf-8"), 1)


def restore_warm_state(system: "System", encoded: bytes) -> None:
    """Overwrite a fresh system's warmup state with a captured one.

    ``system`` must come straight from ``System(config)`` with a config
    whose warm key matches the capturing run's; the result is then
    exactly the state :meth:`System._functional_warmup` would have left.
    """
    state = json.loads(zlib.decompress(encoded))
    _restore_trace(system, state["trace"])
    _restore_llc(system, state["llc"])
    _restore_dram_buffer(system, state["dram_buffer"])
