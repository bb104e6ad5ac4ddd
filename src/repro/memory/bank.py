"""Per-bank counters and the in-flight operation record."""

from __future__ import annotations

from dataclasses import dataclass
from repro.memory.queues import Request


@dataclass(slots=True)
class InFlight:
    """The operation a bank is currently executing.

    Attributes:
        request: the queued request being serviced.
        start_ns: simulated time the bank became busy with it.
        finish_ns: simulated time the bank frees up.
        pulse_start_ns: when cell stress begins (after the data burst);
            cancellation before this point wears nothing.
        cancellable: whether an arriving read may abort this operation.
        resumed_progress_ns: pulse time already completed in prior
            attempts (write pausing, the +WP policies).
    """

    request: Request
    start_ns: float
    finish_ns: float
    pulse_start_ns: float
    cancellable: bool
    resumed_progress_ns: float = 0.0


class Bank:
    """One memory bank's lifetime counters.

    Writes are write-through: they never load the row buffer, and a write to
    the currently open row leaves the buffer open (the device updates it in
    place).  Reads open rows.

    The scheduling state (busy-until time, open row, in-flight operation)
    lives in the controller's flat per-bank lists, which its issue scan
    reads directly.  The counters here (``busy_time_ns``, ``ops_begun``,
    ``ops_cancelled``, ``lines_retired``) are read live by telemetry
    probes and by result collection.
    """

    __slots__ = ("index", "busy_time_ns", "ops_begun", "ops_cancelled",
                 "lines_retired")

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy_time_ns: float = 0.0   # accumulated for utilization stats
        # Lifetime operation tallies; exported per-bank by telemetry probes
        # and cheap enough (one integer add) to keep unconditionally.
        self.ops_begun = 0
        self.ops_cancelled = 0
        # Lines this bank has retired into its spare region (fault
        # injection); stays 0 when the subsystem is disabled.
        self.lines_retired = 0
