"""System configuration: one object describing a complete simulation run."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from repro import params
from repro.core.policies import WritePolicy, parse_policy
from repro.faults.config import FaultConfig


#: SIM012 registry: SimConfig fields deliberately OUTSIDE cache_key().
#: Every entry must state why the field cannot affect results; simlint
#: errors if a field is neither keyed nor listed here, and also if an
#: entry goes stale (no such field) or contradicts the key (listed AND
#: read by cache_key()).  Observe-only knobs live here so traced,
#: sanitized and plain runs share cache entries bit-for-bit.
CACHE_KEY_EXCLUDED = {
    "sanitize": "runtime sanitizer is read-only; sanitized runs are "
                "bit-identical to plain runs and share cache entries",
    "telemetry": "telemetry is observe-only; traced runs are "
                 "bit-identical to untraced ones",
    "telemetry_dir": "output location of the telemetry bundle, not an "
                     "input to the simulation",
    "telemetry_trace_capacity": "ring-buffer size only bounds how much "
                                "trace is kept, never what is simulated",
    "checkpoint_every": "slicing a run into checkpointed segments is "
                        "bit-identical to running straight through "
                        "(tests/test_checkpoint.py), so sliced and "
                        "unsliced runs share cache entries",
    "checkpoint_dir": "output location for snapshot files, not an "
                      "input to the simulation",
}


#: SIM012 registry: SimConfig fields deliberately OUTSIDE warm_key().
#: warm_key() names the state functional warmup leaves behind (LLC
#: contents, trace cursor and RNG, DRAM write buffer), so every entry
#: here must say why the field cannot change that state.  simlint
#: checks this registry against warm_key() exactly as it checks
#: CACHE_KEY_EXCLUDED against cache_key().
WARM_KEY_EXCLUDED = {
    "policy": "no policy machinery (eager scans, quota, slow writes) "
              "runs before the event loop starts",
    "slow_factor": "write-pulse timing; warmup has no timing",
    "num_banks": "memory geometry; warmup never reaches memory",
    "num_ranks": "memory geometry; warmup never reaches memory",
    "expo_factor": "endurance model; warmup records no wear",
    "capacity_bytes": "memory geometry; warmup never reaches memory",
    "warmup_accesses": "length of the timed warmup that follows the "
                       "functional one",
    "measure_accesses": "length of the timed window",
    "eager_scan_interval_ns": "eager scans are scheduled by start_run, "
                              "after warmup",
    "sample_period_ns": "profiling periods close on timed sample ticks; "
                        "warmup takes none",
    "target_lifetime_years": "wear-quota input; warmup records no wear",
    "ratio_quota": "wear-quota input; warmup records no wear",
    "energy_cell": "energy is derived from timed-window counters only",
    "leveling_efficiency": "wear-leveling input; warmup records no wear",
    "eager_selector": "picks eager candidates, which only timed eager "
                      "scans request",
    "flip_n_write": "scales write wear; warmup records no wear",
    "cancel_threshold": "controller write cancellation; warmup never "
                        "reaches the controller",
    "eager_idle_max_accesses": "gates timed eager scans only",
    "page_policy": "controller row-buffer policy; warmup never reaches "
                   "the controller",
    "read_scheduler": "controller read ordering; warmup never reaches "
                      "the controller",
    "sanitize": "runtime sanitizer is read-only",
    "telemetry": "telemetry is observe-only and samples nothing during "
                 "warmup",
    "telemetry_dir": "output location, not a simulation input",
    "telemetry_trace_capacity": "ring-buffer size, not a simulation input",
    "checkpoint_every": "pauses fall in the timed run, after warmup",
    "checkpoint_dir": "output location, not a simulation input",
    "faults": "faults act on memory writes; warmup issues none",
}


def digest_for_key(key: Any) -> str:
    """Stable hex digest of a cache key.

    The key is serialised as canonical JSON (tuples and lists hash alike),
    so the digest is identical across processes and Python versions -
    unlike ``repr``-based hashing, which would couple cache identity to
    object formatting.  Parallel sweep workers rely on this to agree with
    the parent process on cache file names.
    """
    payload = json.dumps(key, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run.

    Attributes mirror Tables I-III; the window lengths control how many LLC
    accesses are warmed up and measured (the stand-in for the paper's
    6B-warmup / 2B-detail instruction windows).
    """

    workload: str
    policy: Union[str, WritePolicy] = "Norm"
    slow_factor: float = params.SLOW_FACTOR_DEFAULT
    num_banks: int = params.DEFAULT_BANKS
    num_ranks: int = params.DEFAULT_RANKS
    expo_factor: float = params.EXPO_FACTOR_DEFAULT
    capacity_bytes: int = params.MEMORY_CAPACITY_BYTES
    warmup_accesses: int = 30_000
    measure_accesses: int = 120_000
    functional_warmup_max: int = 600_000   # untimed LLC pre-fill cap
    functional_warmup_occupancy: float = 0.95
    seed: int = 1
    eager_scan_interval_ns: float = 60.0
    sample_period_ns: float = params.PROFILE_PERIOD_NS
    target_lifetime_years: float = params.TARGET_LIFETIME_YEARS
    ratio_quota: float = params.RATIO_QUOTA
    energy_cell: str = params.DEFAULT_ENERGY_CELL
    llc_size_bytes: int = params.LLC_SIZE_BYTES
    llc_assoc: int = params.LLC_ASSOC
    useless_threshold: float = params.USELESS_THRESHOLD_RATIO
    leveling_efficiency: float = params.START_GAP_EFFICIENCY
    eager_selector: str = "stack"          # or "deadblock" (extension)
    flip_n_write: bool = False             # Flip-N-Write wear limiting
    cancel_threshold: float = 0.5          # no cancel beyond this progress
    eager_idle_max_accesses: int = 2       # LLC-busy gate for eager scans
    dram_buffer_entries: int = 0           # DRAM write-coalescing buffer
    page_policy: str = "open"              # or "closed" (sensitivity knob)
    read_scheduler: str = "fcfs"           # or "frfcfs" (row hits first)
    # Arm the runtime invariant sanitizer (repro.lint.sanitize) for this
    # run.  Deliberately NOT part of cache_key(): the sanitizer is
    # read-only, so sanitized and unsanitized runs produce bit-identical
    # results and share cache entries.
    sanitize: bool = False
    # Telemetry (repro.telemetry): observe-only like the sanitizer, so
    # all three fields are excluded from cache_key() and traced runs
    # share cache entries with untraced ones.  ``telemetry_dir`` is where
    # the bundle is written at end of run (None = caller handles output,
    # e.g. the Runner picks <cache_dir>/<digest>.telemetry).
    telemetry: bool = False
    telemetry_dir: Optional[str] = None
    telemetry_trace_capacity: int = 65536
    # Checkpoint/resume (repro.checkpoint).  ``checkpoint_every`` pauses
    # the run at an event boundary every N processed LLC accesses;
    # ``checkpoint_dir`` is where the paused run drops snapshot files
    # (None = pause without persisting, which callers like the sharded
    # survival study use to hand snapshots around themselves).  Sliced
    # runs are bit-identical to straight-through ones, so neither knob
    # enters cache_key().
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    # Fault injection (repro.faults).  None (the default) disables the
    # subsystem entirely; disabled runs are bit-identical to a build
    # without it, and cache_key() only grows the fault term when this is
    # set, so pre-existing cache digests never change.
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.warmup_accesses < 0 or self.measure_accesses < 1:
            raise ValueError("need warmup >= 0 and measure >= 1 accesses")
        if self.num_banks % self.num_ranks:
            raise ValueError("banks must divide evenly across ranks")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 when set")

    @property
    def write_policy(self) -> WritePolicy:
        if isinstance(self.policy, WritePolicy):
            if self.policy.slow_factor != self.slow_factor:
                return self.policy.with_slow_factor(self.slow_factor)
            return self.policy
        return parse_policy(self.policy, self.slow_factor)

    @property
    def policy_name(self) -> str:
        if isinstance(self.policy, WritePolicy):
            return self.policy.name
        return self.policy

    def scaled(self, fraction: float) -> "SimConfig":
        """A cheaper copy with window lengths scaled by ``fraction``."""
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        return replace(
            self,
            warmup_accesses=max(1000, int(self.warmup_accesses * fraction)),
            measure_accesses=max(2000, int(self.measure_accesses * fraction)),
        )

    def cache_key(self) -> Tuple[Any, ...]:
        """Hashable identity for result caching."""
        key: Tuple[Any, ...] = (
            self.workload, self.policy_name, self.slow_factor,
            self.num_banks, self.num_ranks, self.expo_factor,
            self.capacity_bytes, self.warmup_accesses,
            self.measure_accesses, self.seed, self.eager_scan_interval_ns,
            self.sample_period_ns, self.target_lifetime_years,
            self.ratio_quota, self.energy_cell, self.llc_size_bytes,
            self.llc_assoc, self.useless_threshold,
            self.leveling_efficiency, self.eager_selector,
            self.flip_n_write, self.cancel_threshold,
            self.eager_idle_max_accesses, self.functional_warmup_max,
            self.functional_warmup_occupancy, self.dram_buffer_entries,
            self.page_policy, self.read_scheduler,
        )
        if self.faults is not None:
            # Appended only when enabled: the default key (and therefore
            # every pre-fault cache digest) stays byte-identical.
            key = key + (self.faults.key(),)
        return key

    def warm_key(self) -> Tuple[Any, ...]:
        """Identity of the state functional warmup leaves behind.

        Configs with equal warm keys warm the LLC, the trace and the
        DRAM write buffer into the same state, so a sweep warms once per
        key and restores that state into every other config sharing it
        (:meth:`repro.experiments.runner.Runner.sweep`).  Every field
        read here is also part of :meth:`cache_key`.
        """
        return (
            self.workload, self.seed, self.llc_size_bytes, self.llc_assoc,
            self.useless_threshold, self.functional_warmup_max,
            self.functional_warmup_occupancy, self.dram_buffer_entries,
        )

    def cache_digest(self) -> str:
        """Filename-safe digest of :meth:`cache_key` (see digest_for_key)."""
        return digest_for_key(self.cache_key())
