"""Parallel sweeps over a concurrency-safe result store.

Figures 10-16 all read the same 11x9 (workload x policy) sweep; the cache
lets each bench regenerate its figure without re-simulating runs another
bench already produced.  Results are stored as versioned JSON entries
(:mod:`repro.store.codec`) keyed by a digest of the full
:class:`SimConfig`, so any parameter change invalidates cleanly.  The
runner reads and writes them through one :class:`~repro.store.FileStore`
(``<digest>.json`` plus ``<digest>.telemetry/`` bundles).

:meth:`Runner.sweep` fans cache misses out over a
``concurrent.futures.ProcessPoolExecutor``.  Each run is seeded entirely by
its config, so parallel results are bit-identical to serial ones; workers
return plain dicts and the parent process owns all store traffic.  Entry
commits are atomic (write-to-temp + ``os.replace``) so concurrent sweeps
sharing one directory can never expose a half-written entry, and any
unreadable entry - truncated JSON, schema drift, a stale pre-versioning
file - logs a warning and falls back to re-simulation instead of crashing.

Environment knobs:

* ``REPRO_SCALE``       - scale factor on window lengths (default 1.0;
  benches use ~0.25 for quick runs).
* ``REPRO_JOBS``        - worker processes for sweeps (default: all cores).
* ``REPRO_WORKLOADS``   - comma-separated subset of workloads to sweep.
* ``REPRO_CACHE_DIR``   - cache directory (default ``.repro_cache``).
* ``REPRO_NO_CACHE=1``  - nothing persists: each runner gets a private
  temporary directory, removed when the interpreter exits.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import logging
import os
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, as_completed, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# Serialisation lives in repro.store.codec these days; re-exported here
# because this module is the historic home every caller imports from.
from repro.sim.config import SimConfig, digest_for_key  # noqa: F401  (re-export)
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from repro.store import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    FileStore,
    atomic_write_text,
    cache_clear,
    cache_stats,
    cache_verify,
    entry_from_json,
    entry_to_json,
    result_from_dict,
    result_to_dict,
)
from repro.store.file import default_cache_dir
from repro.telemetry import bundle_is_complete
from repro.workloads.profiles import WORKLOAD_NAMES

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryError",
    "ProgressCallback",
    "Runner",
    "SweepProgress",
    "atomic_write_text",
    "cache_clear",
    "cache_stats",
    "cache_verify",
    "default_jobs",
    "default_runner",
    "entry_from_json",
    "entry_to_json",
    "result_from_dict",
    "result_to_dict",
    "scale_factor",
    "selected_workloads",
]

logger = logging.getLogger(__name__)


def scale_factor() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_jobs() -> int:
    """Worker count for parallel sweeps (``REPRO_JOBS``, default all cores)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def selected_workloads(default: Optional[Sequence[str]] = None) -> List[str]:
    env = os.environ.get("REPRO_WORKLOADS")
    if env:
        names = [n.strip() for n in env.split(",") if n.strip()]
        unknown = set(names) - set(WORKLOAD_NAMES)
        if unknown:
            raise ValueError(f"unknown workloads in REPRO_WORKLOADS: {unknown}")
        return names
    return list(default if default is not None else WORKLOAD_NAMES)


@dataclass(frozen=True)
class SweepProgress:
    """One per-run completion report delivered to a sweep's callback."""

    completed: int
    total: int
    config: SimConfig
    result: RunResult
    from_cache: bool
    #: The run restored a warm state another run of the sweep captured
    #: instead of running functional warmup itself.
    warm_started: bool = False


ProgressCallback = Callable[[SweepProgress], None]

#: One serial-sweep run: (config, run number, warm state to restore,
#: callback that keeps a cold warmup's state) -> result.
_Simulate = Callable[[SimConfig, int, Optional[bytes],
                      Optional[Callable[[bytes], None]]], RunResult]


def _simulate_to_dict(config: SimConfig) -> dict:
    """Worker entry point: simulate and return a plain-dict result.

    Returning a dict (rather than a RunResult) keeps the IPC payload
    decoupled from dataclass layout and is exactly what the parent writes
    to the store; the parent process owns all store traffic.  Telemetry is
    the one exception: when the config carries a ``telemetry_dir`` the
    worker writes the bundle itself at end of run (atomically, manifest
    last) straight into the store's bundle directory.
    """
    return result_to_dict(run_simulation(config))


def _advance_slice(config: SimConfig, snapshot_path: Optional[str],
                   next_snapshot_path: str,
                   warm_state: Optional[bytes] = None,
                   on_warm_state: Optional[Callable[[bytes], None]] = None,
                   ) -> tuple:
    """Worker entry point for sliced sweeps: run one checkpoint segment.

    The first slice of a run starts from the config (warm-started from
    ``warm_state`` when given, see :meth:`System.start_run`); later
    slices resume from the snapshot the previous slice (possibly in a
    *different* process) wrote.  Returns ``("pending", path)`` after
    writing the next snapshot, or ``("done", result_dict)`` when the run
    completed.

    A snapshot that fails validation - truncated, bit-flipped, or from a
    mismatched environment - is not fatal: the worker warns and
    re-simulates the whole run from scratch, which is bit-identical to
    the interrupted one (the checkpoint equivalence contract), exactly
    like the runner's unreadable-entry fallback.
    """
    from repro.checkpoint import CheckpointError, restore_system, save_snapshot
    from repro.sim.system import System

    if snapshot_path is None:
        system = System(config)
        system.start_run(warm_state, on_warm_state)
    else:
        try:
            system = restore_system(snapshot_path)
        except (CheckpointError, FileNotFoundError, OSError) as error:
            logger.warning(
                "snapshot %s unusable (%s); re-simulating from scratch",
                snapshot_path, error)
            return ("done", _simulate_to_dict(config))
    result = system.continue_run()
    if result is None:
        save_snapshot(system, next_snapshot_path)
        return ("pending", next_snapshot_path)
    return ("done", result_to_dict(result))


class _Sweep:
    """One sweep call's configs, misses, results and progress count."""

    def __init__(self, runner: "Runner", configs: List[SimConfig],
                 progress: Optional[ProgressCallback]) -> None:
        self.runner = runner
        self.configs = configs
        self.progress = progress
        self.misses: List[List[int]] = []
        self.results: Dict[int, RunResult] = {}
        self.completed = 0

    def report(self, index: int, result: RunResult, from_cache: bool,
               warm_started: bool = False) -> None:
        self.results[index] = result
        self.completed += 1
        if self.progress is not None:
            self.progress(SweepProgress(
                completed=self.completed, total=len(self.configs),
                config=self.configs[index], result=result,
                from_cache=from_cache, warm_started=warm_started,
            ))

    def finish(self, indices: List[int], result: RunResult,
               warm_started: bool = False) -> None:
        """Store a simulated miss; its duplicate grid points are hits."""
        runner = self.runner
        runner.simulated += 1
        runner._store_result(self.configs[indices[0]], result)
        for j, index in enumerate(indices):
            if j:
                runner.cache_hits += 1
            self.report(index, result, from_cache=bool(j),
                        warm_started=warm_started and not j)

    def ordered(self) -> List[RunResult]:
        return [self.results[i] for i in range(len(self.configs))]


def _private_cache_dir() -> Path:
    """A ``REPRO_NO_CACHE`` store directory, removed at interpreter exit.

    Not tied to the runner's lifetime: ``repro trace`` and ``repro
    metrics`` read the telemetry bundle of a runner they do not keep.
    """
    path = tempfile.mkdtemp(prefix="repro-nocache-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)


class Runner:
    """Runs configs through the simulator with memo + store caching.

    The store is ``store`` when given, else a private temporary
    directory under ``REPRO_NO_CACHE=1``, else ``cache_dir``, else
    ``REPRO_CACHE_DIR``, else ``.repro_cache``.
    """

    def __init__(self, cache_dir: Optional[Path] = None,
                 store: Optional[FileStore] = None) -> None:
        if store is None:
            if os.environ.get("REPRO_NO_CACHE", "0") == "1":
                store = FileStore(_private_cache_dir())
            else:
                store = FileStore(cache_dir if cache_dir is not None
                                  else default_cache_dir())
        self.store = store
        self._memo: Dict[tuple, RunResult] = {}
        self.simulated = 0
        self.cache_hits = 0
        # Serial-sweep runs that restored a shared warm state instead of
        # running functional warmup (see Runner._run_serially).
        self.warm_reused = 0

    def _path_for(self, config: SimConfig) -> Path:
        return self.store.entry_path(config.cache_digest())

    def _with_telemetry_dir(self, config: SimConfig) -> SimConfig:
        """Give a telemetry-enabled config a concrete output directory.

        The default is the store's bundle directory for the run's cache
        digest, which the simulator writes in place.  ``telemetry_dir``
        is not part of cache_key(), so this substitution never changes
        cache identity.
        """
        if config.telemetry and config.telemetry_dir is None:
            bundle = self.store.bundle_path(config.cache_digest())
            return replace(config, telemetry_dir=str(bundle))
        return config

    def _load_store(self, config: SimConfig) -> Optional[RunResult]:
        """Fetch from the store; any unreadable entry warns and reads as
        a miss."""
        digest = config.cache_digest()
        try:
            data = self.store.get(digest)
        except OSError as error:
            logger.warning("cache read failed for %s (%s); re-simulating",
                           self.store.entry_path(digest), error)
            return None
        if data is None:
            return None
        try:
            return entry_from_json(data.decode("utf-8"))
        except (CacheEntryError, UnicodeDecodeError) as error:
            logger.warning("discarding cache entry %s (%s); re-simulating",
                           self.store.entry_path(digest), error)
            self.store.delete(digest)
            return None

    def _store_result(self, config: SimConfig, result: RunResult) -> None:
        self._memo[config.cache_key()] = result
        self.store.put(config.cache_digest(),
                       entry_to_json(config, result).encode("utf-8"))

    def peek(self, config: SimConfig) -> Optional[RunResult]:
        """A cached result if one exists - never simulates.

        A hit counts toward ``cache_hits``.  A telemetry-enabled config
        also needs a complete bundle; without one it reads as a miss, so
        the run re-simulates (bit-identically, since telemetry never
        perturbs the simulation) purely to regenerate the bundle.
        """
        key = config.cache_key()
        if (config.telemetry and config.telemetry_dir is not None
                and not bundle_is_complete(Path(config.telemetry_dir))):
            return None
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        result = self._load_store(config)
        if result is not None:
            self._memo[key] = result
            self.cache_hits += 1
        return result

    def run(self, config: SimConfig) -> RunResult:
        config = self._with_telemetry_dir(config)
        cached = self.peek(config)
        if cached is not None:
            return cached
        result = run_simulation(config)
        self.simulated += 1
        self._store_result(config, result)
        return result

    def run_traced(self, config: SimConfig) -> "tuple[RunResult, Path]":
        """Run with telemetry forced on; returns (result, bundle dir).

        The result is bit-identical to an untraced run of the same config
        and shares its cache entry; the second element is the directory
        holding the telemetry bundle (metrics/heatmap/traces/manifest).
        """
        config = self._with_telemetry_dir(
            replace(config, telemetry=True))
        result = self.run(config)
        assert config.telemetry_dir is not None
        return result, Path(config.telemetry_dir)

    def scaled(self, config: SimConfig) -> RunResult:
        """Run with window lengths scaled by REPRO_SCALE."""
        return self.run(self._scaled_config(config))

    def _scaled_config(self, config: SimConfig) -> SimConfig:
        factor = scale_factor()
        if factor != 1.0:
            config = config.scaled(factor)
        return config

    def sweep(self, configs: Iterable[SimConfig],
              jobs: Optional[int] = None,
              progress: Optional[ProgressCallback] = None,
              apply_env_scale: bool = True,
              ) -> List[RunResult]:
        """Run a grid of configs, fanning cache misses out over processes.

        Results come back in input order and are bit-identical to a serial
        sweep: every run is deterministic given its config, and duplicate
        configs in the grid simulate once.  ``jobs`` defaults to
        ``REPRO_JOBS`` (or all cores); ``progress`` receives one
        :class:`SweepProgress` per completed run.  A serial sweep warms
        the LLC once per :meth:`SimConfig.warm_key` (see
        :meth:`_run_serially`).

        ``apply_env_scale=False`` skips the ``REPRO_SCALE`` rescaling,
        so the configs run exactly as given.
        """
        sweep = self._plan_sweep(configs, progress, apply_env_scale)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        if len(sweep.misses) <= 1 or jobs <= 1:
            self._run_serially(
                sweep, lambda config, _number, warm_state, on_warm_state:
                run_simulation(config, warm_state, on_warm_state))
        else:
            workers = min(jobs, len(sweep.misses))
            # Looked up at use: concurrent.futures imports multiprocessing
            # only then, so serial sweeps never pay for it.
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers) as pool:
                futures = {
                    pool.submit(_simulate_to_dict,
                                sweep.configs[indices[0]]): indices
                    for indices in sweep.misses
                }
                for future in as_completed(futures):
                    sweep.finish(futures[future],
                                 result_from_dict(future.result()))
        return sweep.ordered()

    def sweep_sliced(self, configs: Iterable[SimConfig],
                     jobs: Optional[int] = None,
                     progress: Optional[ProgressCallback] = None,
                     apply_env_scale: bool = True,
                     checkpoint_dir: Optional[Path] = None,
                     ) -> List[RunResult]:
        """Like :meth:`sweep`, but time-slices each run via checkpoints.

        A config carrying ``checkpoint_every`` runs as a chain of
        resumable segments: whichever worker is free picks up the next
        slice from the snapshot the previous slice wrote, so a
        long-horizon study scatters *seeds x time slices* across the
        pool instead of pinning each seed to one process for its whole
        lifetime.  Slicing is bit-identical to straight-through
        execution (``tests/test_checkpoint.py``), so results, cache
        entries, and return order are exactly those of :meth:`sweep` on
        the same grid - configs without ``checkpoint_every`` simply run
        as a single slice.

        Intermediate snapshots live in ``checkpoint_dir`` (a private
        temporary directory by default, removed afterwards); each is
        deleted as soon as its successor slice completes, so disk usage
        stays at one snapshot per in-flight run.
        """
        sweep = self._plan_sweep(configs, progress, apply_env_scale)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        misses = sweep.misses
        own_dir = checkpoint_dir is None
        directory = (Path(tempfile.mkdtemp(prefix="repro-slices-"))
                     if own_dir else Path(checkpoint_dir))
        directory.mkdir(parents=True, exist_ok=True)

        def run_sliced(config: SimConfig, run_number: int,
                       warm_state: Optional[bytes],
                       on_warm_state: Optional[Callable[[bytes], None]],
                       ) -> RunResult:
            # Serial path: still slice through snapshot files so the
            # single-process study exercises the same save/restore
            # chain the pool does.  Only the first slice warms up.
            previous: Optional[str] = None
            slice_number = 0
            while True:
                slice_number += 1
                target = directory / self._slice_name(
                    config, run_number, slice_number)
                status, payload = _advance_slice(
                    config, previous, str(target), warm_state,
                    on_warm_state)
                if previous is not None:
                    Path(previous).unlink(missing_ok=True)
                if status == "done":
                    return result_from_dict(payload)
                previous = payload

        try:
            if len(misses) <= 1 or jobs <= 1:
                self._run_serially(sweep, run_sliced)
            else:
                workers = min(jobs, len(misses))
                slice_counts: Dict[int, int] = {}
                previous_paths: Dict[int, Optional[str]] = {}
                with concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers) as pool:
                    futures = {}
                    for run_number, indices in enumerate(misses):
                        config = sweep.configs[indices[0]]
                        slice_counts[run_number] = 1
                        previous_paths[run_number] = None
                        target = directory / self._slice_name(
                            config, run_number, 1)
                        future = pool.submit(_advance_slice, config, None,
                                             str(target))
                        futures[future] = (run_number, indices)
                    while futures:
                        done, _pending = wait(futures,
                                              return_when=FIRST_COMPLETED)
                        for future in done:
                            run_number, indices = futures.pop(future)
                            config = sweep.configs[indices[0]]
                            status, payload = future.result()
                            consumed = previous_paths[run_number]
                            if consumed is not None:
                                Path(consumed).unlink(missing_ok=True)
                            if status == "done":
                                sweep.finish(indices,
                                             result_from_dict(payload))
                                continue
                            previous_paths[run_number] = payload
                            slice_counts[run_number] += 1
                            target = directory / self._slice_name(
                                config, run_number,
                                slice_counts[run_number])
                            next_future = pool.submit(
                                _advance_slice, config, payload,
                                str(target))
                            futures[next_future] = (run_number, indices)
        finally:
            if own_dir:
                shutil.rmtree(directory, ignore_errors=True)
        return sweep.ordered()

    def _plan_sweep(self, configs: Iterable[SimConfig],
                    progress: Optional[ProgressCallback],
                    apply_env_scale: bool) -> "_Sweep":
        """Resolve a grid's memo/store hits and order its misses.

        Hits are reported at once.  Misses are grouped by cache key
        (plus telemetry destination - a traced and an untraced grid
        point share a result but not a bundle) so duplicate grid points
        cost one simulation; the groups are then ordered by warm key,
        keeping first-appearance order, so runs that can share one
        functional warmup sit next to each other.
        """
        if apply_env_scale:
            configs = [self._scaled_config(c) for c in configs]
        sweep = _Sweep(self, [self._with_telemetry_dir(c) for c in configs],
                       progress)
        miss_indices: Dict[tuple, List[int]] = {}
        for i, config in enumerate(sweep.configs):
            group = (config.cache_key(), config.telemetry,
                     config.telemetry_dir)
            if group in miss_indices:
                miss_indices[group].append(i)
                continue
            cached = self.peek(config)
            if cached is not None:
                sweep.report(i, cached, from_cache=True)
            else:
                miss_indices[group] = [i]
        by_warm_key: Dict[tuple, List[List[int]]] = {}
        for indices in miss_indices.values():
            by_warm_key.setdefault(
                sweep.configs[indices[0]].warm_key(), []).append(indices)
        sweep.misses = [indices for group in by_warm_key.values()
                        for indices in group]
        return sweep

    def _run_serially(self, sweep: "_Sweep", simulate: "_Simulate") -> None:
        """Run a sweep's misses in order, warming once per warm key.

        The first run of a warm-key group warms the LLC cold.  When the
        next run shares its key, it also keeps the encoded post-warmup
        state
        (:func:`repro.checkpoint.capture_warm_state`, ~0.14 MB for
        hmmer), and the rest of the group restores that instead of
        warming.  The state lives only in this call and is dropped as
        the group's last run starts; a run with no later run sharing its
        key never captures.  Warm-started results are bit-identical to
        cold starts (``tests/test_functional_warmup.py``).
        """
        configs = sweep.configs
        keys = [configs[indices[0]].warm_key() for indices in sweep.misses]
        held: List[bytes] = []   # at most one encoded warm state
        for number, indices in enumerate(sweep.misses):
            shared = (number + 1 < len(keys)
                      and keys[number + 1] == keys[number])
            warm_state = held[0] if held else None
            if not shared:
                held.clear()
            keep = held.append if shared and warm_state is None else None
            result = simulate(configs[indices[0]], number, warm_state, keep)
            if warm_state is not None:
                self.warm_reused += 1
            sweep.finish(indices, result, warm_started=warm_state is not None)

    @staticmethod
    def _slice_name(config: SimConfig, run_number: int,
                    slice_number: int) -> str:
        return (f"{config.cache_digest()}-{run_number:04d}"
                f"-slice-{slice_number:04d}.ckpt")


_default_runner: Optional[Runner] = None


def default_runner() -> Runner:
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner()
    return _default_runner
