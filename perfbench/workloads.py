"""The benchmark's workloads: configs from a seed, the timed job, checks.

Each workload is a fixed grid of simulator configs generated from the
benchmark seed, run through the public :class:`Runner` API with one
process (``jobs=1``) on the job's private, cold store.  See
``README.md`` beside this file for why each one was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_NAMES
from repro.experiments.faults import (DEFAULT_MC_SCALE, DEFAULT_SLICES,
                                      DEFAULT_WORKLOAD, SURVIVAL_POLICIES,
                                      sliced_survival_configs,
                                      survival_records)
from repro.experiments.runner import Runner, SweepProgress
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.store import result_to_dict
from repro.telemetry import bundle_is_complete

WORKLOADS = ("sweep-hit", "sweep-miss", "survival-sliced", "traced-miss")

#: Window scale of the hit sweep.  hmmer's functional warmup does not
#: shrink with the window, so it stays about half of every run.
HIT_SCALE = 0.2
#: Window scale of the miss sweep (and of the traced subset): the
#: shortest at which every E- policy gets past its first profiling
#: period and issues eager writebacks.
MISS_SCALE = 0.15
MISS_WORKLOADS = ("gups", "lbm", "mcf", "stream")
MISS_POLICIES = ("Norm", "B-Mellow+SC", "BE-Mellow+SC+WQ")
#: The traced subset of the miss sweep, one config per miss workload.
TRACED_CONFIGS = (("lbm", "BE-Mellow+SC+WQ"), ("mcf", "B-Mellow+SC"),
                  ("stream", "Norm"), ("gups", "BE-Mellow+SC+WQ"))
#: Monte Carlo seeds per policy in the survival grid.
SURVIVAL_SEEDS = 8
#: Most accesses a run may time beyond its window.  The window closes
#: at the first gap after the last counted access, so records with a
#: zero instruction gap right behind it run in the same instant and
#: are counted too (``System._on_access`` tests ``count >= window``);
#: a burst of 8 is about 1e-8 likely even on gups.
MAX_CLOSE_BURST = 8


def build(workload: str, seed: int) -> List[SimConfig]:
    """The workload's configs; ``seed`` moves every one of them."""
    if workload == "sweep-hit":
        return [SimConfig("hmmer", policy, seed=seed).scaled(HIT_SCALE)
                for policy in PAPER_POLICY_NAMES]
    if workload == "sweep-miss":
        return [SimConfig(name, policy, seed=seed).scaled(MISS_SCALE)
                for name in MISS_WORKLOADS for policy in MISS_POLICIES]
    if workload == "survival-sliced":
        # The library grid numbers its Monte Carlo seeds 1..N; give each
        # benchmark seed its own disjoint block of N seeds instead.
        grid = sliced_survival_configs(
            DEFAULT_WORKLOAD, SURVIVAL_POLICIES, SURVIVAL_SEEDS,
            scale=DEFAULT_MC_SCALE, slices=DEFAULT_SLICES)
        return [replace(config, seed=seed * SURVIVAL_SEEDS + 1
                        + index % SURVIVAL_SEEDS)
                for index, config in enumerate(grid)]
    if workload == "traced-miss":
        return [SimConfig(name, policy, seed=seed).scaled(MISS_SCALE)
                for name, policy in TRACED_CONFIGS]
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload: str, runner: Runner, configs: Sequence[SimConfig],
            workdir: Path, lap: Callable[[], None]) -> List[RunResult]:
    """The timed job; ``lap()`` is called as each simulated run ends."""
    def progress(_report: SweepProgress) -> None:
        lap()

    if workload == "survival-sliced":
        return runner.sweep_sliced(configs, jobs=1, progress=progress,
                                   apply_env_scale=False,
                                   checkpoint_dir=workdir / "slices")
    if workload == "traced-miss":
        results = []
        for config in configs:
            results.append(runner.run_traced(config)[0])
            lap()
        return results
    return runner.sweep(configs, jobs=1, progress=progress,
                        apply_env_scale=False)


def canonical_records(workload: str, configs: Sequence[SimConfig],
                      results: Sequence[RunResult]) -> List[Dict[str, Any]]:
    """The outputs whose digest pins a workload's results."""
    if workload == "survival-sliced":
        records = survival_records(SURVIVAL_POLICIES, SURVIVAL_SEEDS,
                                   results)
        for record, config in zip(records, configs):
            record["seed"] = config.seed
        return records
    return [result_to_dict(result) for result in results]


def digest(records: Sequence[Dict[str, Any]]) -> str:
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check(workload: str, runner: Runner, configs: Sequence[SimConfig],
          results: Sequence[RunResult],
          records: Sequence[Dict[str, Any]]) -> List[Tuple[int, str]]:
    """Seed-independent invariants; returns (run index, violation)."""
    violations: List[Tuple[int, str]] = []
    if len(results) != len(configs):
        return [(-1, f"{len(results)} results for {len(configs)} configs")]
    for index, (config, result) in enumerate(zip(configs, results)):
        if (result.workload, result.policy) != (config.workload,
                                                config.policy_name):
            violations.append((index, "result belongs to "
                               f"{result.workload}/{result.policy}"))
        overshoot = result.accesses - config.measure_accesses
        if not result.uncorrectable and not 0 <= overshoot <= MAX_CLOSE_BURST:
            violations.append((index, f"timed {result.accesses} accesses, "
                               f"window is {config.measure_accesses}"))
        if workload == "traced-miss":
            bundle = runner.store.bundle_path(config.cache_digest())
            if bundle is None or not bundle_is_complete(bundle):
                violations.append((index, f"incomplete bundle {bundle}"))
    if workload == "survival-sliced" and (
            [r["policy"] for r in records]
            != [c.policy_name for c in configs]):
        violations.append((-1, "survival records out of canonical "
                           "policy x seed order"))
    return violations
