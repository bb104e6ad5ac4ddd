"""The golden corpus: named simulator runs whose results are pinned.

Every case is a small configuration run end to end.  Its entry in
``corpus.json`` is the sha256 of ``json.dumps(run_result_to_dict(result),
sort_keys=True)``, plus, for telemetry cases, one sha256 per bundle
file.  ``tests/test_golden.py`` recomputes the entries and requires
them unchanged; ``tests/golden/regenerate.py`` rewrites the corpus.

The cases cover the policy space (Norm, the slow-write baselines and
the Mellow variants), every workload, eager writebacks and wear-quota
epochs, the write-verify ladder under fault injection, the sanitizer,
telemetry bundles, a checkpoint-sliced run and the optional
controller/DRAM-buffer knobs.
"""
from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis.export import run_result_to_dict
from repro.checkpoint import restore_system, save_snapshot
from repro.faults import FaultConfig
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import System, run_simulation
from repro.workloads.profiles import WORKLOAD_NAMES

CORPUS_PATH = Path(__file__).with_name("corpus.json")

#: Aggressive enough that every run burns spares and ends uncorrectable,
#: so the fault matrix reaches every rung of the write-verify ladder.
MATRIX_FAULTS = FaultConfig(
    wear_acceleration=5e6,
    spare_lines_per_bank=2,
    max_write_retries=1,
    stuck_mismatch_probability=0.5,
)
FAULT_WORKLOADS = ("gups", "lbm", "stream")

#: One corpus entry: {"result": digest}, plus {"bundle": {file: digest}}
#: for telemetry cases and the pause count for the sliced case.
Entry = Dict[str, Any]


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def result_digest(result: RunResult) -> str:
    """Digest of the canonical serialized form of one run result."""
    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return sha256_hex(payload.encode())


def random_small_config(index: int) -> SimConfig:
    """A seeded random draw over the config space, kept cheap to run."""
    rng = random.Random(0xFA57 + index)
    faults = None
    if rng.random() < 0.5:
        faults = FaultConfig(
            wear_acceleration=rng.choice([1e6, 5e6]),
            spare_lines_per_bank=rng.choice([2, 8]),
            max_write_retries=rng.choice([0, 1, 2]),
            stuck_mismatch_probability=rng.choice([0.25, 0.5, 1.0]),
        )
    return SimConfig(
        workload=rng.choice(["hmmer", "lbm", "zeusmp", "gups", "stream"]),
        policy=rng.choice([
            "Norm", "Slow+SC", "B-Mellow+SC", "BE-Mellow+SC+WQ", "E-Norm+NC",
        ]),
        seed=rng.randrange(1, 1000),
        slow_factor=rng.choice([2.0, 3.0]),
        num_banks=rng.choice([4, 8]),
        num_ranks=rng.choice([1, 2]),
        faults=faults,
    ).scaled(rng.choice([0.01, 0.02]))


def _plain_configs() -> Dict[str, SimConfig]:
    configs: Dict[str, SimConfig] = {}
    for policy in ("Norm", "BE-Mellow+SC", "Slow+SC"):
        for workload in ("hmmer", "lbm"):
            for seed in (3, 11):
                configs[f"matrix/{workload}/{policy}/s{seed}"] = SimConfig(
                    workload=workload, policy=policy,
                    seed=seed).scaled(0.05)
    configs["miss-heavy/gups/BE-Mellow+SC/s3"] = SimConfig(
        workload="gups", policy="BE-Mellow+SC", seed=3).scaled(0.05)
    for index in range(6):
        configs[f"random/{index}"] = random_small_config(index)
    for workload in FAULT_WORKLOADS:
        for policy in ("Norm", "BE-Mellow+SC"):
            for seed in (3, 11):
                configs[f"faults/{workload}/{policy}/s{seed}"] = SimConfig(
                    workload=workload, policy=policy, seed=seed,
                    faults=MATRIX_FAULTS).scaled(0.02)
    for workload in WORKLOAD_NAMES:
        for policy in ("Norm", "B-Mellow+SC", "BE-Mellow+SC+WQ"):
            configs[f"workloads/{workload}/{policy}"] = SimConfig(
                workload=workload, policy=policy, seed=1).scaled(0.02)
    # The profiler and the wear quota act once per sample period
    # (500 us by default), longer than the windows above, so these rows
    # shorten the period to drive eager writebacks and quota epochs.
    for workload, policy, selector in (
            ("GemsFDTD", "BE-Mellow+SC", "stack"),
            ("GemsFDTD", "BE-Mellow+SC", "deadblock"),
            ("zeusmp", "BE-Mellow+SC+WQ", "stack"),
            ("lbm", "E-Norm+NC", "stack"),
            ("lbm", "Norm+WQ", "stack")):
        configs[f"epochs/{workload}/{policy}/{selector}"] = SimConfig(
            workload=workload, policy=policy, seed=3,
            sample_period_ns=50_000.0,
            eager_selector=selector).scaled(0.05)
    configs["sanitized/gups/BE-Mellow+SC/s3"] = SimConfig(
        workload="gups", policy="BE-Mellow+SC", seed=3,
        sanitize=True).scaled(0.02)
    configs["mix/mix_write_heavy/BE-Mellow+SC"] = SimConfig(
        workload="mix_write_heavy", policy="BE-Mellow+SC",
        seed=2).scaled(0.02)
    configs["dram-buffer/lbm/B-Mellow+SC"] = SimConfig(
        workload="lbm", policy="B-Mellow+SC", seed=4,
        dram_buffer_entries=16).scaled(0.02)
    configs["frfcfs-closed/stream/BE-Mellow+SC+WQ"] = SimConfig(
        workload="stream", policy="BE-Mellow+SC+WQ", seed=5,
        read_scheduler="frfcfs", page_policy="closed").scaled(0.02)
    return configs


PLAIN_CONFIGS = _plain_configs()

#: Telemetry cases: the bundle (metric series, event trace, heatmaps,
#: manifest) is pinned file by file next to the result.
TELEMETRY_CONFIGS: Dict[str, SimConfig] = {
    "telemetry/lbm/BE-Mellow+SC+WQ/s3": SimConfig(
        workload="lbm", policy="BE-Mellow+SC+WQ", seed=3,
        telemetry=True).scaled(0.05),
    "telemetry-faults/lbm/BE-Mellow+SC+WQ/s3": SimConfig(
        workload="lbm", policy="BE-Mellow+SC+WQ", seed=3,
        faults=MATRIX_FAULTS, telemetry=True).scaled(0.02),
}

#: A fault run paused every 40 accesses, each pause saved to a snapshot
#: file and resumed in a freshly restored System.
SLICED_NAME = "checkpoint-sliced/lbm/BE-Mellow+SC/s7"
SLICED_CONFIG = SimConfig(workload="lbm", policy="BE-Mellow+SC", seed=7,
                          faults=MATRIX_FAULTS).scaled(0.02)
SLICED_EVERY = 40


def _run_plain(name: str) -> Tuple[Entry, RunResult]:
    result = run_simulation(PLAIN_CONFIGS[name])
    return {"result": result_digest(result)}, result


def _run_telemetry(name: str) -> Tuple[Entry, RunResult]:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "bundle"
        config = replace(TELEMETRY_CONFIGS[name], telemetry_dir=str(out))
        result = run_simulation(config)
        bundle = {path.name: sha256_hex(path.read_bytes())
                  for path in sorted(out.iterdir())}
    return {"result": result_digest(result), "bundle": bundle}, result


def run_sliced() -> Tuple[RunResult, int]:
    """Run :data:`SLICED_CONFIG` through snapshot files; (result, pauses)."""
    with tempfile.TemporaryDirectory() as scratch:
        system = System(replace(SLICED_CONFIG,
                                checkpoint_every=SLICED_EVERY))
        system.start_run()
        pauses = 0
        while True:
            result = system.continue_run()
            if result is not None:
                return result, pauses
            pauses += 1
            path = save_snapshot(system,
                                 Path(scratch) / f"slice-{pauses}.ckpt")
            system = restore_system(path)


def _run_sliced(name: str) -> Tuple[Entry, RunResult]:
    result, pauses = run_sliced()
    return {"result": result_digest(result), "pauses": pauses}, result


def _runners() -> Dict[str, Callable[[str], Tuple[Entry, RunResult]]]:
    runners: Dict[str, Callable[[str], Tuple[Entry, RunResult]]] = {}
    runners.update({name: _run_plain for name in PLAIN_CONFIGS})
    runners.update({name: _run_telemetry for name in TELEMETRY_CONFIGS})
    runners[SLICED_NAME] = _run_sliced
    return runners


RUNNERS = _runners()
CASE_NAMES: List[str] = list(RUNNERS)


def run_case(name: str) -> Tuple[Entry, RunResult]:
    """Run one named case; its corpus entry and the raw result."""
    return RUNNERS[name](name)


def load_corpus(path: Path = CORPUS_PATH) -> Dict[str, Entry]:
    return json.loads(path.read_text())["cases"]


def write_corpus(entries: Dict[str, Entry],
                 path: Path = CORPUS_PATH) -> None:
    document = {
        "format": 1,
        "about": "sha256 of json.dumps(run_result_to_dict(result), "
                 "sort_keys=True) per case (tests/golden/cases.py); "
                 "regenerate with tests/golden/regenerate.py",
        "cases": entries,
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
