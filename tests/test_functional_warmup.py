"""Tests for the functional LLC warmup phase and warm-state reuse."""

import logging
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import repro.checkpoint
from repro import SimConfig
from repro.cache.llc import LastLevelCache
from repro.core.policies import PAPER_POLICY_NAMES
from repro.experiments.faults import sliced_survival_configs
from repro.experiments.runner import Runner
from repro.sim.system import System, run_simulation
from repro.store import FileStore, result_to_dict


def make_system(**kwargs):
    defaults = dict(workload="hmmer", policy="Norm",
                    warmup_accesses=2000, measure_accesses=3000,
                    llc_size_bytes=256 * 1024)
    defaults.update(kwargs)
    return System(SimConfig(**defaults))


def test_warmup_fills_the_llc():
    system = make_system(functional_warmup_max=300_000)
    consumed = system._functional_warmup()
    capacity = system.llc.cache.num_sets * system.llc.cache.assoc
    assert system.llc.cache.occupancy() >= 0.9 * capacity
    assert consumed > 0


def test_warmup_stops_at_cap():
    system = make_system(functional_warmup_max=500)
    consumed = system._functional_warmup()
    assert consumed == 500


def test_warmup_resets_llc_statistics():
    system = make_system(functional_warmup_max=10_000)
    system._functional_warmup()
    assert system.llc.stats.accesses == 0
    assert system.llc.stats.writebacks == 0


def test_warmup_leaves_dirty_lines_for_writeback_flow():
    system = make_system(workload="lbm", functional_warmup_max=100_000)
    system._functional_warmup()
    assert system.llc.cache.dirty_count() > 100


def test_warmup_trace_continuity():
    """The timed phase continues the same trace - no replay overlap."""
    system = make_system(functional_warmup_max=1000)
    first_before = next(system.profile.trace(system.config.seed))
    system._functional_warmup()
    record = next(system._trace)
    # After consuming 1000 records the next one differs from record #0
    # (astronomically unlikely to collide for these generators).
    assert (record.block, record.gap_insts) != (
        first_before.block, first_before.gap_insts,
    )


def test_warmup_prefills_dram_buffer():
    system = make_system(workload="lbm", dram_buffer_entries=512,
                         functional_warmup_max=200_000)
    system._functional_warmup()
    assert system.dram_buffer.full
    assert system.dram_buffer.stats.writebacks_in == 0   # stats reset


def test_zero_timed_warmup_still_works():
    system = make_system(warmup_accesses=0, measure_accesses=2000,
                         functional_warmup_max=50_000)
    result = system.run()
    assert result.accesses == 2000


# ---------------------------------------------------------------------------
# Warm-state reuse: a serial sweep warms once per SimConfig.warm_key() and
# restores that state into the other runs.  Every warm start must be
# bit-identical to a cold start of the same config.
# ---------------------------------------------------------------------------

SMALL = dict(warmup_accesses=1000, measure_accesses=2000,
             llc_size_bytes=256 * 1024)


@pytest.fixture
def sweep(tmp_path):
    """(runner, results, progress reports) of a serial sweep, each call on
    a fresh cold store."""
    def run_sweep(configs, sliced=False, **kwargs):
        runner = Runner(store=FileStore(tempfile.mkdtemp(dir=tmp_path)))
        reports = []
        run = runner.sweep_sliced if sliced else runner.sweep
        results = run(configs, jobs=1, progress=reports.append,
                      apply_env_scale=False, **kwargs)
        return runner, results, reports
    return run_sweep


def assert_matches_cold(configs, results):
    for config, result in zip(configs, results):
        assert result_to_dict(result) == result_to_dict(
            run_simulation(config)), config.policy_name


@pytest.fixture
def warm_chunk_calls(monkeypatch):
    """Counts LastLevelCache.warm_chunk calls (the fast warmup loop)."""
    calls = []
    original = LastLevelCache.warm_chunk

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LastLevelCache, "warm_chunk", counted)
    return calls


@pytest.fixture
def captures(monkeypatch):
    """Counts warm-state captures."""
    calls = []
    original = repro.checkpoint.capture_warm_state

    def counted(system):
        calls.append(system.config)
        return original(system)

    monkeypatch.setattr(repro.checkpoint, "capture_warm_state", counted)
    return calls


def test_warm_key_ignores_policy_and_timing():
    base = SimConfig("hmmer", "Norm")
    assert base.warm_key() == SimConfig(
        "hmmer", "BE-Mellow+SC+WQ", slow_factor=4.0, num_banks=8,
        warmup_accesses=1, measure_accesses=5).warm_key()
    assert base.warm_key() != SimConfig("hmmer", "Norm", seed=2).warm_key()
    assert base.warm_key() != SimConfig(
        "hmmer", "Norm", llc_size_bytes=1 << 20).warm_key()


@pytest.mark.parametrize("workload", ["hmmer", "lbm"])
def test_warm_started_sweep_matches_cold_runs(workload, captures, sweep):
    configs = [SimConfig(workload, policy, **SMALL)
               for policy in PAPER_POLICY_NAMES]
    runner, results, reports = sweep(configs)
    assert_matches_cold(configs, results)
    assert runner.warm_reused == len(configs) - 1
    assert len(captures) == 1
    assert [r.warm_started for r in reports] == [False] + [True] * 8


def test_sweep_groups_interleaved_warm_keys(captures, sweep):
    # Policy-major grid: the two seeds interleave in input order.
    configs = [SimConfig("hmmer", policy, seed=seed, **SMALL)
               for policy in ("Norm", "Slow+SC", "B-Mellow+SC")
               for seed in (1, 2)]
    runner, results, reports = sweep(configs)
    assert [r.config.seed for r in reports] == [1, 1, 1, 2, 2, 2]
    assert [result.policy for result in results] == [
        c.policy_name for c in configs]
    assert_matches_cold(configs, results)
    assert runner.warm_reused == 4
    assert len(captures) == 2


def test_warm_started_sliced_fault_grid_matches_cold_runs(captures, sweep):
    # A 256 KB LLC keeps zeusmp's warmup short.
    configs = [replace(config, llc_size_bytes=SMALL["llc_size_bytes"])
               for config in sliced_survival_configs(
                   "zeusmp", ("Norm", "BE-Mellow+SC"), seeds=2, scale=0.01,
                   slices=3)]
    runner, results, _ = sweep(configs, sliced=True)
    assert all(c.faults is not None for c in configs)
    assert_matches_cold(configs, results)
    assert runner.warm_reused == 2
    assert len(captures) == 2


def test_warm_started_telemetry_bundle_is_byte_identical(tmp_path, sweep):
    configs = [SimConfig("lbm", policy, telemetry=True,
                         telemetry_dir=str(tmp_path / f"sweep-{policy}"),
                         **SMALL)
               for policy in ("Norm", "BE-Mellow+SC+WQ")]
    runner, results, _ = sweep(configs)
    assert runner.warm_reused == 1
    for config, result in zip(configs, results):
        cold = replace(config, telemetry_dir=str(
            tmp_path / f"cold-{config.policy_name}"))
        assert result_to_dict(result) == result_to_dict(run_simulation(cold))
        warm_bundle = sorted(Path(config.telemetry_dir).iterdir())
        cold_bundle = sorted(Path(cold.telemetry_dir).iterdir())
        assert [p.name for p in warm_bundle] == [p.name for p in cold_bundle]
        for warm_file, cold_file in zip(warm_bundle, cold_bundle):
            assert warm_file.read_bytes() == cold_file.read_bytes(), (
                warm_file.name)


@pytest.mark.parametrize("env", ["REPRO_SANITIZE"])
def test_warm_started_sweep_matches_cold_runs_under_env(env, monkeypatch,
                                                        captures, sweep):
    monkeypatch.setenv(env, "1")
    configs = [SimConfig("hmmer", policy, **SMALL)
               for policy in ("Norm", "BE-Mellow+SC+WQ", "Slow+SC")]
    runner, results, _ = sweep(configs)
    assert_matches_cold(configs, results)
    assert runner.warm_reused == 2
    assert len(captures) == 1


def test_warm_started_dram_buffer_matches_cold_runs(sweep):
    configs = [SimConfig("lbm", policy, dram_buffer_entries=64, **SMALL)
               for policy in ("Norm", "BE-Mellow+SC+WQ")]
    runner, results, _ = sweep(configs)
    assert runner.warm_reused == 1
    assert_matches_cold(configs, results)


def test_mix_falls_back_to_cold_warmup(caplog, warm_chunk_calls, sweep):
    configs = [SimConfig("mix_light_heavy", policy, **SMALL)
               for policy in ("Norm", "Slow+SC")]
    cold_calls = 0
    for config in configs:
        before = len(warm_chunk_calls)
        run_simulation(config)
        cold_calls += len(warm_chunk_calls) - before
    del warm_chunk_calls[:]
    with caplog.at_level(logging.WARNING):
        runner, results, reports = sweep(configs)
    assert caplog.records == []
    assert runner.warm_reused == 0
    assert not any(r.warm_started for r in reports)
    assert len(warm_chunk_calls) == cold_calls
    assert_matches_cold(configs, results)


def test_runs_without_shared_warm_keys_warm_as_before(warm_chunk_calls,
                                                      captures, sweep,
                                                      tmp_path):
    configs = [SimConfig("hmmer", "Norm", seed=seed, **SMALL)
               for seed in (1, 2, 3)]
    per_run = []
    for config in configs:
        before = len(warm_chunk_calls)
        run_simulation(config)
        per_run.append(len(warm_chunk_calls) - before)
    assert min(per_run) > 0

    del warm_chunk_calls[:]
    runner = Runner(store=FileStore(tmp_path / "single"))
    runner.run(configs[0])
    assert len(warm_chunk_calls) == per_run[0]

    del warm_chunk_calls[:]
    sweep([configs[1]])
    assert len(warm_chunk_calls) == per_run[1]

    del warm_chunk_calls[:]
    runner, _, _ = sweep(configs)
    assert len(warm_chunk_calls) == sum(per_run)
    assert runner.warm_reused == 0
    assert captures == []


def test_miss_heavy_warmup_is_reused(warm_chunk_calls, captures, sweep):
    # lbm fills the default 2 MB LLC in ~1.25 records per line, the
    # shortest warmups there are; capturing and restoring the columnar
    # LLC section still costs less than replaying them, so the group
    # warms once and the other two runs restore.
    configs = [SimConfig("lbm", policy, warmup_accesses=1000,
                         measure_accesses=2000)
               for policy in ("Norm", "Slow+SC", "BE-Mellow+SC")]
    system = System(configs[0])
    cache = system.llc.cache
    assert system._functional_warmup() < 2 * cache.num_sets * cache.assoc

    del warm_chunk_calls[:]
    run_simulation(configs[0])
    per_run = len(warm_chunk_calls)
    assert per_run > 0

    del warm_chunk_calls[:]
    runner, results, reports = sweep(configs)
    assert len(captures) == 1
    assert runner.warm_reused == 2
    assert [r.warm_started for r in reports] == [False, True, True]
    assert len(warm_chunk_calls) == per_run
    assert_matches_cold(configs, results)
