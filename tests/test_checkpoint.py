"""Checkpoint equivalence gate: snapshot -> restore -> continue must be
bit-identical to running straight through.

The differential matrix mirrors the fastpath oracle suite: every test
runs the same config twice - once uninterrupted, once sliced into
checkpointed segments where each pause round-trips through an actual
snapshot file and a freshly constructed ``System`` - and requires
byte-for-byte equality of the serialized results (and, where enabled,
of the full telemetry bundle).  Property tests push the boundary to
arbitrary access counts and pin double round-trip idempotence: a
restored system must re-capture to the identical snapshot bytes.

Corruption tests pin the failure mode: any truncation or bit flip in a
snapshot file surfaces as a structured
:class:`~repro.checkpoint.CheckpointCorruptionError`, never a silently
wrong resume.  Cache-key tests pin that the checkpoint knobs stay
outside :meth:`SimConfig.cache_key` (sliced and straight runs share
cache entries precisely *because* this suite proves them bit-identical).
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.export import run_result_to_dict
import repro.checkpoint
from repro.checkpoint import (STATE_SCHEMA_VERSION, CheckpointCorruptionError,
                              CheckpointError, CheckpointUnsupportedError,
                              capture_state, capture_warm_state,
                              config_from_dict, config_to_dict,
                              load_snapshot, restore_system,
                              restore_warm_state, save_snapshot,
                              snapshot_bytes)
from repro.checkpoint.codec import _capture_llc, _restore_llc
from repro.checkpoint.snapshot import _encode_snapshot
from repro.experiments.runner import Runner
from repro.faults import FaultConfig
from repro.hotpath import FASTPATH_ENV
from repro.sim.config import CACHE_KEY_EXCLUDED, SimConfig
from repro.sim.system import System
from repro.store import FileStore

POLICIES = ["Norm", "BE-Mellow+SC", "Slow+SC"]
WORKLOADS = ["hmmer", "lbm"]
SEEDS = [3, 11]

FAULTS = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=8,
                     max_write_retries=1)


def _straight_json(config: SimConfig) -> str:
    return json.dumps(run_result_to_dict(System(config).run()),
                      sort_keys=True)


def _sliced_json(config: SimConfig, every: int, tmp_path: Path) -> str:
    """Run sliced: every pause writes a snapshot, a *fresh* System is
    restored from the file, and the run continues there."""
    system = System(dataclasses.replace(config, checkpoint_every=every))
    system.start_run()
    index = 0
    while True:
        result = system.continue_run()
        if result is not None:
            return json.dumps(run_result_to_dict(result), sort_keys=True)
        index += 1
        path = tmp_path / f"slice-{index}.ckpt"
        save_snapshot(system, path)
        system = restore_system(path)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_sliced_bit_identity(tmp_path: Path, workload: str, policy: str,
                             seed: int) -> None:
    """Policy x workload x seed differential matrix."""
    config = SimConfig(workload=workload, policy=policy,
                       seed=seed).scaled(0.02)
    assert _sliced_json(config, 900, tmp_path) == _straight_json(config)


def test_sliced_crosses_warmup_boundary(tmp_path: Path) -> None:
    """Small slices force pauses inside the timed warmup window too."""
    config = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                       seed=5).scaled(0.02)
    assert _sliced_json(config, 300, tmp_path) == _straight_json(config)


@pytest.mark.parametrize("workload", ["zeusmp", "lbm"])
def test_sliced_bit_identity_with_faults(tmp_path: Path,
                                         workload: str) -> None:
    """Fault injector RNG streams and per-line endurance state must
    survive the round trip exactly."""
    config = SimConfig(workload=workload, policy="BE-Mellow+SC", seed=7,
                       faults=FAULTS).scaled(0.02)
    assert _sliced_json(config, 800, tmp_path) == _straight_json(config)


def test_sliced_bit_identity_dram_buffer_and_fnw(tmp_path: Path) -> None:
    """Optional subsystems with their own ordered state (DRAM buffer LRU
    order, Flip-N-Write RNG) ride along."""
    config = SimConfig(workload="lbm", policy="Norm", seed=9,
                       dram_buffer_entries=16,
                       flip_n_write=True).scaled(0.02)
    assert _sliced_json(config, 800, tmp_path) == _straight_json(config)


def test_telemetry_bundle_byte_identity_sliced(tmp_path: Path) -> None:
    """The full telemetry bundle must be byte-identical between a sliced
    and a straight run - epochs, trace ring, heatmaps, manifest."""
    bundles = {}
    for mode in ("straight", "sliced"):
        out = tmp_path / f"telemetry-{mode}"
        config = SimConfig(workload="lbm", policy="BE-Mellow+SC", seed=11,
                           telemetry=True,
                           telemetry_dir=str(out)).scaled(0.02)
        if mode == "straight":
            System(config).run()
        else:
            _sliced_json(config, 900, tmp_path)
        bundles[mode] = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())}
    assert bundles["straight"].keys() == bundles["sliced"].keys()
    for name, payload in bundles["straight"].items():
        assert payload == bundles["sliced"][name], f"{name} diverged"


def test_sliced_bit_identity_sanitizer_armed(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    """REPRO_SANITIZE=1 arms the runtime invariant checks; the restored
    run must pass them and still match bit-for-bit."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config = SimConfig(workload="hmmer", policy="Slow+SC", seed=3,
                       sanitize=True).scaled(0.02)
    assert _sliced_json(config, 700, tmp_path) == _straight_json(config)


def test_sliced_bit_identity_reference_mode(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    """With the fastpath disabled the reference drain loop handles the
    pause; the snapshot mode flag records the environment."""
    monkeypatch.setenv(FASTPATH_ENV, "1")
    config = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                       seed=3).scaled(0.02)
    assert _sliced_json(config, 900, tmp_path) == _straight_json(config)


def test_mode_mismatch_rejected(monkeypatch: pytest.MonkeyPatch,
                                tmp_path: Path) -> None:
    """A snapshot captured under the fastpath must refuse to restore in
    a reference-mode environment (and name the env var)."""
    monkeypatch.delenv(FASTPATH_ENV, raising=False)
    config = SimConfig(workload="hmmer", policy="Norm", seed=3,
                       checkpoint_every=900).scaled(0.02)
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    path = save_snapshot(system, tmp_path / "fast.ckpt")
    monkeypatch.setenv(FASTPATH_ENV, "1")
    with pytest.raises(CheckpointError, match="REPRO_NO_FASTPATH"):
        restore_system(path)


def test_run_with_checkpoint_dir_writes_snapshots(tmp_path: Path) -> None:
    """checkpoint_dir makes run() drop chronologically sorting snapshot
    files at every pause without changing the result."""
    out = tmp_path / "snaps"
    config = SimConfig(workload="hmmer", policy="Norm", seed=3).scaled(0.02)
    sliced = dataclasses.replace(config, checkpoint_every=900,
                                 checkpoint_dir=str(out))
    result = json.dumps(run_result_to_dict(System(sliced).run()),
                        sort_keys=True)
    assert result == _straight_json(config)
    names = sorted(path.name for path in out.iterdir())
    assert names, "no snapshots written"
    assert all(name.startswith("checkpoint-") and name.endswith(".ckpt")
               for name in names)
    # Each snapshot must itself be loadable and resumable to the same end.
    resumed = restore_system(out / names[-1]).finish_run()
    assert json.dumps(run_result_to_dict(resumed),
                      sort_keys=True) == result


def test_pause_without_dir_is_invisible(tmp_path: Path) -> None:
    """checkpoint_every alone pauses and continues; nothing is written
    and the result is unchanged."""
    config = SimConfig(workload="hmmer", policy="Norm", seed=4).scaled(0.02)
    sliced = dataclasses.replace(config, checkpoint_every=500)
    assert json.dumps(run_result_to_dict(System(sliced).run()),
                      sort_keys=True) == _straight_json(config)


# ---------------------------------------------------------------------------
# Property tests: arbitrary boundaries and round-trip idempotence.
# ---------------------------------------------------------------------------

_PROP_CONFIG = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                         seed=13).scaled(0.02)
_PROP_STRAIGHT: dict = {}


def _prop_straight_json() -> str:
    if "json" not in _PROP_STRAIGHT:
        _PROP_STRAIGHT["json"] = _straight_json(_PROP_CONFIG)
    return _PROP_STRAIGHT["json"]


@settings(max_examples=8)
@given(every=st.integers(min_value=150, max_value=4000))
def test_checkpoint_at_arbitrary_boundary(tmp_path_factory, every: int
                                          ) -> None:
    """Wherever the pause lands - warmup, measurement, right before the
    end - the sliced run matches the straight one."""
    tmp = tmp_path_factory.mktemp("boundary")
    assert _sliced_json(_PROP_CONFIG, every, tmp) == _prop_straight_json()


@settings(max_examples=6)
@given(every=st.integers(min_value=200, max_value=2500))
def test_double_round_trip_idempotent(tmp_path_factory, every: int) -> None:
    """restore(snapshot) must re-capture to the identical bytes: the
    rebuilt callback closures and identity tables are shape-exact.

    _PROP_CONFIG measures ~2,400 accesses, so the largest cadences end
    the run without pausing and leave nothing to snapshot; those draws
    are discarded (the boundary test above covers them)."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    system = System(dataclasses.replace(_PROP_CONFIG,
                                        checkpoint_every=every))
    system.start_run()
    assume(system.continue_run() is None)
    path = save_snapshot(system, tmp / "first.ckpt")
    first = path.read_bytes()
    assert snapshot_bytes(restore_system(path)) == first


@settings(max_examples=20)
@given(st.builds(
    SimConfig,
    workload=st.sampled_from(["hmmer", "lbm", "zeusmp", "gups"]),
    policy=st.sampled_from(["Norm", "Slow+SC", "BE-Mellow+SC", "E-Norm"]),
    seed=st.integers(min_value=1, max_value=10_000),
    slow_factor=st.sampled_from([2.0, 3.0]),
    num_banks=st.sampled_from([4, 8]),
    checkpoint_every=st.one_of(st.none(),
                               st.integers(min_value=1, max_value=10**6)),
    faults=st.one_of(st.none(), st.builds(
        FaultConfig,
        wear_acceleration=st.sampled_from([1e6, 5e6]),
        spare_lines_per_bank=st.integers(min_value=0, max_value=8),
        max_write_retries=st.integers(min_value=0, max_value=2),
    )),
))
def test_config_codec_round_trip(config: SimConfig) -> None:
    """config -> dict -> JSON -> dict -> config is the identity."""
    data = json.loads(json.dumps(config_to_dict(config), sort_keys=True))
    assert config_from_dict(data) == config


# ---------------------------------------------------------------------------
# Corruption: damaged snapshots fail loudly with a structured error.
# ---------------------------------------------------------------------------


def _one_snapshot(tmp_path: Path) -> Path:
    config = SimConfig(workload="hmmer", policy="Norm", seed=3,
                       checkpoint_every=900).scaled(0.02)
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    return save_snapshot(system, tmp_path / "good.ckpt")


def test_corrupt_truncated(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    raw = path.read_bytes()
    for cut in (0, 1, len(raw) // 2, len(raw) - 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.path == path
        assert excinfo.value.reason


def test_corrupt_bit_flip(tmp_path: Path) -> None:
    """A single flipped bit anywhere in the body is caught (digest,
    base64, zlib, or JSON layer - whichever trips first)."""
    path = _one_snapshot(tmp_path)
    raw = bytearray(path.read_bytes())
    body_at = raw.index(b'"body"') + 10   # inside the base64 payload
    for offset in (body_at, body_at + len(raw) // 3, len(raw) - 20):
        flipped = bytearray(raw)
        flipped[offset] ^= 0x04
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)


def test_corrupt_garbage_and_schema(tmp_path: Path) -> None:
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01 not json")
    with pytest.raises(CheckpointCorruptionError, match="envelope"):
        load_snapshot(path)
    path.write_text(json.dumps({"schema": 999, "sha256": "0" * 64,
                                "body": ""}))
    with pytest.raises(CheckpointCorruptionError, match="schema"):
        load_snapshot(path)
    path.write_text(json.dumps({"schema": 1}))
    with pytest.raises(CheckpointCorruptionError, match="missing keys"):
        load_snapshot(path)


def test_corrupt_digest_mismatch(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    envelope = json.loads(path.read_text())
    envelope["sha256"] = "0" * 64
    path.write_text(json.dumps(envelope))
    with pytest.raises(CheckpointCorruptionError, match="digest mismatch"):
        load_snapshot(path)


# ---------------------------------------------------------------------------
# State schema 2: the columnar LLC section.
# ---------------------------------------------------------------------------


def _line_rows(system: System) -> list:
    return [[(line.tag, line.dirty, line.eager_cleaned, line.last_touch)
             for line in lines] for lines in system.llc.cache.sets]


@pytest.mark.parametrize("fastpath", [True, False])
def test_llc_columns_round_trip(monkeypatch: pytest.MonkeyPatch,
                                fastpath: bool) -> None:
    """Per-set lengths plus flat set-major, MRU-first columns rebuild
    every line - dirty, eager-cleaned, partially filled and empty sets
    alike - and, on the fast path, the tag mirrors the hit scan reads."""
    if fastpath:
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
    else:
        monkeypatch.setenv(FASTPATH_ENV, "1")
    config = SimConfig(workload="mcf", policy="Norm", seed=3,
                       llc_size_bytes=256 * 1024, functional_warmup_max=2000)
    source = System(config)
    source._functional_warmup()
    lru = source.llc.cache
    cleaned = [lru.block_of(index, lines[-1].tag)
               for index, lines in enumerate(lru.sets) if lines][::3]
    assert any([lru.mark_clean(block, eager=True) for block in cleaned])
    rows = _line_rows(source)
    lengths = [len(set_rows) for set_rows in rows]
    assert 0 in lengths and any(0 < n < lru.assoc for n in lengths)
    flat = [row for set_rows in rows for row in set_rows]
    assert any(row[1] for row in flat) and any(row[2] for row in flat)

    state = json.loads(json.dumps(_capture_llc(source)))
    assert state["lengths"] == lengths
    assert state["tags"] == [row[0] for row in flat]
    assert state["dirty"] == [row[1] for row in flat]
    assert state["eager_cleaned"] == [row[2] for row in flat]
    assert state["last_touch"] == [row[3] for row in flat]

    restored = System(config)
    _restore_llc(restored, state)
    assert _line_rows(restored) == rows
    if fastpath:
        cache = restored.llc.cache
        for index, lines in enumerate(cache.sets):
            tags = [line.tag for line in lines]
            assert cache._tag_sets[index] == tags
            assert cache._tag_members[index] == set(tags)
    assert _capture_llc(restored) == _capture_llc(source)


def test_llc_set_count_mismatch_rejected() -> None:
    config = SimConfig(workload="lbm", policy="Norm", seed=3,
                       llc_size_bytes=64 * 1024, functional_warmup_max=300)
    source = System(config)
    source._functional_warmup()
    encoded = capture_warm_state(source)
    other = System(dataclasses.replace(config, llc_size_bytes=128 * 1024))
    with pytest.raises(CheckpointError, match="LLC geometry"):
        restore_warm_state(other, encoded)


def _downgrade_to_schema_1(path: Path) -> None:
    """Rewrite a snapshot as a well-formed body carrying state schema 1."""
    config, state = load_snapshot(path)
    state["state_schema"] = 1
    path.write_bytes(_encode_snapshot(config, state))


def test_state_schema_1_refused(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    _downgrade_to_schema_1(path)
    with pytest.raises(CheckpointError) as excinfo:
        restore_system(path)
    assert STATE_SCHEMA_VERSION == 2
    assert "schema 1" in str(excinfo.value)
    assert "schema 2" in str(excinfo.value)


def test_sweep_sliced_resimulates_schema_1_snapshot(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path,
        caplog: pytest.LogCaptureFixture) -> None:
    """A snapshot from the old layout is not fatal to a sliced sweep: the
    slice warns and re-simulates, bit-identical to a straight run."""
    save = repro.checkpoint.save_snapshot

    def save_as_schema_1(system: System, path: str) -> Path:
        target = save(system, path)
        _downgrade_to_schema_1(target)
        return target

    monkeypatch.setattr(repro.checkpoint, "save_snapshot", save_as_schema_1)
    config = SimConfig(workload="hmmer", policy="Norm", seed=3,
                       checkpoint_every=900).scaled(0.02)
    with caplog.at_level("WARNING", logger="repro.experiments.runner"):
        [result] = Runner(store=FileStore(tmp_path / "store")).sweep_sliced(
            [config], jobs=1, apply_env_scale=False,
            checkpoint_dir=tmp_path / "slices")
    assert any("re-simulating" in record.message
               and "state schema 1" in record.message
               for record in caplog.records)
    assert (json.dumps(run_result_to_dict(result), sort_keys=True)
            == _straight_json(config))


def test_missing_snapshot_is_not_corruption(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        load_snapshot(tmp_path / "never-written.ckpt")


def test_mix_workload_not_checkpointable() -> None:
    """Generator-backed workload mixes cannot be captured; the refusal
    is structured and immediate, not a crash mid-save."""
    system = System(SimConfig(workload="mix_write_heavy", policy="Norm"))
    with pytest.raises(CheckpointUnsupportedError, match="mix"):
        capture_state(system)


def test_checkpoint_every_validated() -> None:
    with pytest.raises(ValueError, match="checkpoint_every"):
        SimConfig(workload="hmmer", checkpoint_every=0)


# ---------------------------------------------------------------------------
# Cache-key discipline: checkpoint knobs never enter the cache key.
# ---------------------------------------------------------------------------


def test_checkpoint_fields_not_in_cache_key(tmp_path: Path) -> None:
    base = SimConfig(workload="lbm", policy="Norm")
    sliced = dataclasses.replace(base, checkpoint_every=5000,
                                 checkpoint_dir=str(tmp_path))
    assert sliced.cache_key() == base.cache_key()
    assert sliced.cache_digest() == base.cache_digest()


def test_checkpoint_fields_registered_as_excluded() -> None:
    assert "checkpoint_every" in CACHE_KEY_EXCLUDED
    assert "checkpoint_dir" in CACHE_KEY_EXCLUDED


def test_cache_digests_pinned() -> None:
    """Adding the checkpoint fields must not have moved any existing
    cache digest; these literals predate the feature."""
    assert (SimConfig(workload="lbm", policy="Norm").cache_digest()
            == "244de89cfa2ec43abc490663")
    faulty = SimConfig(workload="zeusmp", policy="BE-Mellow+SC", seed=42,
                       faults=FaultConfig(wear_acceleration=5e6,
                                          spare_lines_per_bank=8,
                                          max_write_retries=1))
    assert faulty.cache_digest() == "33f4ef3c9c68704638415ff4"
