"""Golden corpus: simulator behaviour is pinned by stored digests.

Every case in ``tests/golden/cases.py`` is run and its result digest
(and, for telemetry cases, every bundle file's digest) must equal the
entry committed in ``tests/golden/corpus.json``.  A change to any layer
- trace generation, the LLC, the controller's Figure-9 speed choice,
timing, wear, faults, telemetry, checkpoints - that moves one bit of a
result fails here.  If the change is intended, regenerate the corpus
with ``tests/golden/regenerate.py`` in the same change and record the
reason in CHANGES.md.
"""
from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis.export import run_result_to_dict
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from tests.golden.cases import (CASE_NAMES, FAULT_WORKLOADS, SLICED_CONFIG,
                                SLICED_NAME, Entry, load_corpus,
                                result_digest, run_case)

CORPUS = load_corpus()
_RUNS: Dict[str, Tuple[Entry, RunResult]] = {}


def _run(name: str) -> Tuple[Entry, RunResult]:
    """Memoised, so the coverage checks below reuse the pinned runs."""
    if name not in _RUNS:
        _RUNS[name] = run_case(name)
    return _RUNS[name]


def test_corpus_names_every_case() -> None:
    assert sorted(CORPUS) == sorted(CASE_NAMES)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_golden_digest(name: str) -> None:
    entry, _ = _run(name)
    assert entry == CORPUS[name], (
        f"{name}: digest moved; if intended, regenerate with "
        f"tests/golden/regenerate.py and record why in CHANGES.md")


def test_fault_matrix_reaches_every_verify_outcome() -> None:
    """The fault rows only pin the write-verify ladder if they drive it:
    retries, ECC corrections, retirements and at least one
    uncorrectable (fatal) run must all occur."""
    results = [run_result_to_dict(_run(name)[1]) for name in CASE_NAMES
               if name.split("/")[0] == "faults"]
    assert len(results) == 4 * len(FAULT_WORKLOADS)
    assert sum(r["fault_write_retries"] for r in results) > 0
    assert sum(r["ecc_corrected_writes"] for r in results) > 0
    assert sum(r["lines_retired"] for r in results) > 0
    assert any(r["uncorrectable"] for r in results)


def test_sliced_case_pauses_and_matches_straight_run() -> None:
    """The checkpoint-sliced row really slices, and resuming from
    snapshots lands on the straight run's digest."""
    entry, result = _run(SLICED_NAME)
    assert entry["pauses"] >= 2
    assert result.fault_write_retries > 0
    assert result_digest(run_simulation(SLICED_CONFIG)) == entry["result"]
