"""Deterministic checkpoint/resume for the Mellow Writes simulator.

Snapshots capture the *complete* simulator state at an event boundary -
event queue (with its reserved sequence numbers and the deferred-event
seam), controller/bank/queue state with object identity preserved, LLC
and LRU tags, Start-Gap leveling positions, wear accounting (flushed
before capture), fault-injector per-line endurance state, every RNG
stream, telemetry epoch alignment, and the core clock - so that
snapshot -> restore -> continue is bit-identical to running straight
through.  See ``docs/checkpointing.md`` for the schema and the resume
semantics, and ``tests/test_checkpoint.py`` for the differential
equivalence matrix that pins the contract.
"""

from .codec import (STATE_SCHEMA_VERSION, capture_state, capture_warm_state,
                    restore_state, restore_warm_state)
from .errors import (CheckpointCorruptionError, CheckpointError,
                     CheckpointUnsupportedError)
from .snapshot import (SNAPSHOT_SCHEMA_VERSION, config_from_dict,
                       config_to_dict, default_snapshot_path, load_snapshot,
                       restore_system, save_snapshot, snapshot_bytes)

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "STATE_SCHEMA_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointUnsupportedError",
    "capture_state",
    "capture_warm_state",
    "config_from_dict",
    "config_to_dict",
    "default_snapshot_path",
    "load_snapshot",
    "restore_state",
    "restore_system",
    "restore_warm_state",
    "save_snapshot",
    "snapshot_bytes",
]
