"""Content-addressed storage for results and telemetry.

Every cached simulation result and telemetry bundle lives in one
:class:`FileStore` directory, keyed by the config digest:
``<digest>.json`` holds the codec entry (:mod:`repro.store.codec`) and
``<digest>.telemetry/`` the bundle.  ``REPRO_NO_CACHE=1`` gives the
runner a private temporary directory instead.  See ``docs/storage.md``.
"""

from repro.store.codec import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    atomic_write_bytes,
    atomic_write_text,
    entry_from_json,
    entry_to_json,
    result_from_dict,
    result_to_dict,
)
from repro.store.file import FileStore
from repro.store.maintenance import cache_clear, cache_stats, cache_verify

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryError",
    "FileStore",
    "atomic_write_bytes",
    "atomic_write_text",
    "cache_clear",
    "cache_stats",
    "cache_verify",
    "entry_from_json",
    "entry_to_json",
    "result_from_dict",
    "result_to_dict",
]
