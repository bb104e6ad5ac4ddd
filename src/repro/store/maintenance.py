"""Cache maintenance: stats, verify, clear.

These back the ``repro cache`` CLI verbs.  Each walks one cache
directory (``cache_dir``, else ``REPRO_CACHE_DIR``, else
``.repro_cache``).  ``REPRO_NO_CACHE`` is deliberately ignored -
inspecting a cache must work even where caching is disabled for runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.sim.config import digest_for_key
from repro.store.codec import CACHE_SCHEMA_VERSION, CacheEntryError, entry_from_json
from repro.store.file import (BUNDLE_SUFFIX, ENTRY_SUFFIX, FileStore,
                              default_cache_dir)


def _root(cache_dir: Optional[Path | str]) -> Path:
    return Path(cache_dir) if cache_dir is not None else default_cache_dir()


def _entry_files(root: Path) -> List[Path]:
    """Every entry file, sorted so reports are stable."""
    if not root.is_dir():
        return []
    return sorted(path for path in root.glob(f"*{ENTRY_SUFFIX}")
                  if path.is_file())


def cache_stats(cache_dir: Optional[Path | str] = None) -> Dict[str, Any]:
    """Entry count / footprint / health summary of one cache directory."""
    root = _root(cache_dir)
    stats: Dict[str, Any] = {
        "cache_dir": str(root),
        "entries": 0,
        "total_bytes": 0,
        "valid": 0,
        "invalid": 0,
        "schema_versions": {},
        "telemetry_bundles": 0,
    }
    if root.is_dir():
        stats["telemetry_bundles"] = sum(
            1 for path in root.glob(f"*{BUNDLE_SUFFIX}") if path.is_dir())
    for path in _entry_files(root):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        stats["entries"] += 1
        stats["total_bytes"] += len(data)
        try:
            schema = json.loads(data).get("schema", "unversioned")
        except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            schema = "corrupt"
        key = str(schema)
        stats["schema_versions"][key] = stats["schema_versions"].get(key, 0) + 1
        if schema == CACHE_SCHEMA_VERSION:
            stats["valid"] += 1
        else:
            stats["invalid"] += 1
    return stats


def cache_verify(cache_dir: Optional[Path | str] = None) -> Dict[str, Any]:
    """Deep-check every entry: parseable, current schema, digest matches.

    A digest mismatch means the entry was renamed/re-keyed or the key
    inside drifted; such entries would never be read back and only waste
    space.
    """
    root = _root(cache_dir)
    report: Dict[str, Any] = {"cache_dir": str(root), "ok": 0, "bad": []}
    for path in _entry_files(root):
        try:
            text = path.read_bytes().decode("utf-8")
            entry_from_json(text)
            payload = json.loads(text)
            if "key" not in payload:
                raise CacheEntryError("entry has no key")
            expected = digest_for_key(payload["key"])
            if path.name != f"{expected}{ENTRY_SUFFIX}":
                raise CacheEntryError(
                    f"digest mismatch (expected {expected})")
        except (CacheEntryError, OSError, UnicodeDecodeError) as error:
            report["bad"].append({"path": str(path), "error": str(error)})
        else:
            report["ok"] += 1
    return report


def cache_clear(cache_dir: Optional[Path | str] = None) -> int:
    """Delete all entries, bundles and ``*.tmp`` debris; returns the count
    of objects removed (a bundle counts as one)."""
    return FileStore(_root(cache_dir)).clear()
