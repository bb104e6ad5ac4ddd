"""The result store: one directory of content-addressed files.

Layout (the historic ``.repro_cache`` layout, so every existing cache
directory reads back without migration)::

    <root>/<digest>.json        one cache entry (codec JSON, utf-8)
    <root>/<digest>.telemetry/  one telemetry bundle (manifest last)
    <root>/*.tmp                stray atomic-write temps (crash debris)

Writes are write-to-temp + ``os.replace`` in the target directory, so
concurrent writers of the same digest last-write-win with either
complete payload and readers never see a torn entry.  The simulator
writes telemetry bundles straight into :meth:`FileStore.bundle_path`,
manifest last, so a bundle whose manifest is present is complete.
"""

from __future__ import annotations

import os
import shutil
import threading
from pathlib import Path
from typing import Optional

from repro.store.codec import atomic_write_bytes

ENTRY_SUFFIX = ".json"
BUNDLE_SUFFIX = ".telemetry"


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR``, else ``.repro_cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


class FileStore:
    """Content-addressed store over one flat directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._lock = threading.RLock()

    def entry_path(self, digest: str) -> Path:
        return self.root / f"{digest}{ENTRY_SUFFIX}"

    def bundle_path(self, digest: str) -> Path:
        return self.root / f"{digest}{BUNDLE_SUFFIX}"

    def get(self, digest: str) -> Optional[bytes]:
        try:
            return self.entry_path(digest).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, digest: str, data: bytes) -> None:
        with self._lock:
            atomic_write_bytes(self.entry_path(digest), data)

    def delete(self, digest: str) -> bool:
        with self._lock:
            try:
                self.entry_path(digest).unlink()
            except OSError:
                return False
            return True

    def clear(self) -> int:
        """Delete every entry, bundle and ``*.tmp`` file; returns the
        number of objects removed (a bundle counts as one)."""
        removed = 0
        with self._lock:
            if not self.root.is_dir():
                return 0
            for path in self.root.iterdir():
                try:
                    if path.name.endswith(BUNDLE_SUFFIX) and path.is_dir():
                        shutil.rmtree(path)
                    elif path.name.endswith((ENTRY_SUFFIX, ".tmp")):
                        path.unlink()
                    else:
                        continue
                except OSError:
                    continue
                removed += 1
        return removed
