"""On-disk result cache behind the orchestrator's ``--resume`` flag.

One JSON file per completed cell, named by the cell's config hash (which
covers every config field including the seed).  Entries are written
atomically (tmp file + rename) so a crashed or killed sweep never leaves a
torn entry behind; anything unreadable — truncated JSON, a schema from an
older layout, a hand-edited file — is treated as a miss and quarantined so
the cell simply re-runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["ResultCache", "CACHE_SCHEMA"]

#: Bump when the cached record layout changes; older entries become misses.
CACHE_SCHEMA = "repro.cell/1"

#: ``cache_key`` is the filename key: the config hash, kept once more as
#: ``config_hash`` for provenance when inspecting entries by hand.
_REQUIRED_KEYS = ("schema", "cache_key", "config_hash", "seed", "result")


class ResultCache:
    """A directory of per-cell result records keyed by config hash."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or None on miss/corruption.

        A corrupted entry is renamed to ``<key>.json.corrupt`` (best effort)
        rather than deleted, so a surprising cache state stays inspectable.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path)
            return None
        if not isinstance(record, dict) or any(
            required not in record for required in _REQUIRED_KEYS
        ):
            self._quarantine(path)
            return None
        if record["schema"] != CACHE_SCHEMA or record["cache_key"] != key:
            self._quarantine(path)
            return None
        return record

    def store(self, key: str, record: Dict[str, Any]) -> Path:
        """Atomically persist ``record`` under ``key``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @staticmethod
    def _quarantine(path: Path) -> None:
        try:
            path.replace(path.with_suffix(".json.corrupt"))
        except OSError:
            pass
