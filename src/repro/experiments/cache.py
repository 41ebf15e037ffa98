"""Content-keyed on-disk cache for sweep cells.

Each cell result is one JSON file under the cache root (default
``.repro_cache/``), named by a stable SHA-256 of the cell's function,
its parameters, and the sweep-level settings — see
:func:`repro.experiments.sweep.cell_key`.  Changing any of those inputs
changes the key, so a re-run after editing one series only recomputes
the changed cells; everything else is a hit.

The cache is strictly best-effort: a missing, unreadable, corrupted, or
structurally wrong file is treated as a miss (never an error; corrupt
entries are counted separately under ``cache.corrupt``).  Each write
goes through its own uniquely named temp file in the entry's directory
and then ``os.replace``, so neither a crashed run nor a concurrent
writer of the same key can leave a torn entry behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro import obs

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


class CellCache:
    """A directory of ``<key>.json`` cell payloads."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """File backing ``key`` (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or ``None`` on any miss.

        Corrupted JSON and payloads that are not a ``{"rows": [...]}``
        mapping count as ``cache.corrupt``; a missing or unreadable
        file counts as a plain miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
        except OSError:
            obs.add("cache.misses")
            return None
        except ValueError:  # undecodable bytes or malformed JSON
            payload = None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("rows"), list
        ):
            obs.add("cache.corrupt")
            return None
        obs.add("cache.hits")
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomic, best-effort)."""
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f"{key}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
            obs.add("cache.puts")
        except OSError:
            pass  # a read-only or full disk must not fail the sweep

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"CellCache({str(self.root)!r})"
