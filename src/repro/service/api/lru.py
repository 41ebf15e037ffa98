"""In-memory LRU front-cache for served bound answers.

Sits in front of the content-keyed on-disk
:class:`~repro.experiments.cache.CellCache`.  The service keys it by
the validated :class:`~repro.service.api.model.BoundQuery` itself (a
frozen dataclass whose fields are already canonical, so equal queries
are equal keys) and stores ``(key, payload)`` pairs, where ``key`` is
the sha256 :func:`~repro.experiments.sweep.cell_key` hash that keys the
disk tier and the response.  A hit therefore costs one field-tuple hash,
not a canonical-JSON hash; the hash runs only on a miss.  The LRU lives
for one process, so it needs no solver fingerprint, and it is a pure
acceleration layer: evicting an entry can cost a disk read, never a
wrong answer.

The cache is size-bounded (entry count) and optionally TTL-bounded.
Expiry uses an injectable monotonic clock so tests can expire entries
without sleeping.  All operations take a single lock; payloads are
returned as-is (callers must not mutate them — the service treats
payloads as frozen once computed).

Hits, misses, and evictions are counted on an injectable
:class:`~repro.obs.MetricsRegistry` (``service.lru_hit`` /
``service.lru_miss`` / ``service.lru_evict``), so ``/v1/metrics``
exposes the hit ratio directly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs import MetricsRegistry

__all__ = ["LRUCache"]


class LRUCache:
    """A thread-safe, size- and TTL-bounded LRU mapping key -> payload."""

    def __init__(
        self,
        max_entries: int = 4096,
        *,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._registry = registry
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()

    def _count(self, name: str) -> None:
        if self._registry is not None:
            self._registry.add(name)

    def get(self, key: Hashable) -> Any | None:
        """The cached payload, or ``None`` on miss/expiry (which evicts)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("service.lru_miss")
                return None
            stored_at, payload = entry
            if (
                self.ttl_s is not None
                and self._clock() - stored_at > self.ttl_s
            ):
                del self._entries[key]
                self._count("service.lru_evict")
                self._count("service.lru_miss")
                return None
            self._entries.move_to_end(key)
            self._count("service.lru_hit")
            return payload

    def put(self, key: Hashable, payload: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (self._clock(), payload)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._count("service.lru_evict")

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if present; returns whether it was."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._count("service.lru_evict")
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # membership without touching recency or counters (diagnostics)
        with self._lock:
            return key in self._entries
