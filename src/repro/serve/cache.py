"""Content-addressed schedule cache: bounded LRU over an append-only JSONL
store.

Entries are keyed by the request's **canonical digest**
(:func:`repro.serve.canonical.canonical_form`) and hold the schedule in
*canonical ids*, so every request isomorphic to a cached one — same kernel,
different SSA names — shares a single entry and translates the stored
schedule through its own canonical labeling.

Persistence is an append-only JSONL file: one ``{"digest": ..., "entry":
...}`` line per insertion, flushed immediately.  Loading replays the file
last-wins and tolerates a torn final line (a daemon killed mid-append must
not poison its own restart).  The file is an upper bound on the in-memory
view — the LRU stays within ``capacity`` and warms back up to capacity on
restart.

The store is **size-capped** rather than unbounded: appends never rewrite
the file (a torn rewrite must not lose the cache), but once dead lines —
superseded duplicates plus entries evicted beyond ``capacity`` — exceed
``compact_ratio`` times the resident set, :meth:`compact` rewrites the
store atomically (tmp file + rename) to exactly the live entries.
Compaction also runs at load time when the replayed file carries that much
garbage, so a long-lived daemon's store stays O(capacity) instead of
O(lifetime inserts).

Instrumentation: ``serve.cache.hit`` / ``serve.cache.miss`` /
``serve.cache.evict`` are counted on both the active
:mod:`repro.obs.recorder` (so per-request spool records carry them) and an
optional :class:`~repro.obs.metrics.MetricsRegistry` (so ``GET /metrics``
exposes running totals).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

from ..obs import recorder as obs
from ..obs.metrics import MetricsRegistry
from ..obs.pipeline import append_jsonl, read_jsonl


class ScheduleCache:
    """Bounded LRU of canonical-form schedule entries, optionally backed by
    an on-disk JSONL store."""

    def __init__(
        self,
        capacity: int = 1024,
        path: str | os.PathLike | None = None,
        registry: MetricsRegistry | None = None,
        compact_ratio: float = 4.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if compact_ratio < 1.0:
            raise ValueError(
                f"compact_ratio must be >= 1, got {compact_ratio}"
            )
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.registry = registry
        self.compact_ratio = compact_ratio
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compactions = 0
        #: Lines currently in the on-disk store (live + dead); the basis
        #: of the compaction trigger.
        self.store_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- instrumentation -----------------------------------------------------

    def _count(self, name: str) -> None:
        obs.count(name)
        if self.registry is not None:
            self.registry.counter(name).inc()

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        """Replay the JSONL store: last write per digest wins, bad or torn
        lines are skipped, only the most recent ``capacity`` entries stay
        resident.  A store carrying more than ``compact_ratio`` times the
        resident set in dead lines is compacted on the spot."""
        replay: "OrderedDict[str, dict]" = OrderedDict()
        lines = 0
        for rec in read_jsonl(self.path):
            lines += 1
            if rec is None:
                continue  # torn/corrupt line: a dead line, keep replaying
            digest, entry = rec.get("digest"), rec.get("entry")
            if not isinstance(digest, str) or not isinstance(entry, dict):
                continue
            replay.pop(digest, None)
            replay[digest] = entry
        for digest, entry in list(replay.items())[-self.capacity :]:
            self._entries[digest] = entry
        self.store_lines = lines
        if self._compaction_due():
            self.compact()

    def _append(self, digest: str, entry: dict) -> None:
        if self.path is None:
            return
        append_jsonl(self.path, {"digest": digest, "entry": entry})
        self.store_lines += 1
        if self._compaction_due():
            self.compact()

    def _compaction_due(self) -> bool:
        """True once dead store lines exceed ``compact_ratio`` x the live
        set — the store-size cap: the file never holds more than
        ``(1 + compact_ratio) * max(live, 1)`` lines for long."""
        if self.path is None:
            return False
        live = max(len(self._entries), 1)
        return self.store_lines - len(self._entries) > self.compact_ratio * live

    def compact(self) -> int:
        """Rewrite the store to exactly the resident entries (atomic:
        tmp file + rename, so a crash mid-compact leaves the old store).
        Returns the number of dead lines dropped."""
        if self.path is None:
            return 0
        dropped = self.store_lines - len(self._entries)
        tmp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w") as fh:
            for digest, entry in self._entries.items():
                fh.write(
                    json.dumps(
                        {"digest": digest, "entry": entry}, sort_keys=True
                    )
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        self.store_lines = len(self._entries)
        self.compactions += 1
        self._count("serve.cache.compact")
        return max(dropped, 0)

    # -- lookup / insert -----------------------------------------------------

    def get(self, digest: str) -> dict | None:
        """The entry for ``digest`` (refreshing its LRU position), or None.
        Counts ``serve.cache.hit`` / ``serve.cache.miss``."""
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            self._count("serve.cache.miss")
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        self._count("serve.cache.hit")
        return entry

    def note_hit(self) -> None:
        """Count a hit that was served without a :meth:`get` — e.g. a
        duplicate digest inside one batch, answered from its sibling's
        in-flight computation."""
        self.hits += 1
        self._count("serve.cache.hit")

    def peek(self, digest: str) -> dict | None:
        """Uninstrumented lookup (no counters, no LRU refresh)."""
        return self._entries.get(digest)

    def put(self, digest: str, entry: dict) -> None:
        """Insert (or refresh) an entry, evicting LRU victims beyond
        ``capacity`` and appending to the on-disk store."""
        known = digest in self._entries
        self._entries.pop(digest, None)
        self._entries[digest] = entry
        if not known:
            self._append(digest, entry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("serve.cache.evict")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    @property
    def hit_ratio(self) -> float | None:
        """Lifetime hits / (hits + misses), or None before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
            "store_lines": self.store_lines,
            "compactions": self.compactions,
        }
