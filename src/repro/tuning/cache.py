"""Persistent content-addressed tuning cache.

A tuning run is expensive (every candidate is compiled and measured, or
simulated); its *result* — the winning transformation history — is a few
hundred bytes.  The cache stores that result on disk keyed by content:

    key = SHA-256( canonical SDFG hash ‖ tuner config key ‖ cost key )

so a hit is only possible when the input graph, the search parameters,
and the cost provider setup are all identical.  On a hit the search is
skipped entirely and the history is replayed through
:func:`repro.transformations.optimizer.replay`.

The entries live in a :class:`repro.store.ContentStore` in the
``tuningcache`` namespace — the same content-addressed store as the
program cache, with its envelope, atomic writes, mtime-LRU eviction
(reads refresh an entry's mtime), and corrupt-entry tolerance
(unreadable or schema-mismatched files count as misses and are deleted
rather than raised).  This module keeps the key, the validation of the
``history`` payload, the hit/miss counters — surfaced as ``cache``
instrumentation events on the recorder the tuner shares — and
:meth:`TuningCache.invalidate`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro.instrumentation import InstrumentationRecorder
from repro.sdfg.serialize import content_hash
from repro.store import SCHEMA_VERSION as CACHE_SCHEMA_VERSION
from repro.store import ContentStore
from repro.telemetry.sink import active_sink


def _valid(entry: Dict[str, Any]) -> Dict[str, Any]:
    if not isinstance(entry.get("history"), list):
        raise ValueError("malformed tuning cache entry")
    return entry


class TuningCache:
    """On-disk LRU cache of winning transformation histories."""

    def __init__(
        self,
        cache_dir: str,
        max_entries: int = 256,
        recorder: Optional[InstrumentationRecorder] = None,
    ):
        self.cache_dir = cache_dir
        self.max_entries = max(1, max_entries)
        self.recorder = recorder
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store = ContentStore(cache_dir, "tuningcache", self.max_entries,
                                   self._count)

    # ---------------------------------------------------------------- keys
    def key(self, sdfg, config_key: str, cost_key: str) -> str:
        """Content address of one tuning problem."""
        h = hashlib.sha256()
        h.update(content_hash(sdfg).encode())
        h.update(b"\x00")
        h.update(config_key.encode())
        h.update(b"\x00")
        h.update(cost_key.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return self._store.path(key)

    # ------------------------------------------------------------- get/put
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up an entry; None on miss.  Corrupt or stale-schema files
        are deleted and counted as misses, never raised."""
        entry = self._store.get(key, _valid)
        self._count("miss" if entry is None else "hit")
        return entry

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Store an entry (atomically via rename) and evict LRU overflow.
        A failed store (disk full, torn directory) loses only the
        shortcut — the tuning result itself is already in hand."""
        if self._store.put(key, entry):
            self._count("store")

    # --------------------------------------------------------- invalidation
    def invalidate(self, sdfg_name: str) -> int:
        """Delete every entry recorded for ``sdfg_name``.

        The drift-retune path (``python -m repro.tune --if-drifted``)
        uses this: a kernel whose measured timings drifted past its
        baseline (W901) must not short-circuit into its stale cached
        history on the next tune.  Cutout entries belong to their
        parent kernel — ``<sdfg_name>_cut_<state>`` names are
        invalidated along with the whole-program entry, so a drifted
        kernel tuned with ``strategy="cutout"`` cannot keep stale
        per-cutout winners either.  Returns how many entries were
        removed.
        """
        cutout_prefix = f"{sdfg_name}_cut_"

        def owned(entry: Dict[str, Any]) -> bool:
            name = str(entry.get("sdfg", ""))
            return name == sdfg_name or name.startswith(cutout_prefix)

        removed = self._store.remove_where(owned)
        for _ in range(removed):
            self._count("invalidate")
        return removed

    # ------------------------------------------------------------ counters
    def _count(self, what: str) -> None:
        if what == "hit":
            self.hits += 1
        elif what == "miss":
            self.misses += 1
        elif what == "evict":
            self.evictions += 1
        if self.recorder is not None:
            self.recorder.event("cache", what, itype="COUNTER")
        sink = active_sink()
        if sink is not None:
            sink.publish("cache", "tuning", fields={"event": what, "n": 1})

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
