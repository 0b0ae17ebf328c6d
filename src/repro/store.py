"""Content-addressed on-disk store behind the program and tuning caches.

Generated programs (:mod:`repro.codegen.progcache`) and winning
transformation histories (:mod:`repro.tuning.cache`) are both keyed by
graph content and kept as one JSON file per entry.  :class:`ContentStore`
owns those files: the envelope (``<key>.json`` holds an object whose
``key`` is the filename stem and whose ``schema`` is
:data:`SCHEMA_VERSION`), atomic writes through a ``*.tmp.<pid>`` file
and ``os.replace``, validated reads that delete corrupt entries, mtime
refresh on a hit, mtime-LRU eviction under the best-effort directory
:class:`~repro.filelock.FileLock`, and :meth:`ContentStore.fsck`.

The store keeps no counters: it reports ``corrupt`` and ``evict``
through ``on_event``, and each cache counts them and publishes its own
telemetry (``cache/progcache``, ``cache/tuning``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.chaos import faultpoint
from repro.filelock import FileLock

#: Entry file layout version; mismatched files are dropped as misses.
SCHEMA_VERSION = 1

#: Quarantine subdirectory name (skipped by subsequent sweeps).
QUARANTINE = ".quarantine"


def quarantine(path: str, qdir: str) -> bool:
    """Move ``path`` into ``qdir`` under a collision-free name."""
    try:
        os.makedirs(qdir, exist_ok=True)
        base = os.path.basename(path.rstrip(os.sep))
        target = os.path.join(qdir, base)
        n = 0
        while os.path.exists(target):
            n += 1
            target = os.path.join(qdir, f"{base}.{n}")
        os.replace(path, target)
        return True
    except OSError:
        return False


def _load(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or None if there is none."""
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


class ContentStore:
    """One directory of content-addressed JSON entries.

    ``name`` prefixes the fault points (``<name>.disk_read``,
    ``<name>.disk_write``; a ``corrupt`` rule on the write lands a
    genuinely torn entry).  ``on_event`` receives ``"corrupt"`` for each
    entry a read dropped and ``"evict"`` for each entry evicted.
    """

    def __init__(
        self,
        directory: str,
        name: str = "store",
        max_entries: int = 256,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        self.directory = directory
        self.name = name
        self.max_entries = max(1, max_entries)
        self.on_event = on_event or (lambda event: None)
        os.makedirs(directory, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Serialize deletions against other processes sharing this
        directory.  Best-effort: without the lock the store runs
        lock-free rather than fail a compile or a tune."""
        lock = FileLock(os.path.join(self.directory, ".lock"), timeout=5.0)
        held = lock.acquire(best_effort=True)
        try:
            yield
        finally:
            if held:
                lock.release()

    # ------------------------------------------------------------ get/put
    def get(self, key: str,
            parse: Optional[Callable[[Dict[str, Any]], Any]] = None) -> Any:
        """The record under ``key`` passed through ``parse``, or None on
        a miss.  Unreadable entries, envelope mismatches, and payloads
        ``parse`` rejects with ``ValueError`` are deleted as corrupt."""
        path = self.path(key)
        try:
            with open(path) as f:
                raw = f.read()
            raw = faultpoint(f"{self.name}.disk_read", payload=raw)
            record = json.loads(raw)
            if (
                not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("key") != key
            ):
                raise ValueError(f"malformed {self.name} entry")
            value = record if parse is None else parse(record)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.on_event("corrupt")
            with self._locked():
                try:
                    os.remove(path)
                except OSError:
                    pass
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return value

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Write ``record`` under ``key`` atomically, then evict past
        ``max_entries``.  False when the write failed (best-effort)."""
        record = dict(record, schema=SCHEMA_VERSION, key=key)
        path = self.path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            data = json.dumps(record, indent=1, sort_keys=True, default=str)
            data = faultpoint(f"{self.name}.disk_write", payload=data)
            with open(tmp, "w") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self._evict()
        return True

    def remove_where(self, predicate: Callable[[Dict[str, Any]], bool]) -> int:
        """Delete the entries whose record satisfies ``predicate``;
        returns how many.  Unreadable entries are left to read or fsck."""
        removed = 0
        with self._locked():
            for _, path in self._scan():
                record = _load(path)
                if record is None or not predicate(record):
                    continue
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    # ----------------------------------------------------------- eviction
    def _scan(self) -> List[Tuple[float, str]]:
        """``(mtime, path)`` of every entry file."""
        out = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                out.append((os.path.getmtime(path), path))
            except OSError:
                continue
        return out

    def _evict(self) -> None:
        with self._locked():
            entries = self._scan()
            if len(entries) <= self.max_entries:
                return
            entries.sort()  # oldest mtime first
            for _, path in entries[: len(entries) - self.max_entries]:
                try:
                    os.remove(path)
                except OSError:
                    continue
                self.on_event("evict")

    # --------------------------------------------------------------- fsck
    def fsck(self) -> Dict[str, int]:
        """Move torn entries (not a JSON object whose ``key`` is the
        filename) to ``.quarantine/``, keeping the evidence, and remove
        orphaned ``*.tmp.<pid>`` files.  A schema mismatch is stale, not
        torn: the next read drops it."""
        report = {"scanned": 0, "quarantined": 0, "tmp_removed": 0}
        try:
            files = [e for e in os.scandir(self.directory) if not e.is_dir()]
        except OSError:
            return report
        qdir = os.path.join(self.directory, QUARANTINE)
        for entry in files:
            if ".tmp." in entry.name:
                try:
                    os.remove(entry.path)
                    report["tmp_removed"] += 1
                except OSError:
                    pass
                continue
            if not entry.name.endswith(".json"):
                continue
            report["scanned"] += 1
            key = entry.name[: -len(".json")]
            sound = (_load(entry.path) or {}).get("key") == key
            if not sound and quarantine(entry.path, qdir):
                report["quarantined"] += 1
        return report
