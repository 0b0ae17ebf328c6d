"""Startup integrity sweep (``python -m repro.serve --fsck``).

A crash — real or injected — can leave three kinds of debris behind:

* **torn cache entries** and **orphaned temp files** in the program and
  tuning caches.  Both caches keep their entries in a
  :class:`repro.store.ContentStore`, and :meth:`ContentStore.fsck
  <repro.store.ContentStore.fsck>` repairs one store directory: torn
  entries (not valid JSON, or a recorded key that does not match the
  filename) are *quarantined* into a ``.quarantine/`` sibling rather
  than deleted, so a real incident keeps its evidence, and
  ``*.tmp.<pid>`` staging files whose writer died before the atomic
  rename are removed.  The cache half of this sweep runs it on every
  directory under the cache root;
* **stale crash bundles**: bundle directories missing their
  ``manifest.json`` (the writer died mid-bundle — quarantined), plus
  any overflow beyond the global retention cap (rotated away, oldest
  first).

The daemon runs the sweep in :meth:`SDFGServer.start` before accepting
traffic; the CLI flag runs it standalone and exits 0 when the trees
were already clean, 3 when repairs were made.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, Optional

from repro.runtime.isolation import crash_dir, crash_keep
from repro.store import QUARANTINE, ContentStore, quarantine


def sweep_cache_tree(root: Optional[str]) -> Dict[str, int]:
    """Run the store's fsck on every directory under one cache root
    (per-tenant program caches and tuning caches alike)."""
    report = {"scanned": 0, "quarantined": 0, "tmp_removed": 0}
    if not root or not os.path.isdir(root):
        return report
    for dirpath, dirnames, _ in os.walk(root):
        # Never descend into quarantine: debris there is already handled.
        dirnames[:] = [d for d in dirnames if d != QUARANTINE]
        for field, n in ContentStore(dirpath).fsck().items():
            report[field] += n
    return report


def sweep_crash_tree(root: str, keep: Optional[int] = None) -> Dict[str, int]:
    """Quarantine torn bundles; rotate overflow past the retention cap."""
    keep = crash_keep() if keep is None else max(1, int(keep))
    report = {"scanned": 0, "quarantined": 0, "rotated": 0}
    if not os.path.isdir(root):
        return report
    qdir = os.path.join(root, QUARANTINE)
    bundles = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return report
    for name in names:
        if name == QUARANTINE:
            continue
        path = os.path.join(root, name)
        if not os.path.isdir(path):
            continue
        report["scanned"] += 1
        if not os.path.isfile(os.path.join(path, "manifest.json")):
            if quarantine(path, qdir):
                report["quarantined"] += 1
            continue
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            mtime = 0.0
        bundles.append((mtime, path))
    # Global cap across processes: the per-process rotation in
    # write_crash_bundle bounds steady-state growth; this bounds what a
    # fleet of dead pids left behind.
    bundles.sort()
    for _, path in bundles[: max(0, len(bundles) - keep)]:
        shutil.rmtree(path, ignore_errors=True)
        report["rotated"] += 1
    return report


def fsck_sweep(
    cache_root: Optional[str] = None,
    crash_root: Optional[str] = None,
    keep_bundles: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the full sweep; returns a report with ``clean`` = True when
    nothing needed fixing."""
    cache = sweep_cache_tree(cache_root)
    crash = sweep_crash_tree(crash_root or crash_dir(), keep=keep_bundles)
    repairs = (
        cache["quarantined"] + cache["tmp_removed"]
        + crash["quarantined"] + crash["rotated"]
    )
    return {
        "cache": cache,
        "crash": crash,
        "repairs": repairs,
        "clean": repairs == 0,
    }
