"""The content-addressed store behind both caches: envelope checks,
``remove_where``, ``fsck``, and on-disk compatibility with entries
written before the caches shared one store."""

import json
import os
import shutil

import numpy as np

from repro.codegen import compile_sdfg
from repro.codegen.progcache import ProgramCache
from repro.serve.fsck import fsck_sweep
from repro.store import QUARANTINE, SCHEMA_VERSION, ContentStore
from repro.tuning import TuningCache
from repro.workloads import kernels

#: A cache root holding one program-cache entry (``matmul_sdfg``, python
#: backend) and one tuning-cache entry (``matmul_sdfg`` tuned greedily
#: with the analytic cost), both written by the separate ProgramCache /
#: TuningCache disk code that preceded ``repro.store``.  A bump of
#: ``CODEGEN_VERSION`` makes the program entry unreachable by design;
#: regenerate it then.
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "cache_v1")
PROGRAM_KEY = "65f985d18cf209959b7370bb2326bead0acf8e52d76d18a3a5fd792e1b63fad3"
TUNING_KEY = "c116bae42788820629213bc5937bcef1927f7b0e8333893e1bfb90b6e4ad6304"


def _fixture_root(tmp_path):
    root = str(tmp_path / "cache")
    shutil.copytree(FIXTURES, root)
    return root


# ---------------------------------------------------------- compatibility
def test_fsck_leaves_entries_from_the_previous_layout_in_place(tmp_path):
    root = _fixture_root(tmp_path)
    report = fsck_sweep(cache_root=root, crash_root=str(tmp_path / "crashes"))
    assert report["clean"] is True, report
    assert report["cache"]["scanned"] == 2
    assert os.path.exists(os.path.join(root, "progcache", f"{PROGRAM_KEY}.json"))
    assert os.path.exists(os.path.join(root, "tuning", f"{TUNING_KEY}.json"))


def test_program_entry_from_the_previous_layout_is_a_hit(tmp_path):
    root = _fixture_root(tmp_path)
    cache = ProgramCache(cache_dir=os.path.join(root, "progcache"))
    hit = cache.lookup(PROGRAM_KEY)
    assert hit is not None and cache.corrupt == 0
    assert hit[0].sdfg_name == "mm" and hit[0].arg_arrays == ["A", "B", "C"]

    # The same entry serves a real compile, and the program it rebuilds
    # computes the right answer.
    fresh = ProgramCache(cache_dir=os.path.join(root, "progcache"))
    compiled = compile_sdfg(kernels.matmul_sdfg(), cache=fresh)
    assert compiled.cache_hit
    assert fresh.stats()["hits"] == 1 and fresh.stats()["stores"] == 0
    data = kernels.matmul_data(12)
    compiled(**data)
    np.testing.assert_allclose(
        data["C"], kernels.matmul_reference(data), rtol=1e-12)


def test_tuning_entry_from_the_previous_layout_is_a_hit(tmp_path):
    root = _fixture_root(tmp_path)
    cache = TuningCache(os.path.join(root, "tuning"))
    entry = cache.get(TUNING_KEY)
    assert entry is not None
    assert cache.stats() == {"hits": 1, "misses": 0, "evictions": 0}
    assert entry["sdfg"] == "mm"
    assert [h["transformation"] for h in entry["history"]] == [
        "MapReduceFusion", "MapTiling"]


def test_rewritten_entries_keep_the_previous_bytes(tmp_path):
    """Re-storing a fixture's payload through the new store reproduces
    the file the previous code wrote, byte for byte."""
    root = _fixture_root(tmp_path)
    for sub, key in (("progcache", PROGRAM_KEY), ("tuning", TUNING_KEY)):
        with open(os.path.join(FIXTURES, sub, f"{key}.json")) as f:
            before = f.read()
        record = json.loads(before)
        store = ContentStore(os.path.join(root, sub))
        assert store.put(key, {k: v for k, v in record.items()
                               if k not in ("schema", "key")})
        with open(store.path(key)) as f:
            assert f.read() == before


# --------------------------------------------------------------- the store
def test_envelope_and_corrupt_events(tmp_path):
    events = []
    store = ContentStore(str(tmp_path), "test", on_event=events.append)
    assert store.get("a") is None and events == [], "absent is a plain miss"
    assert store.put("a", {"v": 1})
    record = store.get("a")
    assert record == {"v": 1, "key": "a", "schema": SCHEMA_VERSION}

    with open(store.path("b"), "w") as f:
        json.dump({"v": 2, "key": "a", "schema": SCHEMA_VERSION}, f)
    assert store.get("b") is None, "a key that is not the filename"
    assert not os.path.exists(store.path("b"))

    def reject(record):
        raise ValueError("bad payload")

    assert store.get("a", reject) is None
    assert not os.path.exists(store.path("a"))
    assert events == ["corrupt", "corrupt"]


def test_remove_where_skips_unreadable_entries(tmp_path):
    store = ContentStore(str(tmp_path))
    store.put("a", {"sdfg": "x"})
    store.put("b", {"sdfg": "y"})
    with open(store.path("c"), "w") as f:
        f.write("{torn")
    assert store.remove_where(lambda r: r.get("sdfg") == "x") == 1
    assert not os.path.exists(store.path("a"))
    assert os.path.exists(store.path("b")) and os.path.exists(store.path("c"))


def test_fsck_quarantines_torn_entries_and_removes_staging_files(tmp_path):
    store = ContentStore(str(tmp_path))
    store.put("good", {})
    with open(store.path("stale"), "w") as f:
        json.dump({"key": "stale", "schema": 999}, f)
    with open(store.path("torn"), "w") as f:
        f.write('{"key": "torn", ')
    with open(store.path("alias"), "w") as f:
        json.dump({"key": "other", "schema": SCHEMA_VERSION}, f)
    with open(f"{store.path('good')}.tmp.4242", "w") as f:
        f.write("partial")
    os.makedirs(os.path.join(str(tmp_path), "tenant.tmp.x-12345678"))

    report = store.fsck()
    assert report == {"scanned": 4, "quarantined": 2, "tmp_removed": 1}
    qdir = os.path.join(str(tmp_path), QUARANTINE)
    assert sorted(os.listdir(qdir)) == ["alias.json", "torn.json"]
    assert os.path.exists(store.path("good"))
    assert os.path.exists(store.path("stale")), "stale is dropped by a read"
    assert os.path.isdir(os.path.join(str(tmp_path), "tenant.tmp.x-12345678"))
    assert store.fsck() == {"scanned": 2, "quarantined": 0, "tmp_removed": 0}
