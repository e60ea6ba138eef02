"""RunStore durability, listing and gc tests."""

import os

from repro.runstore import CACHE_VERSION, Job, RunStore

from .fakes import scenario


def _store(tmp_path):
    return RunStore(str(tmp_path / "store"))


def _exists(store, key):
    return os.path.exists(os.path.join(store.objects_dir, key + ".pkl"))


def _put(store, i, **meta):
    key = Job(scenario(i)).key()
    store.put(key, {"seed": i}, meta={"name": f"s{i}", **meta})
    return key


def test_roundtrip_and_meta(tmp_path):
    store = _store(tmp_path)
    key = _put(store, 1, wall_seconds=1.5, events=42)
    assert _exists(store, key)
    assert store.get(key) == {"seed": 1}
    payload, meta = store.fetch(key)
    assert payload == {"seed": 1}
    assert meta["name"] == "s1"
    assert meta["wall_seconds"] == 1.5
    assert meta["events"] == 42
    assert meta["version"] == CACHE_VERSION
    full = store.meta(key)
    assert full["key"] == key and full["size"] > 0


def test_missing_key_returns_none(tmp_path):
    store = _store(tmp_path)
    assert store.get("0" * 64) is None
    assert store.fetch("0" * 64) is None
    assert not _exists(store, "0" * 64)


def test_corrupt_object_dropped_not_raised(tmp_path):
    store = _store(tmp_path)
    key = _put(store, 1)
    path = os.path.join(store.objects_dir, key + ".pkl")
    with open(path, "wb") as fh:
        fh.write(b"\x80\x04 not a pickle")
    assert store.get(key) is None
    assert store.corrupt_dropped == 1
    assert not os.path.exists(path)  # slot is free for re-simulation
    store.put(key, {"seed": 1})  # and rewritable
    assert store.get(key) == {"seed": 1}


def test_wrong_key_envelope_rejected(tmp_path):
    store = _store(tmp_path)
    key_a, key_b = Job(scenario(1)).key(), Job(scenario(2)).key()
    store.put(key_a, {"seed": 1})
    # Simulate a mis-filed object: key_b's slot holds key_a's envelope.
    with open(os.path.join(store.objects_dir, key_a + ".pkl"), "rb") as fh:
        data = fh.read()
    with open(os.path.join(store.objects_dir, key_b + ".pkl"), "wb") as fh:
        fh.write(data)
    assert store.get(key_b) is None
    assert store.get(key_a) == {"seed": 1}


def test_put_leaves_no_temp_files(tmp_path):
    store = _store(tmp_path)
    for i in range(3):
        _put(store, i)
    leftovers = [f for f in os.listdir(store.objects_dir) if f.startswith(".tmp-")]
    assert leftovers == []


def test_ls_lists_what_put_wrote_without_a_manifest(tmp_path):
    store = _store(tmp_path)
    older = _put(store, 1, wall_seconds=1.5, events=42, created=100.0)
    newer = _put(store, 2, wall_seconds=0.5, events=7, created=200.0)
    tie = _put(store, 3, created=100.0)
    corrupt = os.path.join(store.objects_dir, "a" * 64 + ".pkl")
    with open(corrupt, "wb") as fh:
        fh.write(b"junk")

    rows = RunStore(store.root).ls()
    # Most recent first, ties broken by key; the corrupt object is
    # skipped, and left in place for gc.
    assert [e.key for e in rows] == [newer] + sorted([older, tie])
    assert os.path.exists(corrupt)
    by_key = {e.key: e for e in rows}
    assert by_key[older].to_json() == {
        "key": older,
        "name": "s1",
        "version": CACHE_VERSION,
        "size": os.path.getsize(os.path.join(store.objects_dir, older + ".pkl")),
        "wall_seconds": 1.5,
        "events": 42,
        "created": 100.0,
    }
    assert (by_key[newer].name, by_key[newer].events) == ("s2", 7)
    # The objects are the only record: no index or lock file appears.
    written = [name for _, _, names in os.walk(store.root) for name in names]
    assert not [name for name in written if name.startswith("manifest")]


def test_resolve_prefix(tmp_path):
    store = _store(tmp_path)
    key = _put(store, 1)
    assert store.resolve(key[:8]) == [key]
    assert store.resolve("f" * 64) == []


def test_gc_collects_trash_and_stale_versions(tmp_path):
    store = _store(tmp_path)
    keep = _put(store, 1)
    stale = _put(store, 2, version=CACHE_VERSION - 1)
    tmp_file = os.path.join(store.objects_dir, ".tmp-leftover")
    with open(tmp_file, "wb") as fh:
        fh.write(b"junk")
    corrupt = os.path.join(store.objects_dir, "a" * 64 + ".pkl")
    with open(corrupt, "wb") as fh:
        fh.write(b"junk")

    dry = store.gc(dry_run=True)
    assert dry.kept == 1 and len(dry.removed) == 3
    assert _exists(store, stale)  # dry run removed nothing real

    report = store.gc()
    assert report.kept == 1
    assert report.bytes_freed == dry.bytes_freed
    assert _exists(store, keep)
    assert not _exists(store, stale)
    assert not os.path.exists(tmp_file)
    assert not os.path.exists(corrupt)
    assert [e.key for e in store.ls()] == [keep]


def test_gc_all_versions_keeps_old_entries(tmp_path):
    store = _store(tmp_path)
    stale = _put(store, 2, version=CACHE_VERSION - 1)
    report = store.gc(all_versions=True)
    assert report.kept == 1
    assert _exists(store, stale)


def test_gc_dry_run_keeps_and_counts_corrupt_objects(tmp_path):
    store = _store(tmp_path)
    corrupt = os.path.join(store.objects_dir, "b" * 64 + ".pkl")
    os.makedirs(store.objects_dir)
    with open(corrupt, "wb") as fh:
        fh.write(b"\x80\x04 not a pickle")
    size = os.path.getsize(corrupt)

    dry = store.gc(dry_run=True)
    assert os.path.exists(corrupt)
    assert dry.removed == [corrupt] and dry.bytes_freed == size

    report = store.gc()
    assert not os.path.exists(corrupt)
    assert report.removed == [corrupt] and report.bytes_freed == size
