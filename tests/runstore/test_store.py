"""RunStore durability, listing and gc tests."""

import os

from repro.runstore import Job, RunStore
from repro.runstore.keys import physics_fingerprint

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
    key = _put(store, 1, events=42)
    assert _exists(store, key)
    assert store.get(key) == {"seed": 1}
    payload, meta = store.fetch(key)
    assert payload == {"seed": 1}
    assert meta == {"name": "s1", "events": 42, "physics": physics_fingerprint()}
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
    one = _put(store, 1, events=42)
    two = _put(store, 2, events=7)
    three = _put(store, 3)
    corrupt = os.path.join(store.objects_dir, "a" * 64 + ".pkl")
    with open(corrupt, "wb") as fh:
        fh.write(b"junk")

    rows = RunStore(store.root).ls()
    # Key order; the corrupt object is skipped, and left in place for gc.
    assert [e.key for e in rows] == sorted([one, two, three])
    assert os.path.exists(corrupt)
    by_key = {e.key: e for e in rows}
    assert by_key[one].to_json() == {
        "key": one,
        "name": "s1",
        "size": os.path.getsize(os.path.join(store.objects_dir, one + ".pkl")),
        "events": 42,
        "physics": physics_fingerprint(),
    }
    assert (by_key[two].name, by_key[two].events) == ("s2", 7)
    # The objects are the only record: no index or lock file appears.
    written = [name for _, _, names in os.walk(store.root) for name in names]
    assert not [name for name in written if name.startswith("manifest")]


def test_same_payload_stores_the_same_bytes(tmp_path):
    """An object's bytes depend on its key and content alone, not on when
    or how fast it was written."""
    store = _store(tmp_path)
    key_a, key_b = Job(scenario(1)).key(), Job(scenario(2)).key()
    for key in (key_a, key_b):
        store.put(key, {"seed": 1}, meta={"name": "s", "events": 3})
    blobs = []
    for key in (key_a, key_b):
        with open(os.path.join(store.objects_dir, key + ".pkl"), "rb") as fh:
            blobs.append(fh.read().replace(key.encode("ascii"), b"KEY"))
    assert blobs[0] == blobs[1]


def test_resolve_prefix(tmp_path):
    store = _store(tmp_path)
    key = _put(store, 1)
    assert store.resolve(key[:8]) == [key]
    assert store.resolve("f" * 64) == []


def test_gc_collects_trash_and_stale_versions(tmp_path):
    store = _store(tmp_path)
    keep = _put(store, 1)
    stale = _put(store, 2, physics="0" * 64)
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
