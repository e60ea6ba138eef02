"""Content-addressed result store.

Layout (all under one *store root*, e.g. ``benchmarks/_cache``)::

    <root>/objects/<sha256>.pkl   one pickled envelope per stored result
    <root>/manifest.json          index: key -> metadata (name, version,
                                  size, wall time, events, created)
    <root>/manifest.lock          inter-process lock for manifest updates

Each object is a self-describing *envelope* ``{"key", "meta",
"payload"}`` so the manifest is strictly a cache of the object
metadata: if it is lost or corrupted it is rebuilt by scanning the
objects directory (:meth:`RunStore.rebuild_manifest`).

Durability rules:

- **writes are atomic** — payloads are pickled to a temp file in the
  same directory and published with ``os.replace``; a crash mid-write
  leaves a ``.tmp-*`` file (collected by ``gc``), never a truncated
  object;
- **loads are corruption-tolerant** — a truncated, unpicklable or
  mis-keyed object makes :meth:`RunStore.get` return ``None`` (and
  deletes the bad file) so callers fall back to re-simulation instead
  of crashing;
- **concurrent writers are safe** — object files are content-addressed
  (two writers of the same key race to publish identical bytes) and
  manifest updates serialise on an ``fcntl`` file lock where available.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .keys import CACHE_VERSION

try:  # POSIX only; on other platforms manifest updates are best-effort.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

_OBJECT_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
_TMP_PREFIX = ".tmp-"

_MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class StoreEntry:
    """One manifest row."""

    key: str
    name: str
    version: int
    size: int
    wall_seconds: float
    events: int
    created: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "name": self.name,
            "version": self.version,
            "size": self.size,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "created": self.created,
        }


@dataclass
class GcReport:
    """What ``gc`` removed (or would remove with ``dry_run``)."""

    removed: List[str] = field(default_factory=list)
    kept: int = 0
    bytes_freed: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "removed": list(self.removed),
            "kept": self.kept,
            "bytes_freed": self.bytes_freed,
        }


class RunStore:
    """Content-addressed store for experiment results (any picklable)."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.manifest_path = os.path.join(self.root, "manifest.json")
        self._lock_path = os.path.join(self.root, "manifest.lock")
        #: Corrupt objects dropped by :meth:`get` since construction.
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    # Object IO
    # ------------------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key + ".pkl")

    def contains(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def get(self, key: str) -> Any:
        """The stored payload for ``key``, or ``None`` when absent/corrupt."""
        fetched = self.fetch(key)
        return None if fetched is None else fetched[0]

    def fetch(self, key: str) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(payload, meta)`` for ``key``, or ``None`` when absent/corrupt."""
        envelope = self._load_envelope(self._object_path(key), expect_key=key)
        if envelope is None:
            return None
        return envelope["payload"], dict(envelope["meta"])

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored metadata for ``key`` (``None`` when absent/corrupt)."""
        envelope = self._load_envelope(self._object_path(key), expect_key=key)
        if envelope is None:
            return None
        meta = dict(envelope["meta"])
        meta["key"] = key
        meta["size"] = os.path.getsize(self._object_path(key))
        return meta

    def put(self, key: str, payload: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically store ``payload`` under ``key`` and index it."""
        os.makedirs(self.objects_dir, exist_ok=True)
        entry_meta = dict(meta or {})
        entry_meta.setdefault("name", "")
        entry_meta.setdefault("version", CACHE_VERSION)
        entry_meta.setdefault("wall_seconds", 0.0)
        entry_meta.setdefault("events", 0)
        # Host-clock read is intentional: 'created' is bookkeeping for
        # humans (cache ls), never simulation input.
        entry_meta.setdefault("created", time.time())  # repro-lint: disable=RPR001
        envelope = {"key": key, "meta": entry_meta, "payload": payload}
        fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=self.objects_dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._object_path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        entry_meta["size"] = os.path.getsize(self._object_path(key))
        self._update_manifest({key: entry_meta})

    def delete(self, key: str) -> bool:
        """Remove one object (and its index row); True if it existed."""
        existed = self._remove_object_file(self._object_path(key))
        self._update_manifest({key: None})
        return existed

    def _load_envelope(
        self, path: str, expect_key: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or "payload" not in envelope
                or not isinstance(envelope.get("meta"), dict)
                or (expect_key is not None and envelope.get("key") != expect_key)
            ):
                raise ValueError("malformed store envelope")
            return envelope
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, foreign file, or unpicklable content: drop
            # it so the caller re-simulates and the slot can be rewritten.
            self.corrupt_dropped += 1
            self._remove_object_file(path)
            if expect_key is not None:
                self._update_manifest({expect_key: None})
            return None

    @staticmethod
    def _remove_object_file(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Manifest index
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        os.makedirs(self.root, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self._lock_path, "a+") as lock_fh:
            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh.fileno(), fcntl.LOCK_UN)

    def _read_manifest_entries(self) -> Optional[Dict[str, Dict[str, Any]]]:
        """Raw manifest entries, or None when missing/corrupt."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            entries = manifest["entries"]
            if not isinstance(entries, dict):
                raise ValueError("malformed manifest")
            return {str(k): dict(v) for k, v in entries.items()}
        except FileNotFoundError:
            return None
        except Exception:
            return None

    def _write_manifest(self, entries: Dict[str, Dict[str, Any]]) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(
                    {"format": _MANIFEST_FORMAT, "entries": entries},
                    fh,
                    sort_keys=True,
                    indent=0,
                )
            os.replace(tmp, self.manifest_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _update_manifest(self, updates: Dict[str, Optional[Dict[str, Any]]]) -> None:
        """Apply ``key -> meta`` (or ``key -> None`` to drop) under the lock."""
        with self._manifest_lock():
            entries = self._read_manifest_entries()
            if entries is None:
                entries = self._scan_entries()
            for key, meta in updates.items():
                if meta is None:
                    entries.pop(key, None)
                else:
                    entries[key] = meta
            self._write_manifest(entries)

    def _scan_entries(self) -> Dict[str, Dict[str, Any]]:
        """Rebuild index rows from the (self-describing) objects on disk."""
        entries: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.objects_dir))
        except FileNotFoundError:
            return entries
        for fname in names:
            if not _OBJECT_RE.match(fname):
                continue
            key = fname[:-4]
            envelope = self._load_envelope(os.path.join(self.objects_dir, fname))
            if envelope is None or envelope.get("key") != key:
                continue
            meta = dict(envelope["meta"])
            try:
                meta["size"] = os.path.getsize(os.path.join(self.objects_dir, fname))
            except OSError:
                continue
            entries[key] = meta
        return entries

    def rebuild_manifest(self) -> int:
        """Regenerate the manifest from disk; returns the entry count."""
        with self._manifest_lock():
            entries = self._scan_entries()
            self._write_manifest(entries)
        return len(entries)

    def ls(self) -> List[StoreEntry]:
        """All indexed entries, most recent first (rebuilds if needed)."""
        entries = self._read_manifest_entries()
        if entries is None:
            self.rebuild_manifest()
            entries = self._read_manifest_entries() or {}
        rows = [
            StoreEntry(
                key=key,
                name=str(meta.get("name", "")),
                version=int(meta.get("version", 0)),
                size=int(meta.get("size", 0)),
                wall_seconds=float(meta.get("wall_seconds", 0.0)),
                events=int(meta.get("events", 0)),
                created=float(meta.get("created", 0.0)),
            )
            for key, meta in entries.items()
        ]
        rows.sort(key=lambda e: (-e.created, e.key))
        return rows

    def resolve(self, prefix: str) -> List[str]:
        """Full keys matching a (possibly abbreviated) key prefix."""
        try:
            names = sorted(os.listdir(self.objects_dir))
        except FileNotFoundError:
            return []
        return [
            fname[:-4]
            for fname in names
            if _OBJECT_RE.match(fname) and fname.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(
        self,
        current_version: int = CACHE_VERSION,
        dry_run: bool = False,
        all_versions: bool = False,
    ) -> GcReport:
        """Delete temp leftovers, corrupt objects and stale-version results.

        ``all_versions=True`` keeps old-:data:`CACHE_VERSION` entries
        (only trash — temp files and corrupt objects — is collected).
        """
        report = GcReport()
        try:
            names = sorted(os.listdir(self.objects_dir))
        except FileNotFoundError:
            return report

        def _collect(path: str) -> None:
            with contextlib.suppress(OSError):
                report.bytes_freed += os.path.getsize(path)
            report.removed.append(path)
            if not dry_run:
                self._remove_object_file(path)

        survivors: Dict[str, Dict[str, Any]] = {}
        for fname in names:
            path = os.path.join(self.objects_dir, fname)
            if fname.startswith(_TMP_PREFIX):
                _collect(path)
                continue
            if not _OBJECT_RE.match(fname):
                continue
            key = fname[:-4]
            envelope = self._load_envelope(path)
            if envelope is None or envelope.get("key") != key:
                # _load_envelope already dropped genuinely corrupt files;
                # record the removal if the file is now gone.
                if not os.path.exists(path):
                    report.removed.append(path)
                else:
                    _collect(path)
                continue
            meta = dict(envelope["meta"])
            version = int(meta.get("version", 0))
            if not all_versions and version != current_version:
                _collect(path)
                continue
            with contextlib.suppress(OSError):
                meta["size"] = os.path.getsize(path)
            survivors[key] = meta
            report.kept += 1
        if not dry_run:
            with self._manifest_lock():
                self._write_manifest(survivors)
        return report
