"""Content-addressed result store.

Layout (all under one *store root*, e.g. ``benchmarks/_cache``)::

    <root>/objects/<sha256>.pkl   one pickled envelope per stored result

Each object is a self-describing *envelope* ``{"key", "meta",
"payload"}`` and is the only record of its result: :meth:`RunStore.ls`
reads the envelopes themselves, so there is no separate index to keep
in step with the objects. The meta holds the scenario name, the event
count and the physics fingerprint the result was simulated under, and
nothing host-dependent: the same result stored under the same key is
the same bytes on every run.

Durability rules:

- **writes are atomic** — payloads are pickled to a temp file in the
  same directory and published with ``os.replace``; a crash mid-write
  leaves a ``.tmp-*`` file (collected by ``gc``), never a truncated
  object;
- **loads are corruption-tolerant** — a truncated, unpicklable or
  mis-keyed object makes :meth:`RunStore.get` return ``None`` (and
  deletes the bad file) so callers fall back to re-simulation instead
  of crashing;
- **concurrent writers are safe without a lock** — each key names its
  own content-addressed file, so two writers of the same key race to
  publish identical bytes and writers of different keys never share a
  file.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .keys import physics_fingerprint

_OBJECT_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class StoreEntry:
    """One stored result, as ``repro cache ls`` lists it."""

    key: str
    name: str
    size: int
    events: int
    #: Fingerprint of the physics the result was simulated under.
    physics: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "name": self.name,
            "size": self.size,
            "events": self.events,
            "physics": self.physics,
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
        #: Corrupt objects dropped by :meth:`get` since construction.
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    # Object IO
    # ------------------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key + ".pkl")

    def get(self, key: str) -> Any:
        """The stored payload for ``key``, or ``None`` when absent/corrupt."""
        fetched = self.fetch(key)
        return None if fetched is None else fetched[0]

    def fetch(self, key: str) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(payload, meta)`` for ``key``, or ``None`` when absent/corrupt."""
        envelope = self._load_envelope(key)
        if envelope is None:
            return None
        return envelope["payload"], dict(envelope["meta"])

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored metadata for ``key`` (``None`` when absent/corrupt)."""
        envelope = self._load_envelope(key)
        if envelope is None:
            return None
        meta = dict(envelope["meta"])
        meta["key"] = key
        meta["size"] = os.path.getsize(self._object_path(key))
        return meta

    def put(self, key: str, payload: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically store ``payload`` under ``key``."""
        os.makedirs(self.objects_dir, exist_ok=True)
        entry_meta = dict(meta or {})
        entry_meta.setdefault("name", "")
        entry_meta.setdefault("events", 0)
        entry_meta.setdefault("physics", physics_fingerprint())
        envelope = {"key": key, "meta": entry_meta, "payload": payload}
        fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=self.objects_dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                # A pinned protocol keeps an object's bytes independent
                # of the interpreter's default.
                pickle.dump(envelope, fh, protocol=5)
            os.replace(tmp, self._object_path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _load_envelope(
        self, key: str, drop_corrupt: bool = True
    ) -> Optional[Dict[str, Any]]:
        """The envelope stored under ``key``, or ``None`` when it is
        missing or corrupt. A corrupt file is deleted unless
        ``drop_corrupt`` is false (listing and ``gc`` decide for
        themselves)."""
        path = self._object_path(key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or "payload" not in envelope
                or not isinstance(envelope.get("meta"), dict)
                or envelope.get("key") != key
            ):
                raise ValueError("malformed store envelope")
            return envelope
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, foreign file, or unpicklable content: drop
            # it so the caller re-simulates and the slot can be rewritten.
            if drop_corrupt:
                self.corrupt_dropped += 1
                self._remove_object_file(path)
            return None

    @staticmethod
    def _remove_object_file(path: str) -> None:
        with contextlib.suppress(OSError):
            os.unlink(path)

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------

    def _names(self) -> List[str]:
        """Sorted file names under ``objects/`` (empty when absent)."""
        try:
            return sorted(os.listdir(self.objects_dir))
        except FileNotFoundError:
            return []

    def ls(self) -> List[StoreEntry]:
        """Every readable stored result, in key order.

        Read-only: a corrupt or mis-keyed object is skipped here and
        left for ``gc``.
        """
        rows = []
        for fname in self._names():
            if not _OBJECT_RE.match(fname):
                continue
            key = fname[:-4]
            path = os.path.join(self.objects_dir, fname)
            envelope = self._load_envelope(key, drop_corrupt=False)
            if envelope is None:
                continue
            meta = envelope["meta"]
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            rows.append(StoreEntry(
                key=key,
                name=str(meta.get("name", "")),
                size=size,
                events=int(meta.get("events", 0)),
                physics=str(meta.get("physics", "")),
            ))
        return rows

    def resolve(self, prefix: str) -> List[str]:
        """Full keys matching a (possibly abbreviated) key prefix."""
        return [
            fname[:-4]
            for fname in self._names()
            if _OBJECT_RE.match(fname) and fname.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self, dry_run: bool = False) -> GcReport:
        """Delete temp leftovers, corrupt objects and stale results: those
        whose meta ``physics`` is not the current
        :func:`~repro.runstore.keys.physics_fingerprint`, which no key
        reaches any more.

        ``dry_run=True`` reports the same files and bytes but deletes
        nothing.
        """
        report = GcReport()

        def _collect(path: str) -> None:
            with contextlib.suppress(OSError):
                report.bytes_freed += os.path.getsize(path)
            report.removed.append(path)
            if not dry_run:
                self._remove_object_file(path)

        for fname in self._names():
            path = os.path.join(self.objects_dir, fname)
            if fname.startswith(_TMP_PREFIX):
                _collect(path)
                continue
            if not _OBJECT_RE.match(fname):
                continue
            envelope = self._load_envelope(fname[:-4], drop_corrupt=False)
            if envelope is None:
                if os.path.exists(path):  # corrupt, not concurrently removed
                    _collect(path)
                continue
            if envelope["meta"].get("physics") != physics_fingerprint():
                _collect(path)
                continue
            report.kept += 1
        return report
