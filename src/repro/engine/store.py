"""Persistent on-disk design-point store — warm starts across CLI runs.

The in-memory :class:`~repro.engine.engine.EvaluationEngine` dies with the
process, so every CLI invocation of the same sweep used to recompute every
design point from scratch.  The store persists an engine's
``optimizations`` memo table to disk, keyed by the **stable** content hash
of the bound ``(application, profile)`` context
(:func:`stable_context_fingerprint` — ``PYTHONHASHSEED``-independent,
unlike the in-memory fingerprint), so a second run of the same sweep
starts warm.

Layout and lifecycle:

* One file per context, named ``<sha256(salt | context)>.dps`` under the
  store directory.  The salt folds in :data:`STORE_SCHEMA_VERSION` and the
  package version: any code change that could alter results makes old
  files unreachable (stale caches are *not found* rather than migrated —
  design points are cheap to recompute relative to the cost of a wrong
  hit).  Files of older schemas (``*.pkl``) are deleted when a store is
  opened.
* Only the ``optimizations`` table is persisted: over warm re-runs of
  Fig. 6a–6d, and over cold-X → warm-Y pairs of them, every disk hit came
  from it (PERFORMANCE.md has the per-table counts), while the other four
  tables held most of the entries and bytes and served none.
* :meth:`DesignPointStore.warm` reads a file once and preloads its entries
  into an engine (marking them for ``disk_hits`` accounting), remembering
  the file's ``(st_mtime_ns, st_size)``.  :meth:`DesignPointStore.persist`
  writes only when the engine computed entries beyond the preloaded ones,
  and merges against what ``warm`` loaded, re-reading the file only when
  it changed since (a concurrent writer).  Writes go through an atomic
  ``os.replace``, so concurrent workers at worst lose entries, never
  corrupt files.
* A size cap is enforced after every write: least-recently-used files (by
  mtime — ``warm`` touches files it reads) are evicted until the store
  fits.  The file just written is never evicted.

File format: one line with the sha256 hex digest of the body, then the
body — UTF-8 JSON holding the schema version, the salt, the context key and
the table section of :mod:`repro.engine.codec`.  Decoding builds only
plain data and the decision/schedule types, so a file can never run code.
A checksum, salt, context-key, shape or type mismatch makes the file "not
cached": it is removed and its points are recomputed.  The checksum guards
against torn and corrupted files, not against a forger with write access
to the directory, who can still plant a well-formed wrong entry.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple, TYPE_CHECKING

from repro.engine.codec import decode_table, encode_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import EvaluationEngine

#: Bump on any change to the persisted layout *or* to the numeric kernels'
#: result contract; old store files become unreachable (never migrated).
#: 2: fingerprints moved from repr()-based hashing to the type-tagged
#: canonical byte encoding (R001), renaming every context key.
#: 3: pickle replaced by the checksummed JSON codec; only the
#: ``optimizations`` table is persisted.
STORE_SCHEMA_VERSION = 3

#: File name suffix of a persisted context.
STORE_SUFFIX = ".dps"

#: Suffix of the pickle files older schemas wrote (deleted on sight).
LEGACY_SUFFIX = ".pkl"

#: Default size cap of a store directory (bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Engine attribute name per persisted memo table.
PERSISTED_CACHES = ("optimizations",)

#: ``(st_mtime_ns, st_size)`` of a store file as last read or written.
Stamp = Tuple[int, int]

#: Marks an engine this store handle has neither warmed nor persisted.
_UNSEEN = object()


def code_version_salt() -> str:
    """Salt tying store files to the code that produced them."""
    import repro  # deferred: repro/__init__ defines __version__ after its imports

    version = getattr(repro, "__version__", "unknown")
    return f"schema={STORE_SCHEMA_VERSION};version={version}"


@dataclass
class StoreStats:
    """Counters describing one store's activity in this process."""

    files_loaded: int = 0
    entries_loaded: int = 0
    files_persisted: int = 0
    entries_persisted: int = 0
    evicted_files: int = 0
    invalid_files: int = 0
    single_flight_leads: int = 0
    single_flight_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "files_loaded": self.files_loaded,
            "entries_loaded": self.entries_loaded,
            "files_persisted": self.files_persisted,
            "entries_persisted": self.entries_persisted,
            "evicted_files": self.evicted_files,
            "invalid_files": self.invalid_files,
            "single_flight_leads": self.single_flight_leads,
            "single_flight_waits": self.single_flight_waits,
        }


class DesignPointStore:
    """Directory-backed persistence for evaluation-engine memo tables."""

    def __init__(
        self,
        directory: Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        salt: Optional[str] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.salt = salt if salt is not None else code_version_salt()
        self.stats = StoreStats()
        #: File stamp per engine as of its last warm or persist (``None``:
        #: no file then); an engine missing here was never seen.
        self._seen: "weakref.WeakKeyDictionary[EvaluationEngine, Optional[Stamp]]" = (
            weakref.WeakKeyDictionary()
        )
        self._sweep_orphans()

    # ------------------------------------------------------------------
    def context_key(self, engine: "EvaluationEngine") -> str:
        """Stable, salted file key for the engine's bound context."""
        return sha256(
            f"{self.salt}|{engine.stable_context()}".encode("utf-8")
        ).hexdigest()

    def path_for(self, engine: "EvaluationEngine") -> Path:
        return self._path(self.context_key(engine))

    def _path(self, context: str) -> Path:
        return self.directory / f"{context}{STORE_SUFFIX}"

    # ------------------------------------------------------------------
    def warm(self, engine: "EvaluationEngine") -> int:
        """Preload a persisted context into ``engine``; returns entry count.

        Unreadable or mismatched files are treated as absent (and removed):
        a cache must never turn a corrupt byte into a wrong answer or a
        crash.
        """
        context = self.context_key(engine)
        tables, stamp = self._read(self._path(context), context, touch=True)
        self._seen[engine] = stamp
        if tables is None:
            return 0
        loaded = 0
        for attribute, entries in tables.items():
            loaded += getattr(engine, attribute).load(entries)
        self.stats.files_loaded += 1
        self.stats.entries_loaded += loaded
        return loaded

    def persist(self, engine: "EvaluationEngine") -> int:
        """Write the engine's persisted tables if they gained entries.

        Returns 0 without touching the disk when no table holds an entry
        beyond those :meth:`warm` preloaded.  Otherwise the engine's
        entries are merged with the file's (engine wins ties — the values
        are bit-identical anyway): the entries ``warm`` loaded are already
        in the engine, so the file is read again only if it changed since
        ``warm`` (a concurrent writer) or this handle never warmed the
        engine.  The file is replaced atomically and the size cap enforced
        afterwards.  Returns the number of entries written.
        """
        caches = [getattr(engine, attribute) for attribute in PERSISTED_CACHES]
        if not any(cache.new_entries for cache in caches):
            return 0
        context = self.context_key(engine)
        path = self._path(context)
        tables: Dict[str, Dict[Hashable, Any]] = {
            attribute: cache.snapshot()
            for attribute, cache in zip(PERSISTED_CACHES, caches)
        }
        seen = self._seen.get(engine, _UNSEEN)
        if seen is _UNSEEN or seen != _stamp_of(path):
            on_disk, _ = self._read(path, context)
            if on_disk is not None:
                for attribute, entries in on_disk.items():
                    tables[attribute] = {**entries, **tables[attribute]}
        data, total = self._encode(context, tables)
        self._seen[engine] = self._write_atomic(path, data)
        for cache in caches:
            cache.mark_persisted()
        self.stats.files_persisted += 1
        self.stats.entries_persisted += total
        self._enforce_cap(keep=path)
        return total

    # ------------------------------------------------------------------
    # single-flight: one computer per context across concurrent jobs
    # ------------------------------------------------------------------
    @contextmanager
    def single_flight(
        self,
        engine: "EvaluationEngine",
        stale_after: float = 600.0,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
    ) -> Iterator[bool]:
        """Cross-process leader election for one engine context.

        Two concurrent jobs bound to the *same* ``(application, profile)``
        context would each compute every design point and race their
        ``persist`` calls (safe, but wasteful — the whole computation runs
        twice).  ``single_flight`` elects one leader per context via an
        ``O_CREAT | O_EXCL`` lock file named after the context key:

        * the **leader** (``yield True``) holds the lock for the body and
          releases it afterwards — it should warm, evaluate and persist as
          usual;
        * a **follower** (``yield False``) blocks until the lock disappears
          and only then enters the body — warming *after* the leader's
          persist, so every design point the leader computed is served from
          disk and the follower computes nothing.

        The guard degrades, never deadlocks: a lock older than
        ``stale_after`` seconds is treated as an orphan of a dead leader and
        broken, and an optional ``timeout`` bounds the total wait — in both
        cases the follower proceeds and at worst recomputes (bit-identical)
        design points, which is exactly the behavior without the guard.
        """
        lock_path = self.directory / f"{self.context_key(engine)}.lock"
        leader = self._try_lock(lock_path)
        if leader:
            self.stats.single_flight_leads += 1
        else:
            self.stats.single_flight_waits += 1
            self._await_lock_release(lock_path, stale_after, poll_interval, timeout)
        try:
            yield leader
        finally:
            if leader:
                self._discard(lock_path)

    def _try_lock(self, path: Path) -> bool:
        """Atomically create the lock file; False when another holder won."""
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Unwritable store directory: behave as if the lock were free —
            # the guard is an optimization, never a correctness gate.
            return True
        with os.fdopen(handle, "w") as stream:
            stream.write(str(os.getpid()))
        return True

    def _await_lock_release(
        self,
        path: Path,
        stale_after: float,
        poll_interval: float,
        timeout: Optional[float],
    ) -> None:
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                return  # leader released (or lock broken by a peer)
            if age > stale_after:
                # The leader died without releasing; break its lock so the
                # context can make progress.  At worst two processes compute
                # the same (bit-identical) entries — the pre-guard behavior.
                self._discard(path)
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    def directory_stats(self) -> Dict[str, int]:
        """Current on-disk footprint of the store (files and bytes).

        Counts only persisted context files; in-flight ``*.tmp`` and
        ``*.lock`` files are transient bookkeeping.  Used by the serve
        layer's ``/healthz`` endpoint.
        """
        files = 0
        total = 0
        for path in self.directory.glob(f"*{STORE_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            files += 1
        return {"files": files, "bytes": total, "max_bytes": self.max_bytes}

    # ------------------------------------------------------------------
    # file format
    # ------------------------------------------------------------------
    def _encode(
        self, context: str, tables: Dict[str, Dict[Hashable, Any]]
    ) -> Tuple[bytes, int]:
        """File bytes for ``tables`` and the number of entries they hold."""
        sections: Dict[str, Any] = {}
        total = 0
        for attribute, entries in tables.items():
            sections[attribute], count = encode_table(entries)
            total += count
        body = json.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "salt": self.salt,
                "context": context,
                "caches": sections,
            },
            separators=(",", ":"),
            check_circular=False,  # the codec builds trees, never cycles
        ).encode("utf-8")
        return sha256(body).hexdigest().encode("ascii") + b"\n" + body, total

    def _decode(self, data: bytes, context: str) -> Dict[str, Dict[Hashable, Any]]:
        """Tables of a file's bytes; raises ``ValueError`` on any mismatch."""
        digest, _, body = data.partition(b"\n")
        if digest != sha256(body).hexdigest().encode("ascii"):
            raise ValueError("checksum mismatch")
        payload = json.loads(body)
        if (
            type(payload) is not dict
            or set(payload) != {"schema", "salt", "context", "caches"}
            or payload["schema"] != STORE_SCHEMA_VERSION
            or payload["salt"] != self.salt
            or payload["context"] != context
            or type(payload["caches"]) is not dict
            or set(payload["caches"]) != set(PERSISTED_CACHES)
        ):
            raise ValueError("not a store file of this schema, salt and context")
        return {
            attribute: decode_table(section)
            for attribute, section in payload["caches"].items()
        }

    # ------------------------------------------------------------------
    def _read(
        self, path: Path, context: str, touch: bool = False
    ) -> Tuple[Optional[Dict[str, Dict[Hashable, Any]]], Optional[Stamp]]:
        """Decoded tables of ``path`` and the stamp of the bytes read.

        ``touch`` marks the file recently used, so LRU eviction favours
        cold contexts.  The touch and the stamp go through the open
        descriptor: a file replaced or evicted by a concurrent process
        meanwhile neither crashes the read nor lends it a stamp whose
        content was never loaded.
        """
        try:
            with path.open("rb") as handle:
                data = handle.read()
                if touch:
                    try:
                        os.utime(handle.fileno())
                    except OSError:
                        pass  # read-only store: lose the LRU touch, keep the data
                stamp = _stamp(os.fstat(handle.fileno()))
        except FileNotFoundError:
            return None, None
        except OSError:
            data, stamp = b"", None
        try:
            return self._decode(data, context), stamp
        except (ValueError, TypeError, RecursionError):
            # Torn write, flipped bit, foreign or older-schema file, forged
            # shape or nesting ... a cache treats all of these as "not cached".
            self.stats.invalid_files += 1
            self._discard(path)
            return None, None

    def _write_atomic(self, path: Path, data: bytes) -> Stamp:
        """Replace ``path`` with ``data``; returns the written file's stamp."""
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
                stream.flush()
                stamp = _stamp(os.fstat(stream.fileno()))
            os.replace(temp_name, path)
        except BaseException:
            self._discard(Path(temp_name))
            raise
        return stamp

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _sweep_orphans(self) -> None:
        """Remove older-schema files and stale ``*.tmp`` orphans.

        ``*.pkl`` files were written by schema 2 and earlier; no salt
        reaches them any more, so they would sit outside the size cap
        forever.  A live ``_write_atomic`` temp file exists for
        milliseconds; one older than an hour is an orphan from a killed
        process.  Run once per store construction so long-lived directories
        stay clean even when they never exceed the size cap.
        """
        cutoff = time.time() - 3600.0
        try:
            entries = list(os.scandir(self.directory))
        except OSError:
            return
        for entry in entries:
            try:
                if entry.name.endswith(LEGACY_SUFFIX) or (
                    entry.name.endswith(".tmp") and entry.stat().st_mtime < cutoff
                ):
                    os.unlink(entry.path)
            except OSError:
                continue

    def _enforce_cap(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used files until the store fits the cap.

        Orphaned ``*.tmp`` files (an interrupted ``_write_atomic`` — SIGKILL,
        power loss) count toward the cap and are eviction candidates like any
        other file, so a crashing writer cannot grow the directory past the
        user's limit; live temp files are written and replaced within one
        call, so only stale ones are ever old enough to be evicted first.
        """
        files = []
        total = 0
        for pattern in (f"*{STORE_SUFFIX}", "*.tmp"):
            for path in self.directory.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= self.max_bytes:
            return
        files.sort()  # oldest mtime first
        for _, size, path in files:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            self._discard(path)
            self.stats.evicted_files += 1
            total -= size


def _stamp(stat: os.stat_result) -> Stamp:
    return (stat.st_mtime_ns, stat.st_size)


def _stamp_of(path: Path) -> Optional[Stamp]:
    """Current stamp of ``path``; ``None`` when there is no file."""
    try:
        return _stamp(path.stat())
    except OSError:
        return None
