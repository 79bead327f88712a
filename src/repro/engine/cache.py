"""Content-addressed result cache with an in-memory LRU and a disk tier.

The cache maps request fingerprints (:mod:`repro.engine.fingerprint`) to
JSON-serialisable result payloads.  Two tiers:

* an **in-memory LRU** bounded by ``max_memory_entries`` — fast path for
  repeated solves inside one process (e.g. a parameter sweep that re-solves
  the same local LPs for every radius);
* an optional **on-disk store** (``directory``): one SQLite database,
  ``<directory>/cache.sqlite``, with one row per entry — survives process
  restarts, so a warm re-run of a whole benchmark performs zero LP solves.

Every ``put`` is one short transaction (WAL journal, ``synchronous=NORMAL``),
so a killed writer leaves the whole row or nothing.  Payloads must be
JSON-serialisable; non-finite floats are permitted, which matters because
vacuous local LPs have objective ``inf``.  Every row stores the content fingerprint of its value (``sha256``, from
:func:`repro.engine.fingerprint.fingerprint_data`), recomputed and compared
on every read, so a value whose bytes were flipped — even one that still
parses as JSON — is detected, moved to the ``quarantine`` table and treated
as a miss instead of being served as truth.  Quarantined rows count toward
the byte bound of :meth:`ResultCache.prune`, so junk cannot pin the tier
over it.  A
database file that SQLite cannot read at all (garbage, a truncated copy) is
renamed to ``cache.sqlite.corrupt`` with a warning and the tier carries on
empty.  A directory in the older file-per-entry layout
(``<digest[:2]>/<digest>.json``) is not read — it behaves as a cold cache —
and :meth:`ResultCache.clear` removes its shard directories.

Hit/miss/eviction counters are kept in :class:`CacheStats`.  The cache is
safe under a worker pool (serve hits one instance from every request
thread): one lock guards the LRU and the counters, another the store's
connection, so a memory hit never waits on disk I/O.  Each process opens
its own connection on first use; a forked child never touches the one it
inherited.  Processes sharing a directory wait out each other's locks for a
busy timeout, and :data:`CACHE_RETRY` retries the rest.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..faults import InjectedFault, RetryPolicy, apply_crash
from ..faults import inject as _inject
from ..obs.metrics import get_registry
from ..obs.statsutil import stats_as_dict

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]

_MISSING = object()

#: The disk tier's database file inside the cache directory.
DB_NAME = "cache.sqlite"

#: Seconds a connection waits on another process's lock before SQLite
#: reports the database as locked (which :data:`CACHE_RETRY` then retries).
_BUSY_TIMEOUT_S = 5.0

#: Live entries and quarantined rows share one shape.
_TABLE = (
    "CREATE TABLE IF NOT EXISTS {} (key TEXT PRIMARY KEY, "
    "sha256 TEXT NOT NULL, value BLOB NOT NULL, written REAL NOT NULL)"
)

#: The bytes a row accounts for against a prune bound: what it stores,
#: not SQLite's page overhead (freed pages are reused, never returned).
_ROW_BYTES = "length(key) + length(sha256) + length(value)"

#: Shard directories of the older file-per-entry layout.
_V1_SHARD = re.compile("[0-9a-f]{2}")

#: Connections inherited across a fork.  The parent still owns them, so the
#: child parks them here, where they are never used and never finalised
#: (closing one could checkpoint the parent's WAL under its feet).
_FORKED_CONNECTIONS: List[Any] = []

#: Cache-I/O retry: transient disk errors (and the injected faults that
#: stand in for them) are retried briefly; a missing entry is a miss, not
#: an error, and is never retried.  The store raises every ``sqlite3``
#: error as an ``OSError`` -- a database still locked after the busy
#: timeout is the common one -- so this policy retries them without
#: importing ``sqlite3`` before the disk tier is first used.
CACHE_RETRY = RetryPolicy(
    attempts=3,
    base_delay=0.002,
    multiplier=2.0,
    max_delay=0.02,
    retry_on=(OSError, InjectedFault),
    seed=0,
)


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    Honours ``REPRO_CACHE_DIR``; otherwise uses ``~/.cache/repro-maxminlp``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-maxminlp"


def _torn(blob: bytes) -> bytes:
    """What an injected ``corrupt`` fault makes of a stored value."""
    return blob[: len(blob) // 2] + b"<torn by fault plan>"


class _Unreadable(OSError):
    """The database file itself is corrupt or not a database."""


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`ResultCache`.

    Attributes
    ----------
    hits:
        Successful lookups (memory or disk).
    disk_hits:
        The subset of ``hits`` served from the disk tier.
    misses:
        Lookups that found nothing in either tier.
    puts:
        Entries stored.
    evictions:
        Memory-tier entries dropped by the LRU bound.
    disk_evictions:
        Disk-tier rows dropped by :meth:`ResultCache.prune`.
    invalidations:
        Entries removed by explicit :meth:`ResultCache.invalidate` calls.
    quarantined:
        Corrupt disk entries moved to the store's ``quarantine`` table and
        treated as misses (a poisoned entry must never be re-parsed
        forever).
    write_errors:
        Disk writes that failed even after retries; the entry stays
        memory-only and the cache degrades rather than raising.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_evictions: int = 0
    invalidations: int = 0
    quarantined: int = 0
    write_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for tables and JSON reports)."""
        return stats_as_dict(self)


@dataclass
class ResultCache:
    """Two-tier (memory LRU + optional disk) content-addressed result store.

    Parameters
    ----------
    max_memory_entries:
        Bound on the in-memory LRU tier; least-recently-used entries are
        evicted (they remain on disk when a directory is configured).
    directory:
        Optional disk-tier location; the directory and its database are
        created on first write.  ``None`` keeps the cache purely in-memory.
        The tier is unbounded; :meth:`prune` shrinks it on demand.
    """

    max_memory_entries: int = 4096
    directory: Optional[Union[str, Path]] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_memory_entries < 1:
            raise ValueError("max_memory_entries must be at least 1")
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # Guards the LRU and the counters: the process-wide default engine is
        # shared, so concurrent callers (e.g. sweeps on a thread pool) must
        # not interleave OrderedDict mutations.
        self._lock = threading.RLock()
        # Guards the store's connection.  May be held while taking
        # ``_lock``, never the other way round.
        self._db_lock = threading.Lock()
        self._conn: Any = None
        self._conn_pid = 0
        if self.directory is not None:
            self.directory = Path(self.directory)
            self._db = self.directory / DB_NAME

    # ------------------------------------------------------------------
    # The store
    # ------------------------------------------------------------------
    def _connect(self, create: bool) -> Any:
        """This process's connection, opened on first use; ``None`` when
        there is no database yet and ``create`` is false."""
        pid = os.getpid()
        if self._conn is not None:
            if self._conn_pid == pid:
                return self._conn
            _FORKED_CONNECTIONS.append(self._conn)
            self._conn = None
        if not create and not self._db.exists():
            return None
        import sqlite3

        self._db.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self._db, timeout=_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_TABLE.format("entries"))
            conn.execute(_TABLE.format("quarantine"))
        except BaseException:
            conn.close()
            raise
        self._conn, self._conn_pid = conn, pid
        return conn

    def _set_aside(self, exc: Exception) -> None:
        """Move an unreadable database out of the way; the next use starts
        an empty store."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        path = self._db
        for suffix in ("", "-wal", "-shm"):
            try:
                os.replace(f"{path}{suffix}", f"{path}.corrupt{suffix}")
            except OSError:
                pass
        warnings.warn(
            f"cache store {path} is not a readable database ({exc}); moved "
            f"it to {path.name}.corrupt and continuing on an empty store",
            RuntimeWarning,
            stacklevel=4,
        )

    def _on_store(
        self, op: Callable[[Any], Any], *, create: bool = False, default: Any = None,
        set_aside: bool = True,
    ) -> Any:
        """Run ``op(conn)`` once under the store lock (``default`` without a
        database, unless ``create``).  ``sqlite3`` errors are raised as
        ``OSError``; an unreadable file is first set aside (unless told
        otherwise), so a retry runs on a fresh store."""
        import sqlite3

        with self._db_lock:
            try:
                conn = self._connect(create)
                return default if conn is None else op(conn)
            except sqlite3.Error as exc:
                message = f"cache store {self._db}: {exc}"
                if type(exc) is not sqlite3.DatabaseError:
                    raise OSError(message) from exc
                # The base class itself: the file is corrupt or not a database.
                if set_aside:
                    self._set_aside(exc)
                raise _Unreadable(message) from exc

    def _store(
        self, op: Callable[[Any], Any], *, default: Any = None, set_aside: bool = True
    ) -> Any:
        """:meth:`_on_store` on an existing database, with retries."""
        if self.directory is None:
            return default
        return CACHE_RETRY.call(
            lambda: self._on_store(op, default=default, set_aside=set_aside),
            metric="cache.retries",
        )

    def _decode(self, sha256: str, blob: Any) -> Any:
        """A row's value, or ``_MISSING`` when it does not parse or fails its
        checksum (a flipped digit inside a number, which JSON cannot see)."""
        try:
            value = json.loads(blob)
        except (TypeError, ValueError):
            return _MISSING
        return value if sha256 == self._digest(value) else _MISSING

    @staticmethod
    def _digest(value: Any) -> str:
        """Content digest of a payload (the row's ``sha256``), over the
        canonical JSON of the *parsed* value, so it survives the write/read
        round-trip (JSON floats parse back to the exact double written)."""
        from .fingerprint import fingerprint_data

        return fingerprint_data(value)

    def _quarantine(self, conn: Any, key: str) -> bool:
        """Move ``key``'s row to the quarantine table (kept for a
        post-mortem, never read again); returns whether it existed."""
        conn.execute("BEGIN IMMEDIATE")
        with conn:
            moved = conn.execute(
                "INSERT OR REPLACE INTO quarantine SELECT * FROM entries WHERE key = ?",
                (key,),
            ).rowcount
            conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        if moved:
            with self._lock:
                self.stats.quarantined += 1
            get_registry().counter(
                "cache.quarantined", "corrupt cache entries quarantined"
            ).inc()
        return bool(moved)

    @staticmethod
    def _accounted_bytes(conn: Any) -> int:
        row = conn.execute(
            f"SELECT (SELECT total({_ROW_BYTES}) FROM entries)"
            f" + (SELECT total({_ROW_BYTES}) FROM quarantine)"
        ).fetchone()
        return int(row[0])

    def _evict(self, conn: Any, budget: int) -> Tuple[int, int, int]:
        """Delete the oldest rows, quarantined ones included, by write time
        (ties by key) until the tier fits ``budget`` bytes; inside the
        caller's transaction.  Returns ``(rows, bytes) removed, bytes left``."""
        total = self._accounted_bytes(conn)
        removed = removed_bytes = 0
        if total <= budget:
            return removed, removed_bytes, total
        rows = conn.execute(
            f"SELECT 'entries', key, written, {_ROW_BYTES} FROM entries"
            f" UNION ALL SELECT 'quarantine', key, written, {_ROW_BYTES}"
            " FROM quarantine ORDER BY 3, 2"
        ).fetchall()
        for table, key, _written, size in rows:
            if total <= budget:
                break
            conn.execute(f"DELETE FROM {table} WHERE key = ?", (key,))
            total -= size
            removed += 1
            removed_bytes += size
        with self._lock:
            self.stats.disk_evictions += removed
        return removed, removed_bytes, total

    def _disk_read(self, key: str) -> Any:
        if self.directory is None:
            return _MISSING

        def _attempt() -> Any:
            fault = _inject("cache.disk.read", key=key[:12])

            def op(conn: Any) -> Any:
                row = conn.execute(
                    "SELECT sha256, value FROM entries WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    return _MISSING  # a plain miss, never retried
                sha256, blob = row
                if fault is not None:  # kind == "corrupt"
                    blob = _torn(blob)
                value = self._decode(sha256, blob)
                if value is _MISSING:
                    self._quarantine(conn, key)
                return value

            return self._on_store(op, default=_MISSING)

        try:
            return CACHE_RETRY.call(_attempt, metric="cache.retries")
        except (OSError, InjectedFault):
            # Persistent I/O failure: serve a miss (the solve re-runs)
            # rather than poisoning the lookup with an exception.
            return _MISSING

    def _disk_write(self, key: str, value: Any) -> None:
        payload = json.dumps(value).encode()
        sha256 = self._digest(value)

        def _attempt() -> None:
            fault = _inject("cache.disk.write", key=key[:12])
            # An injected corrupt write stores a torn value under the true
            # checksum, exercising the read side's quarantine end-to-end.
            blob = (
                _torn(payload)
                if fault is not None and fault.kind == "corrupt"
                else payload
            )

            def op(conn: Any) -> None:
                conn.execute("BEGIN IMMEDIATE")
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                        (key, sha256, blob, time.time()),
                    )
                    # The chaos harness's most hostile instruction: the row
                    # is inserted but not committed.  A ``crash-process``
                    # fault SIGKILLs exactly here.
                    apply_crash(fault)

            self._on_store(op, create=True)

        try:
            CACHE_RETRY.call(_attempt, metric="cache.retries")
        except (OSError, InjectedFault) as exc:
            # The disk tier is an optimisation; losing one write degrades
            # to memory-only for this entry instead of failing the solve.
            with self._lock:
                self.stats.write_errors += 1
            warnings.warn(
                f"cache disk write failed for {key[:12]}...: {exc}; "
                "entry stays memory-only",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``; promotes disk hits into the memory tier."""
        value, _tier = self.get_with_tier(key, default)
        return value

    def get_with_tier(self, key: str, default: Any = None) -> Tuple[Any, Optional[str]]:
        """Like :meth:`get`, but also reports where the hit came from.

        Returns ``(value, tier)`` with tier ``"memory"``, ``"disk"`` or
        ``None`` (miss).  Verification layers key off the tier: a payload
        freshly promoted from disk has crossed an untrusted boundary and
        may warrant re-certification, a memory hit has not left the
        process.
        """
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return self._memory[key], "memory"
        value = self._disk_read(key)
        with self._lock:
            if value is not _MISSING:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._memory_store(key, value)
                return value, "disk"
            self.stats.misses += 1
        return default, None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in both tiers."""
        with self._lock:
            self.stats.puts += 1
            self._memory_store(key, value)
        if self.directory is not None:
            self._disk_write(key, value)

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Shrink the disk tier to ``max_bytes`` (:meth:`disk_bytes`),
        oldest rows first by write time, quarantined rows included.
        Returns ``{"removed_entries", "removed_bytes", "remaining_bytes"}``;
        a no-op without a disk tier."""
        if self.directory is None:
            return {"removed_entries": 0, "removed_bytes": 0,
                    "remaining_bytes": self.disk_bytes()}

        def op(conn: Any) -> Tuple[int, int, int]:
            conn.execute("BEGIN IMMEDIATE")
            with conn:
                return self._evict(conn, max_bytes)

        removed, removed_bytes, total = self._store(op, default=(0, 0, 0))
        return {
            "removed_entries": removed,
            "removed_bytes": removed_bytes,
            "remaining_bytes": total,
        }

    def _memory_store(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Remove ``key`` from both tiers; returns whether anything existed."""
        with self._lock:
            existed = self._memory.pop(key, _MISSING) is not _MISSING
        try:
            deleted = self._store(
                lambda conn: conn.execute(
                    "DELETE FROM entries WHERE key = ?", (key,)
                ).rowcount,
                default=0,
            )
        except OSError:
            deleted = 0
        existed = existed or deleted > 0
        if existed:
            with self._lock:
                self.stats.invalidations += 1
        return existed

    def clear(self, *, disk: bool = True) -> None:
        """Drop the memory tier and (by default) every disk row.

        Also removes the shard directories of the older file-per-entry
        layout, which this tier never reads.
        """
        with self._lock:
            self._memory.clear()
        if not disk or self.directory is None:
            return

        def op(conn: Any) -> None:
            conn.execute("DELETE FROM entries")
            conn.execute("DELETE FROM quarantine")
            conn.execute("VACUUM")

        self._store(op)
        root = Path(self.directory)
        if root.is_dir():
            for shard in root.iterdir():
                if shard.is_dir() and _V1_SHARD.fullmatch(shard.name):
                    shutil.rmtree(shard, ignore_errors=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self._disk_read(key) is not _MISSING

    def __len__(self) -> int:
        """Number of entries in the memory tier."""
        with self._lock:
            return len(self._memory)

    def _count(self, table: str) -> int:
        return self._store(
            lambda conn: conn.execute(f"SELECT count(*) FROM {table}").fetchone()[0],
            default=0,
        )

    def disk_entries(self) -> int:
        """Number of entries in the disk tier (0 without a directory)."""
        return self._count("entries")

    def disk_bytes(self) -> int:
        """Size of the disk tier in bytes (0 without a directory): each
        row's key, checksum and value, quarantined rows included (they
        count against :meth:`prune`'s bound and are pruned like any
        entry)."""
        return self._store(self._accounted_bytes, default=0)

    def quarantine_key(self, key: str) -> bool:
        """Quarantine ``key``'s disk entry and evict it from memory.

        The verification layer calls this when a checksum-clean entry fails
        its solution certificate: the next lookup is a true miss that
        re-solves.  Returns whether a disk entry existed."""
        with self._lock:
            self._memory.pop(key, None)
        try:
            return self._store(lambda conn: self._quarantine(conn, key), default=False)
        except OSError:
            return False

    def fsck(
        self,
        *,
        repair: bool = False,
        certify: Optional[Callable[[str, Any], bool]] = None,
    ) -> Dict[str, int]:
        """Offline integrity walk of the disk tier (``repro cache verify``).

        Every entry is re-read and validated: JSON parse, checksum
        recomputation, and — when ``certify`` is given — a full
        solution-certificate check of the payload (``certify(key, value)``
        returns ``False`` or raises to flag damage).  With ``repair`` the
        damaged entries move to the quarantine table (an unreadable
        database file counts as one damaged entry and is set aside);
        without it the walk is read-only.  Returns counters::

            {"scanned", "ok", "damaged", "quarantined", "in_quarantine"}

        ``in_quarantine`` is the quarantine table's size after the walk.
        """
        report = dict.fromkeys(
            ("scanned", "ok", "damaged", "quarantined", "in_quarantine"), 0
        )
        try:
            rows = self._store(
                lambda conn: conn.execute(
                    "SELECT key, sha256, value FROM entries ORDER BY key"
                ).fetchall(),
                default=[],
                set_aside=False,
            )
        except _Unreadable as exc:  # the whole file is one damaged entry
            report["damaged"] = 1
            if repair:
                with self._db_lock:
                    self._set_aside(exc)
                report["quarantined"] = 1
            return report
        for key, sha256, blob in rows:
            report["scanned"] += 1
            value = self._decode(sha256, blob)
            damaged = value is _MISSING
            if not damaged and certify is not None:
                try:
                    damaged = not certify(key, value)
                except Exception:
                    damaged = True
            if not damaged:
                report["ok"] += 1
                continue
            report["damaged"] += 1
            if repair:
                with self._lock:
                    self._memory.pop(key, None)
                if self._store(lambda conn: self._quarantine(conn, key), default=False):
                    report["quarantined"] += 1
        report["in_quarantine"] = self._count("quarantine")
        return report
