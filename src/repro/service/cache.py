"""Content-addressed result stores for the sweep service.

A :class:`ResultCache` maps case fingerprints
(:meth:`repro.service.plan.SweepPlan.case_fingerprint`) to condensed case
results.  Because a fingerprint covers everything the result depends on —
including the engine version salt — a hit can be served without looking at
the case again, and re-submitting an identical sweep costs one lookup per
case instead of one simulation.

The executor stores each result as a *row*: a plain tuple of the
result's non-cosmetic fields, the outcome spelled by its value string, with
no position, tag or recovery verdict.  The same physical case may appear at
different positions, with different tags, or under different recovery
criteria in different sweeps, and all of those variants share one entry;
the executor builds the result from the row with its own position, tag and
verdict.  A plain tuple pickles and unpickles several times faster than the
frozen result dataclass it stands for.

Two stores ship here:

* :class:`InMemoryCache` — a dict behind a lock; the default for a
  long-running service process.
* :class:`SqliteCache` — one small sqlite database file, results pickled
  into a blob column; survives restarts and is shared between processes on
  one machine.  Pickle keeps label values exact (reports served from a warm
  cache are equal to freshly computed ones, bit for bit), which a JSON
  store could not guarantee for arbitrary label types.

Both stores count hits and misses (:attr:`ResultCache.stats`); the service
layer surfaces the counters in job records and shard progress.  Each sqlite
blob carries a CRC-32 of its pickle, so a garbled or truncated entry — even
one that would still unpickle, to a wrong value — is served as a miss and
counted under ``corrupt``; recomputing the case overwrites it.  The
admission probe (:meth:`ResultCache.contains`) checks that checksum and
never unpickles.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass


#: What ``pickle.loads`` raises on garbled or truncated bytes: the
#: documented errors, plus a mangled string or enum value (``ValueError``),
#: a mangled callable or its arguments, or a non-blob value
#: (``TypeError``) and a mangled length prefix asking for an impossible
#: buffer (``OverflowError``, ``MemoryError``).
_UNDECODABLE = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    OverflowError,
    MemoryError,
)


class UndecodableEntry(Exception):
    """Raised by a store's ``_load`` when the stored bytes do not decode."""


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters, plus the derived hit rate.

    ``corrupt`` counts the misses whose entry was present but undecodable.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when untouched)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def describe(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses},"
            f" corrupt={self.corrupt}, hit_rate={self.hit_rate:.2%})"
        )


class ResultCache(ABC):
    """A content-addressed store of condensed case results."""

    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corrupt = 0

    @abstractmethod
    def _load(self, key: str):
        """The stored value for ``key``, or ``None``.

        Raises :class:`UndecodableEntry` when an entry is stored but its
        bytes no longer decode.
        """

    @abstractmethod
    def _store(self, key: str, value) -> None:
        """Persist ``value`` under ``key`` (overwriting is allowed)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    def get(self, key: str):
        """The cached result for ``key`` (``None`` on miss), counting.

        An undecodable entry is a miss and is also counted under
        ``corrupt``; the next :meth:`put` of ``key`` overwrites it.
        """
        with self._lock:
            try:
                value = self._load(key)
            except UndecodableEntry:
                self._corrupt += 1
                value = None
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
            return value

    def _probe(self, key: str) -> bool:
        """Whether ``key`` holds an entry :meth:`get` would serve: by
        default a full load (a dict lookup in memory), which a store whose
        load decodes overrides with a cheaper check."""
        try:
            return self._load(key) is not None
        except UndecodableEntry:
            return False

    def contains(self, key: str) -> bool:
        """Whether ``key`` is stored, *without* counting a hit or miss.

        Admission control probes the store to predict a plan's warm-case
        discount before deciding whether to run it; a probe is a prophecy,
        not a lookup, and must not skew the hit-rate counters.  It checks
        an sqlite row's checksum but does not unpickle it, so a row whose
        checksum holds yet whose pickle does not load counts as warm here,
        while :meth:`get` serves it as a counted corrupt miss.
        """
        with self._lock:
            return self._probe(key)

    def put(self, key: str, value) -> None:
        with self._lock:
            self._store(key, value)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, corrupt=self._corrupt
            )

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class InMemoryCache(ResultCache):
    """A plain in-process dict store."""

    def __init__(self):
        super().__init__()
        self._entries: dict[str, object] = {}

    def _load(self, key: str):
        return self._entries.get(key)

    def _store(self, key: str, value) -> None:
        self._entries[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"InMemoryCache(entries={len(self._entries)})"


#: Bytes of the big-endian CRC-32 that prefixes every sqlite blob.
_CHECKSUM_BYTES = 4


class SqliteCache(ResultCache):
    """A one-file sqlite store with checksummed, pickled result blobs.

    ``path`` may be a filesystem path or ``":memory:"``.  The connection is
    shared across threads behind the cache's lock (sqlite's own
    same-thread check is disabled); writes commit immediately so a crashed
    job loses at most the entry being written.  A blob is the CRC-32 of
    the pickle followed by the pickle; rows that fail the check, written
    before the checksum existed included, read as undecodable.
    """

    def __init__(self, path):
        super().__init__()
        self.path = str(path)
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False
        )
        with self._connection:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS results"
                " (key TEXT PRIMARY KEY, value BLOB NOT NULL)"
            )

    def _payload(self, key: str):
        """The checked pickle stored under ``key`` (``None`` when absent).

        Raises :class:`UndecodableEntry` when the checksum does not hold.
        """
        row = self._connection.execute(
            "SELECT value FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        blob = row[0]
        try:
            payload = memoryview(blob)[_CHECKSUM_BYTES:]
            checksum = zlib.crc32(payload).to_bytes(_CHECKSUM_BYTES, "big")
        except TypeError as exc:  # not a blob
            raise UndecodableEntry(key) from exc
        if blob[:_CHECKSUM_BYTES] != checksum:
            raise UndecodableEntry(key)
        return payload

    def _load(self, key: str):
        payload = self._payload(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except _UNDECODABLE as exc:
            raise UndecodableEntry(key) from exc

    def _probe(self, key: str) -> bool:
        try:
            return self._payload(key) is not None
        except UndecodableEntry:
            return False

    def _store(self, key: str, value) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = zlib.crc32(payload).to_bytes(_CHECKSUM_BYTES, "big") + payload
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO results (key, value) VALUES (?, ?)",
                (key, blob),
            )

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            return count

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __repr__(self) -> str:
        return f"SqliteCache(path={self.path!r})"
