"""Persistent cross-process evaluation cache.

The in-memory memoisation of :class:`~repro.api.Session` dies with the
process, so every new CLI invocation, sweep worker, or notebook kernel
pays the full simulation price again.  :class:`EvalCache` is the on-disk
layer behind it: a content-hash-keyed sqlite store of pickled
:class:`~repro.api.EvalResult` objects that any number of processes can
read and write concurrently (sqlite WAL mode), shared by ``repro``'s
CLI, the serving :class:`~repro.serving.costs.RequestCostModel`, and
the DSE searchers — all of which evaluate through a session.

Location (first match wins):

* an explicit ``Session(cache_dir=...)`` / ``--cache-dir`` path,
* the ``REPRO_CACHE_DIR`` environment variable,
* ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``.

``REPRO_NO_CACHE=1`` (or ``--no-cache``) disables the default store.

A row is a pickled :class:`~repro.api.EvalResult` whose model
configuration and platform are interned (:mod:`repro.interning`): each
is stored as the pickle of its field values, and loading a row hands
back the one live object of that value, so a process decodes each
configuration and platform once, not once per row.  The row's block
program records only a custom kernel library (``None`` stands for the
platform's default, which is rebuilt on demand).

Stores are stamped with a schema version and a code version: the
package version plus a digest of every source on the evaluation path
(graph, hardware, kernels, partition and scheduler, simulator, energy,
baselines, architectures, models, the strategies, the result type and
the interning of stored values).
Opening a store written under a different stamp drops its entries, so
editing cost-model code in a working tree — not only a release bump —
can never be answered with results of the old code.  Corrupt stores are
rebuilt (and unreadable entries treated as misses) rather than raised:
the cache is an accelerator, never a correctness dependency.

Writes are batched: :meth:`EvalCache.put` buffers the pickled row and
commits :data:`WRITE_BATCH_ROWS` rows in one short transaction.  Every
store of one process on the same file reads that process's buffered
rows; other processes see a row once it is flushed.  The buffer is
flushed when it fills, on :meth:`EvalCache.close` and
:meth:`EvalCache.flush`, and at interpreter exit, so a killed process
loses at most ``WRITE_BATCH_ROWS - 1`` results, which are recomputed
(to the same bytes) on the next miss.  A forked child starts with an
empty buffer: it never reads or writes rows its parent buffered.  The
worker processes of ``Session.run_many(..., parallel=N)`` never open
the store: the session looks every request up before the pool starts
and writes every row after it.

Sessions configured with a custom ``energy`` factory never attach a
store: arbitrary callables content-hash by qualified name only, which
is sound within one process (the factory is fixed per session) but
would collide across processes.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import sqlite3
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "WRITE_BATCH_ROWS",
    "CacheStats",
    "EvalCache",
    "default_cache_dir",
    "open_default_cache",
    "persistent_cache_disabled",
]

#: Bumped whenever the stored value layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: File name of the store inside the cache directory.
_DB_NAME = "evals.sqlite"

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable disabling the default persistent cache.
ENV_NO_CACHE = "REPRO_NO_CACHE"

_TRUTHY = {"1", "true", "yes", "on"}

#: Rows :meth:`EvalCache.put` buffers before committing them together.
WRITE_BATCH_ROWS = 64


def default_cache_dir() -> Path:
    """The default on-disk cache location (honouring the environment)."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def persistent_cache_disabled() -> bool:
    """Whether ``REPRO_NO_CACHE`` turns the default store off."""
    return os.environ.get(ENV_NO_CACHE, "").strip().lower() in _TRUTHY


def open_default_cache() -> Optional["EvalCache"]:
    """The default store, or ``None`` when disabled by the environment."""
    if persistent_cache_disabled():
        return None
    return EvalCache(default_cache_dir())


@dataclass(frozen=True)
class CacheStats:
    """Summary of one on-disk store (``repro cache stats``)."""

    path: str
    entries: int
    size_bytes: int
    schema_version: int
    code_version: str


#: Package-relative sources that decide what an evaluation returns: a
#: change to any of them must never be answered from an older store.
_EVALUATION_SOURCES = (
    "analysis/evaluate.py",
    "api/result.py",
    "api/strategies.py",
    "arch",
    "baselines",
    "core",
    "energy",
    "graph",
    "hw",
    "interning.py",
    "kernels",
    "models",
    "sim",
    "units.py",
)


@lru_cache(maxsize=None)
def _code_version() -> str:
    """The package version plus a digest of the evaluation-path sources.

    Computed once per process.  The digest covers file contents and
    package-relative paths, so editing, adding or removing a module on
    the evaluation path empties every store written before the edit.
    """
    from .. import __version__

    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in _EVALUATION_SOURCES:
        path = package / entry
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            digest.update(source.relative_to(package).as_posix().encode())
            digest.update(b"\x00")
            digest.update(source.read_bytes())
            digest.update(b"\x00")
    return f"{__version__}+{digest.hexdigest()[:16]}"


#: This process's uncommitted rows, by store file: the store that
#: buffered the first of them (it flushes them at exit) and the pickled
#: rows by key.  Shared by every :class:`EvalCache` on that file.
_PENDING: Dict[str, Tuple["EvalCache", Dict[str, bytes]]] = {}


@atexit.register
def _flush_pending() -> None:
    for store, _ in list(_PENDING.values()):
        store.flush()


if hasattr(os, "register_at_fork"):
    # A forked child must neither read nor commit its parent's rows.
    os.register_at_fork(after_in_child=_PENDING.clear)


class EvalCache:
    """A content-hash-keyed persistent store of evaluation results.

    Args:
        directory: Directory holding the sqlite file (created on demand).

    The store is deliberately forgiving: every sqlite or unpickling
    failure degrades to a cache miss (rebuilding the store when it is
    corrupt), so a broken cache file can never break an evaluation.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.path = self.directory / _DB_NAME
        self._pending_key = os.path.realpath(self.path)
        self._connection: Optional[sqlite3.Connection] = None
        self._broken = False
        #: Writes dropped after the bounded retry (store locked or
        #: unusable); surfaced as ``dropped_writes`` in
        #: :meth:`repro.api.Session.cache_info`.
        self.dropped_writes = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        """Open, configure, and version-check the store (may raise)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(
            str(self.path), timeout=10.0, isolation_level=None
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        # Wait out writer contention inside sqlite itself before an
        # OperationalError surfaces (WAL readers never block, but two
        # writers can still collide on the exclusive commit lock).
        connection.execute("PRAGMA busy_timeout=5000")
        self._initialise(connection)
        return connection

    def _connect(self) -> Optional[sqlite3.Connection]:
        if self._connection is not None or self._broken:
            return self._connection
        try:
            self._connection = self._open()
        except sqlite3.OperationalError:
            # Transient (locked by another process, briefly unopenable):
            # behave like a miss now and retry on the next call.  Never
            # rebuild here — deleting a merely-busy store would wipe the
            # cache out from under its other users.
            self._connection = None
        except (sqlite3.Error, OSError):
            self._connection = self._rebuild()
        return self._connection

    def _initialise(self, connection: sqlite3.Connection) -> None:
        connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS evals ("
            "key TEXT PRIMARY KEY, value BLOB NOT NULL)"
        )
        rows = dict(
            connection.execute("SELECT key, value FROM meta").fetchall()
        )
        expected = {
            "schema_version": str(CACHE_SCHEMA_VERSION),
            "code_version": _code_version(),
        }
        if rows != expected:
            # Schema or code version changed: every stored result is
            # suspect, so the store is emptied rather than consulted.
            # INSERT OR REPLACE keeps concurrent first-time
            # initialisation idempotent (two processes racing here must
            # not conjure an IntegrityError out of a healthy store).
            connection.execute("DELETE FROM evals")
            connection.execute("DELETE FROM meta")
            connection.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                sorted(expected.items()),
            )

    def _rebuild(self) -> Optional[sqlite3.Connection]:
        """Last resort for a corrupt store: delete the file and retry once.

        Rows this process buffered for the file go with it, as rows
        already written do.
        """
        _PENDING.pop(self._pending_key, None)
        try:
            if self._connection is not None:
                self._connection.close()
        except sqlite3.Error:
            pass
        self._connection = None
        try:
            for suffix in ("", "-wal", "-shm"):
                stale = Path(str(self.path) + suffix)
                if stale.exists():
                    stale.unlink()
            return self._open()
        except (sqlite3.Error, OSError):
            # The location is unusable (read-only filesystem, ...): mark
            # the store broken and behave like a permanently empty cache.
            self._broken = True
            return None

    def close(self) -> None:
        """Flush buffered rows and close the sqlite connection.

        The connection is reopened on demand.
        """
        self.flush()
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None

    # ------------------------------------------------------------------
    # Store operations
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The stored result for ``key``, or ``None`` on any kind of miss."""
        connection = self._connect()
        if connection is None:
            return None
        pending = _PENDING.get(self._pending_key)
        payload = pending[1].get(key) if pending is not None else None
        if payload is not None:
            return pickle.loads(payload)
        try:
            row = connection.execute(
                "SELECT value FROM evals WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.OperationalError:
            return None  # transient (locked): miss now, retry later
        except sqlite3.Error:
            self._connection = self._rebuild()
            return None
        if row is None:
            return None
        try:
            return pickle.loads(row[0])
        except Exception:
            # The entry does not unpickle (truncated write, renamed class,
            # ...): drop it and treat the lookup as a miss.
            try:
                connection.execute("DELETE FROM evals WHERE key = ?", (key,))
            except sqlite3.OperationalError:
                pass
            except sqlite3.Error:
                self._connection = self._rebuild()
            return None

    def put(self, key: str, result) -> None:
        """Store ``result`` under ``key`` (best effort, never raises).

        The pickled row joins this process's buffer for the store file,
        which is committed once it holds :data:`WRITE_BATCH_ROWS` rows
        (see :meth:`flush`).  A put on a store that cannot be opened is
        counted in :attr:`dropped_writes` at once.
        """
        if self._connect() is None:
            self.dropped_writes += 1
            return
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable result (custom models): skip persisting
        pending = _PENDING.get(self._pending_key)
        if pending is None:
            pending = _PENDING[self._pending_key] = (self, {})
        rows = pending[1]
        rows[key] = payload
        if len(rows) >= WRITE_BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Commit this process's buffered rows in one transaction.

        Best effort, never raises: a locked store gets one bounded retry
        (after a short sleep, on top of sqlite's own ``busy_timeout``),
        and every row of a batch that still fails is counted in
        :attr:`dropped_writes`, so sustained contention is observable
        instead of silent.
        """
        pending = _PENDING.pop(self._pending_key, None)
        if pending is None:
            return
        rows = pending[1]
        connection = self._connect()
        if connection is not None:
            for attempt in range(2):
                try:
                    connection.execute("BEGIN IMMEDIATE")
                    connection.executemany(
                        "INSERT OR REPLACE INTO evals (key, value) VALUES (?, ?)",
                        rows.items(),
                    )
                    connection.execute("COMMIT")
                    return
                except sqlite3.OperationalError:
                    _rollback(connection)
                    if attempt == 0:
                        time.sleep(0.05)  # one bounded retry, then give up
                except sqlite3.Error:
                    _rollback(connection)
                    self._connection = self._rebuild()
                    break
        self.dropped_writes += len(rows)

    def clear(self) -> int:
        """Drop every stored entry; returns how many were removed.

        The count is taken before connecting, so entries a version
        mismatch would wipe on connect are still reported as removed;
        buffered rows are flushed first and count too.
        """
        count = self.stats().entries
        connection = self._connect()
        if connection is None:
            return 0
        try:
            connection.execute("DELETE FROM evals")
            return count
        except sqlite3.OperationalError:
            return 0
        except sqlite3.Error:
            self._connection = self._rebuild()
            return 0

    def __len__(self) -> int:
        self.flush()
        connection = self._connect()
        if connection is None:
            return 0
        try:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM evals"
            ).fetchone()
            return int(count)
        except sqlite3.OperationalError:
            return 0
        except sqlite3.Error:
            self._connection = self._rebuild()
            return 0

    def stats(self) -> CacheStats:
        """Entry count, file size, and version stamps of the store.

        Read-only: the store is inspected as-is (reporting the versions
        it was *written* with), so looking at a store from another
        release never empties it — only the mutating operations
        (``get``/``put``/``clear``/``len``) apply the version-mismatch
        invalidation.  Rows this process has buffered are flushed first
        (a store with buffered rows was opened, so stamped, by this
        process), so they count.
        """
        self.flush()
        entries = 0
        schema = CACHE_SCHEMA_VERSION
        code = _code_version()
        size = 0
        if self.path.exists():
            try:
                size = self.path.stat().st_size
            except OSError:
                size = 0
            try:
                connection = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True, timeout=10.0
                )
                try:
                    meta = dict(
                        connection.execute(
                            "SELECT key, value FROM meta"
                        ).fetchall()
                    )
                    schema = int(meta.get("schema_version", schema))
                    code = meta.get("code_version", code)
                    (entries,) = connection.execute(
                        "SELECT COUNT(*) FROM evals"
                    ).fetchone()
                finally:
                    connection.close()
            except (sqlite3.Error, ValueError):
                pass  # unreadable or corrupt: report what is knowable
        return CacheStats(
            path=str(self.path),
            entries=int(entries),
            size_bytes=size,
            schema_version=schema,
            code_version=code,
        )


def _rollback(connection: sqlite3.Connection) -> None:
    """Abandon a failed batch's open transaction, if any."""
    try:
        connection.rollback()
    except sqlite3.Error:
        pass
