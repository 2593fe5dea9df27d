"""The persistent content-addressed sample & estimate store.

A :class:`SampleStore` is a directory of immutable entries, each holding
one pickled :class:`~repro.engine.samples.MaterializedSample` or one
pickled :class:`~repro.core.samplecf.SampleCFEstimate`, keyed by the
content fingerprints of :mod:`repro.store.fingerprint`. It is the disk
tier of the engine's two-tier cache: repeated CLI/advisor/benchmark
invocations over the same stored tables skip re-drawing (and, on exact
repeats, re-compressing) entirely.

Layout::

    <root>/
        STORE_FORMAT            # format version, checked on open
        samples/<aa>/<key>.bin  # one envelope per stored sample
        estimates/<aa>/<key>.bin
        locks/<key>.lock        # per-key materialization locks
        quarantine/             # corrupt envelopes, moved aside
        .store.lock             # store-wide structural lock

Entry envelope::

    magic "RPROSTORE1\\n" | 32-byte SHA-256 of body | body
    body = u32 meta_len | meta JSON | pickled payload

Guarantees:

* **append-safe, atomic writes** — entries are written to a tmp file in
  the destination directory and ``os.replace``-d into place, so readers
  only ever observe complete envelopes (no torn writes);
* **cross-process single materialization** —
  :meth:`get_or_create_sample` double-checks under a per-key ``flock``,
  so two processes racing one key materialize once;
* **corruption detection** — every read verifies the envelope checksum;
  a mismatch quarantines the file (moved, never deleted) and reads as a
  miss, so the caller transparently re-materializes;
* **size-bounded LRU eviction** — reads bump the entry's mtime;
  :meth:`prune` (and every write, when ``max_bytes`` is set) removes
  least-recently-used entries until the store fits;
* **invalidation** — keys embed the source's content fingerprint, so a
  mutated table simply stops matching its old entries; those age out
  via eviction or can be dropped eagerly with
  :meth:`invalidate_source`.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import pathlib
import pickle
import struct
import tempfile
import threading
import time
from typing import Any, Callable, Iterator, NamedTuple

from repro.errors import (InjectedFault, PermanentStoreError, StoreError,
                          TransientStoreError)
from repro.engine.samples import MaterializedSample
from repro.faults import FaultInjector, NULL_INJECTOR, NullInjector, \
    injector_from_env
from repro.store.locks import FileLock

#: On-disk format version; bumped on incompatible envelope changes.
#: Format 2 stores table samples as record bytes (buffer, offsets and
#: RID array) where format 1 stored decoded row tuples.
STORE_FORMAT = 2

_MAGIC = b"RPROSTORE1\n"
_CHECKSUM_BYTES = 32
_META_LEN = struct.Struct(">I")

_KINDS = ("samples", "estimates")


class _Corrupt(Exception):
    """Internal: an envelope failed validation (never escapes the store)."""


class StoreEntry(NamedTuple):
    """One on-disk entry, as listed by :meth:`SampleStore.entries`."""

    kind: str
    key: str
    path: pathlib.Path
    size_bytes: int
    mtime: float


#: OS error codes a retry can plausibly clear: contention, interrupted
#: syscalls, momentary resource exhaustion. Everything else stays a
#: plain :class:`StoreError` (degrade immediately, no retry).
_TRANSIENT_ERRNOS = frozenset({
    errno.EAGAIN, errno.EINTR, errno.EBUSY, errno.ENOSPC, errno.EDQUOT,
    errno.ETIMEDOUT, errno.EMFILE, errno.ENFILE,
})


def _store_error_for(exc: OSError) -> type[StoreError]:
    """The StoreError subclass matching an OS error's retryability."""
    if exc.errno in _TRANSIENT_ERRNOS:
        return TransientStoreError
    return StoreError


def _checksum(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()


def _pack_envelope(meta: dict, payload: bytes) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = _META_LEN.pack(len(meta_bytes)) + meta_bytes + payload
    return _MAGIC + _checksum(body) + body


def _unpack_envelope(blob: bytes) -> tuple[dict, bytes]:
    if not blob.startswith(_MAGIC):
        raise _Corrupt("bad magic")
    offset = len(_MAGIC)
    checksum = blob[offset:offset + _CHECKSUM_BYTES]
    body = blob[offset + _CHECKSUM_BYTES:]
    if len(checksum) != _CHECKSUM_BYTES or _checksum(body) != checksum:
        raise _Corrupt("checksum mismatch")
    if len(body) < _META_LEN.size:
        raise _Corrupt("truncated body")
    (meta_len,) = _META_LEN.unpack_from(body)
    meta_end = _META_LEN.size + meta_len
    if len(body) < meta_end:
        raise _Corrupt("truncated metadata")
    try:
        meta = json.loads(body[_META_LEN.size:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _Corrupt(f"unreadable metadata: {exc}")
    return meta, body[meta_end:]


def _sample_for_disk(sample: MaterializedSample) -> MaterializedSample:
    """A copy of ``sample`` without its built indexes.

    Sample indexes are derived data (rebuilt lazily, deterministically,
    from the record buffer, offsets and RIDs) and can outweigh the
    records themselves; persisting them would bloat the store without
    changing any estimate.
    """
    state = dict(sample.__getstate__())
    state["indexes"] = {}
    clone = MaterializedSample.__new__(MaterializedSample)
    clone.__setstate__(state)
    return clone


class SampleStore:
    """A persistent, content-addressed store of samples and estimates.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.
    max_bytes:
        Optional size budget. When set, every write triggers LRU
        eviction down to the budget; when unset the store only shrinks
        via explicit :meth:`prune` / :meth:`clear`.

    Handles are cheap and picklable (only the configuration crosses
    process boundaries), so process-pool workers can share one store
    directory instead of private cold caches.
    """

    def __init__(self, root: str | os.PathLike,
                 max_bytes: int | None = None,
                 injector: "FaultInjector | NullInjector | None" = None,
                 ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise StoreError(
                f"store size budget must be positive, got {max_bytes}")
        self.root = pathlib.Path(root).expanduser()
        self.max_bytes = max_bytes
        # Fault hooks: explicit injector, else the REPRO_FAULT_PLAN
        # environment hook (how subprocess workers inherit chaos
        # plans), else the allocation-free no-op.
        self.injector = injector if injector is not None \
            else injector_from_env()
        self._counter_lock = threading.Lock()
        #: Per-thread attribution sink (see :meth:`attributed`): the
        #: handle-global :attr:`counters` always move, and a thread
        #: that entered an attribution scope additionally mirrors its
        #: own movement into the scope's sink — which is how a batch
        #: charges exactly its own store I/O when several batches
        #: share this handle concurrently.
        self._local = threading.local()
        #: Running size estimate this handle maintains so budgeted
        #: writes don't rescan the directory every time; ``None`` until
        #: the first budget check seeds it from a real scan.
        self._approx_bytes: int | None = None
        self.counters: dict[str, int] = {
            "sample_hits": 0, "sample_misses": 0, "sample_writes": 0,
            "estimate_hits": 0, "estimate_misses": 0,
            "estimate_writes": 0, "quarantined": 0, "evicted": 0,
            "bytes_read": 0, "bytes_written": 0, "faults_injected": 0,
        }
        self._init_layout()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _init_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for kind in _KINDS:
            (self.root / kind).mkdir(exist_ok=True)
        (self.root / "quarantine").mkdir(exist_ok=True)
        (self.root / "locks").mkdir(exist_ok=True)
        version_file = self.root / "STORE_FORMAT"
        if version_file.exists():
            text = version_file.read_text(encoding="ascii").strip()
            if text != str(STORE_FORMAT):
                raise PermanentStoreError(
                    f"store at {self.root} uses format {text!r}; this "
                    f"build reads format {STORE_FORMAT} — clear the "
                    f"directory or point --store-dir elsewhere")
        else:
            # tmp+replace, not write_text: two processes opening a
            # fresh store concurrently must never let one read the
            # other's half-written (empty) version file. Both racing
            # writers publish identical content, so last-replace-wins
            # is harmless.
            fd, tmp = tempfile.mkstemp(prefix=".tmp-format-",
                                       dir=self.root)
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(f"{STORE_FORMAT}\n")
            os.replace(tmp, version_file)

    def _entry_path(self, kind: str, key: str) -> pathlib.Path:
        if kind not in _KINDS:
            raise PermanentStoreError(f"unknown entry kind {kind!r}")
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise PermanentStoreError(
                f"store keys are hex digests, got {key!r}")
        return self.root / kind / key[:2] / f"{key}.bin"

    def _store_lock(self) -> FileLock:
        return FileLock(self.root / ".store.lock")

    def _key_lock(self, key: str) -> FileLock:
        return FileLock(self.root / "locks" / f"{key}.lock")

    def _count(self, name: str, amount: int = 1) -> None:
        sink = getattr(self._local, "sink", None)
        with self._counter_lock:
            self.counters[name] += amount
            if sink is not None:
                sink[name] = sink.get(name, 0) + amount

    @contextlib.contextmanager
    def attributed(self, sink: "dict[str, int] | None",
                   ) -> Iterator[None]:
        """Mirror this thread's counter movement into ``sink`` too.

        Attribution is thread-scoped on purpose: a store handle shared
        by concurrent batches (one engine, many ``execute()`` calls)
        cannot attribute movement per batch from handle-global
        counters — a before/after snapshot diff charges each batch the
        *union* of all concurrent movement. Each unit's store I/O runs
        on a thread that belongs to exactly one batch, so a
        thread-local sink set around the store call charges exactly
        that batch. ``None`` is a no-op so call sites don't branch.
        Scopes nest (the previous sink is restored on exit); sink
        updates share :attr:`_counter_lock`, so one sink dict may be
        fed by several threads of the same batch.
        """
        if sink is None:
            yield
            return
        previous = getattr(self._local, "sink", None)
        self._local.sink = sink
        try:
            yield
        finally:
            self._local.sink = previous

    # ------------------------------------------------------------------
    # Fault hooks (no-ops unless an injector is armed)
    # ------------------------------------------------------------------
    def _injected_read(self, blob: bytes) -> bytes:
        """Apply any scheduled ``store.read`` fault to a read blob."""
        spec = self.injector.fire("store.read")
        if spec is None:
            return blob
        self._count("faults_injected")
        if spec.kind == "error":
            raise TransientStoreError(
                "injected store.read fault (transient I/O error)")
        offset = int(spec.arg) % max(len(blob), 1)
        if spec.kind == "corrupt":
            # Flip one byte — the envelope checksum must catch it and
            # the entry must quarantine, never decode garbage.
            return (blob[:offset] + bytes([blob[offset] ^ 0xFF])
                    + blob[offset + 1:])
        return blob[:offset]  # "truncate": a short read

    def _injected_write(self, blob: bytes,
                        directory: pathlib.Path) -> None:
        """Apply any scheduled ``store.write`` fault before publishing."""
        spec = self.injector.fire("store.write")
        if spec is None:
            return
        self._count("faults_injected")
        if spec.kind == "error":
            raise TransientStoreError(
                "injected store.write fault (transient I/O error)")
        if spec.kind == "error_permanent":
            raise PermanentStoreError(
                "injected store.write fault (permanent)")
        # "torn" / "crash": simulate the writer dying mid-write — the
        # partial envelope lands in a private tmp file that is never
        # os.replace-d, exactly the on-disk state a real kill leaves.
        offset = min(int(spec.arg), len(blob))
        fd, tmp = tempfile.mkstemp(prefix=f".tmp-{os.getpid()}-",
                                   dir=directory)
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob[:offset])
            handle.flush()
            os.fsync(handle.fileno())
        if spec.kind == "crash":
            os._exit(32)
        raise InjectedFault(
            f"injected torn write after {offset} of {len(blob)} bytes "
            f"(tmp file abandoned at {tmp})")

    # ------------------------------------------------------------------
    # Raw entry I/O
    # ------------------------------------------------------------------
    def _write_entry(self, kind: str, key: str, payload_obj: Any,
                     meta: dict | None = None) -> int:
        path = self._entry_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        full_meta = dict(meta or {})
        # repro-lint: ignore[RPL001] -- wall-clock envelope metadata
        # (creation time for debugging/audit); it never feeds keys,
        # checksums cover it separately, and readers ignore it.
        full_meta.update({"kind": kind, "key": key,
                          "created": time.time()})
        try:
            payload = pickle.dumps(payload_obj,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise PermanentStoreError(
                f"cannot serialize {kind} entry {key[:12]}…: {exc}"
            ) from exc
        blob = _pack_envelope(full_meta, payload)
        if self.injector.enabled:
            self._injected_write(blob, path.parent)
        tmp = None
        try:
            # mkstemp: a unique name per call, so concurrent writers of
            # the same key (two threads racing one estimate) each get a
            # private tmp file and os.replace publishes whole envelopes
            # only — never interleaved ones.
            fd, tmp = tempfile.mkstemp(prefix=f".tmp-{os.getpid()}-",
                                       dir=path.parent)
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                pathlib.Path(tmp).unlink(missing_ok=True)
            raise _store_error_for(exc)(
                f"cannot write store entry under {self.root}: {exc}"
            ) from exc
        if self.max_bytes is not None:
            self._note_write(len(blob))
        self._count("bytes_written", len(blob))
        return len(blob)

    def _read_entry(self, kind: str, key: str) -> Any | None:
        path = self._entry_path(kind, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise _store_error_for(exc)(
                f"cannot read store entry {path}: {exc}") from exc
        if self.injector.enabled:
            blob = self._injected_read(blob)
        self._count("bytes_read", len(blob))
        try:
            _meta, payload = _unpack_envelope(blob)
            value = pickle.loads(payload)
        except Exception as exc:  # _Corrupt or a failed unpickle
            self._quarantine(path, kind, key, exc)
            return None
        try:
            os.utime(path, None)  # LRU recency signal
        except OSError:  # pragma: no cover - entry raced an eviction
            pass
        return value

    def _quarantine(self, path: pathlib.Path, kind: str, key: str,
                    exc: Exception) -> None:
        """Move a corrupt entry aside so the key reads as a miss.

        Quarantined files are renamed, never deleted — the bytes stay
        available for post-mortem while the store heals itself by
        re-materializing the entry on the next request.
        """
        target = self.root / "quarantine" / f"{kind}-{key}.bin"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - concurrent quarantine race
            path.unlink(missing_ok=True)
        self._count("quarantined")

    # ------------------------------------------------------------------
    # Samples
    # ------------------------------------------------------------------
    def get_sample(self, key: str) -> MaterializedSample | None:
        """The stored sample under ``key``, or ``None`` on a miss."""
        value = self._read_entry("samples", key)
        if isinstance(value, MaterializedSample):
            self._count("sample_hits")
            return value
        if value is not None:  # wrong type smells like key reuse
            self._quarantine(self._entry_path("samples", key),
                             "samples", key,
                             StoreError("entry is not a sample"))
        self._count("sample_misses")
        return None

    def put_sample(self, key: str, sample: MaterializedSample,
                   meta: dict | None = None) -> None:
        """Persist one materialized sample (built indexes stripped)."""
        self._write_entry("samples", key, _sample_for_disk(sample), meta)
        self._count("sample_writes")

    def get_or_create_sample(self, key: str,
                             factory: Callable[[], MaterializedSample],
                             meta: dict | None = None,
                             ) -> tuple[MaterializedSample, bool]:
        """Load ``key``, or materialize-and-store exactly once.

        Returns ``(sample, was_hit)``. Cross-process single-flight: the
        factory only runs while holding the key's file lock, and the
        second check under the lock turns the loser of a race into a
        plain disk hit.
        """
        sample = self.get_sample(key)
        if sample is not None:
            return sample, True
        if self.injector.enabled and \
                self.injector.fire("store.lock") is not None:
            self._count("faults_injected")
            raise TransientStoreError(
                f"injected store.lock fault for key {key[:12]}…")
        with self._key_lock(key):
            sample = self.get_sample(key)
            if sample is not None:
                return sample, True
            sample = factory()
            self.put_sample(key, sample, meta)
            return sample, False

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def get_estimate(self, key: str) -> Any | None:
        """The stored estimate under ``key``, or ``None`` on a miss."""
        value = self._read_entry("estimates", key)
        if value is None:
            self._count("estimate_misses")
            return None
        self._count("estimate_hits")
        return value

    def put_estimate(self, key: str, estimate: Any,
                     meta: dict | None = None) -> None:
        """Persist one finished estimate."""
        self._write_entry("estimates", key, estimate, meta)
        self._count("estimate_writes")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """All live entries (quarantine excluded), unordered."""
        for kind in _KINDS:
            base = self.root / kind
            if not base.exists():
                continue
            for bucket in sorted(base.iterdir()):
                if not bucket.is_dir():
                    continue
                for path in sorted(bucket.glob("*.bin")):
                    try:
                        stat = path.stat()
                    except OSError:  # pragma: no cover - eviction race
                        continue
                    yield StoreEntry(kind=kind, key=path.stem, path=path,
                                     size_bytes=stat.st_size,
                                     mtime=stat.st_mtime)

    def entry_meta(self, entry: StoreEntry) -> dict | None:
        """The metadata header of one entry (``None`` if unreadable)."""
        try:
            meta, _payload = _unpack_envelope(entry.path.read_bytes())
        except (OSError, _Corrupt):
            return None
        return meta

    def stats(self) -> dict:
        """Entry counts and byte totals per kind, plus configuration."""
        per_kind = {kind: {"entries": 0, "bytes": 0} for kind in _KINDS}
        for entry in self.entries():
            per_kind[entry.kind]["entries"] += 1
            per_kind[entry.kind]["bytes"] += entry.size_bytes
        quarantine = self.root / "quarantine"
        quarantined = [p for p in quarantine.glob("*.bin")] \
            if quarantine.exists() else []
        return {
            "root": str(self.root),
            "format": STORE_FORMAT,
            "max_bytes": self.max_bytes,
            "samples": per_kind["samples"],
            "estimates": per_kind["estimates"],
            "total_entries": sum(k["entries"] for k in per_kind.values()),
            "total_bytes": sum(k["bytes"] for k in per_kind.values()),
            "quarantined": {
                "entries": len(quarantined),
                "bytes": sum(p.stat().st_size for p in quarantined),
            },
            "counters": dict(self.counters),
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # ------------------------------------------------------------------
    # Eviction / maintenance
    # ------------------------------------------------------------------
    def _note_write(self, size: int) -> None:
        """Budget bookkeeping after one write; evicts when over.

        The running total is per-handle and best-effort (other
        processes' writes aren't seen until the next real scan), so it
        only decides *when* to pay for an eviction pass — every pass
        itself recomputes exact sizes from the directory. Overwrites
        double-count, which errs toward evicting early, never late by
        more than other processes' unseen writes.
        """
        with self._counter_lock:
            if self._approx_bytes is None:
                self._approx_bytes = sum(entry.size_bytes
                                         for entry in self.entries())
            else:
                self._approx_bytes += size
            over = self._approx_bytes > self.max_bytes
        if over:
            self._evict_to(self.max_bytes)

    def _evict_to(self, max_bytes: int) -> tuple[int, int]:
        """Drop least-recently-used entries until the store fits."""
        with self._store_lock():
            entries = sorted(self.entries(), key=lambda e: e.mtime)
            total = sum(entry.size_bytes for entry in entries)
            evicted_entries = 0
            evicted_bytes = 0
            for entry in entries:
                if total <= max_bytes:
                    break
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - concurrent unlink
                    continue
                total -= entry.size_bytes
                evicted_entries += 1
                evicted_bytes += entry.size_bytes
        with self._counter_lock:
            self._approx_bytes = total
        if evicted_entries:
            self._count("evicted", evicted_entries)
        return evicted_entries, evicted_bytes

    def prune(self, max_bytes: int) -> dict:
        """Evict LRU entries until the store is at most ``max_bytes``."""
        if max_bytes < 0:
            raise StoreError(
                f"prune budget must be non-negative, got {max_bytes}")
        evicted_entries, evicted_bytes = self._evict_to(max_bytes)
        return {"evicted_entries": evicted_entries,
                "evicted_bytes": evicted_bytes,
                "remaining_bytes": self.stats()["total_bytes"]}

    def clear(self) -> int:
        """Remove every live entry (quarantine is kept); returns count."""
        removed = 0
        with self._store_lock():
            for entry in list(self.entries()):
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - concurrent unlink
                    continue
                removed += 1
        with self._counter_lock:
            self._approx_bytes = 0
        return removed

    def invalidate_source(self, source_fingerprint: str) -> int:
        """Eagerly drop all entries recorded against one source.

        Content addressing already makes stale entries unreachable (a
        mutated table fingerprints differently); this reclaims their
        space immediately instead of waiting for LRU eviction.
        """
        removed = 0
        with self._store_lock():
            for entry in list(self.entries()):
                meta = self.entry_meta(entry)
                if meta is None or \
                        meta.get("source") != source_fingerprint:
                    continue
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - concurrent unlink
                    continue
                removed += 1
        with self._counter_lock:
            self._approx_bytes = None  # re-seed from a scan next time
        return removed

    # ------------------------------------------------------------------
    # Serialisation (process-pool workers share a handle)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"root": str(self.root), "max_bytes": self.max_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["root"], max_bytes=state["max_bytes"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = (f", max_bytes={self.max_bytes}"
                  if self.max_bytes is not None else "")
        return f"SampleStore({str(self.root)!r}{budget})"


def open_store(store: "SampleStore | str | os.PathLike | None",
               max_bytes: int | None = None) -> "SampleStore | None":
    """Normalise a store argument: a handle passes through, a path opens.

    ``None`` stays ``None`` — callers use this to make ``store=``
    parameters accept either form without caring which they got.
    """
    if store is None:
        return None
    if isinstance(store, SampleStore):
        return store
    return SampleStore(store, max_bytes=max_bytes)
