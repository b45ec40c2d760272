"""Content-addressed on-disk store for experiment results.

:class:`ResultStore` persists expensive experiment outputs (one trained
design point, Monte-Carlo summary or set of reference designs per entry)
under a key derived from *what* was computed -- the
:class:`~repro.core.design.DesignSpec` fields and the code version --
rather than *when*.  Unlike the in-process
``lru_cache`` it replaces, the store survives interpreter restarts and is
shared between processes and CI jobs: a nightly run warms the cache that the
next benchmark script reads.

Keys are SHA-256 digests of a canonical JSON rendering of the key fields, so
equivalent configurations hash identically no matter the argument order or
container type (list vs tuple), and any change to the key fields -- including
the code version baked in by default -- addresses fresh entries, which makes
stale results from older code invisible rather than wrong.

Values are stored as individual pickle files written atomically
(``os.replace``), so concurrent writers on the same filesystem never expose
partial entries.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import tarfile
import tempfile
import time
import uuid
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

#: Bump when the *stored payload* layout changes incompatibly (independent of
#: the package version, which already participates in the key).  Schema 2:
#: suites are stored as one reference entry plus one DesignPoint entry per
#: grid point, all keyed through :class:`repro.core.design.DesignSpec`.
STORE_SCHEMA_VERSION = 2

#: A ``*.tmp`` file younger than this is presumed to be a concurrent writer's
#: in-flight entry (mkstemp -> os.replace window) and is never swept.
_TMP_GRACE_S = 3600.0

#: Entry member names allowed out of an archive: exactly one SHA-256 key plus
#: the ``.pkl`` suffix -- flat, no path separators, so a crafted archive can
#: never write outside the staging directory.
_ARCHIVE_ENTRY_RE = re.compile(r"[0-9a-f]{64}\.pkl")


def code_version() -> str:
    """Version tag baked into every key: package version + store schema."""
    import repro  # deferred: repro/__init__ imports this module transitively

    return f"{repro.__version__}/schema{STORE_SCHEMA_VERSION}"


def _canonical(value):
    """Reduce ``value`` to JSON-serializable primitives, deterministically.

    Tuples and lists collapse to the same representation, dict keys are
    sorted, and dataclasses (e.g. the technology object) are expanded to
    ``class name + field dict`` so two equal configurations always produce
    the same canonical form.  Non-dataclass objects may opt in by exposing a
    ``canonical_form()`` method returning primitives (e.g. the cell
    library); anything else falls back to its ``repr``, which must then be
    stable across processes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    canonical_form = getattr(value, "canonical_form", None)
    if callable(canonical_form):
        return {
            "__canonical__": type(value).__qualname__,
            "value": _canonical(canonical_form()),
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=repr)
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            **{f.name: _canonical(getattr(value, f.name)) for f in fields(value)},
        }
    # Last resort: a stable repr (covers e.g. numpy scalars via their repr).
    return repr(value)


def content_digest(**fields) -> str:
    """SHA-256 of the canonical JSON form of ``fields`` -- no version mixing.

    This is the raw content address: two equal configurations digest
    identically across processes *and across code versions*.  The model
    registry (:mod:`repro.serve.registry`) keys artifacts on it, so a
    promoted model keeps its identity over package upgrades.  Cache keys,
    which must *not* survive upgrades, go through :func:`make_key` instead.
    """
    rendered = json.dumps(_canonical(fields), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def make_key(**key_fields) -> str:
    """Content-address a configuration: SHA-256 of its canonical JSON form.

    The current :func:`code_version` is mixed in unless the caller provides
    an explicit ``code_version`` field, so results computed by older code
    never alias results of the current code.
    """
    key_fields.setdefault("code_version", code_version())
    return content_digest(**key_fields)


@dataclass
class StoreStats:
    """Hit/miss/store counters of one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.stores = 0


@dataclass(frozen=True)
class StoreDiskStats:
    """On-disk footprint of a :class:`ResultStore` directory.

    Attributes
    ----------
    n_entries / total_bytes:
        Count and cumulative size of the stored entries.
    oldest_age_s / newest_age_s:
        Age (seconds since last modification) of the oldest and newest
        entries; ``None`` when the store is empty.
    """

    n_entries: int
    total_bytes: int
    oldest_age_s: float | None = None
    newest_age_s: float | None = None


@dataclass(frozen=True)
class MergeReport:
    """Outcome of folding one store (or archive) into another.

    Attributes
    ----------
    merged / skipped:
        Entries copied in vs. entries already present (content-address
        dedup: same key means same result, so duplicates are never
        re-copied).
    stats_merged:
        Whether the source's lifetime hit/miss accounting was absorbed into
        the target's (False when the source never recorded any).
    """

    merged: int
    skipped: int
    stats_merged: bool

    @property
    def source_entries(self) -> int:
        """Total entries the source held (merged + skipped)."""
        return self.merged + self.skipped


def default_cache_dir() -> Path:
    """Default on-disk location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


class ResultStore:
    """Content-addressed pickle store on the local filesystem.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created on first write).  Defaults to
        :func:`default_cache_dir`, so separate processes of the same user
        share one store out of the box; CI jobs point it at a workspace
        directory via ``--cache-dir`` / ``$REPRO_CACHE_DIR``.
    touch_on_get:
        When True (default), :meth:`get` refreshes the entry's mtime on every
        hit so LRU eviction tracks last *access*.  Pass False for a fast-read
        store that must never write to the cache directory -- the serving hot
        path (:mod:`repro.serve`) uses this so a scorer leaves zero write
        traffic (and zero mtime churn) on a shared cache while serving.

    Examples
    --------
    >>> store = ResultStore(cache_dir="/tmp/repro-cache")
    >>> key = store.make_key(dataset="seeds", seed=0, depths=(2, 3), taus=(0.0,))
    >>> store.get(key) is None   # first process: miss ...
    True
    >>> store.put(key, {"accuracy": 0.9})
    >>> store.get(key)           # ... any later process: hit
    {'accuracy': 0.9}
    >>> store.stats.hits, store.stats.misses
    (1, 1)
    """

    def __init__(
        self, cache_dir: str | Path | None = None, *, touch_on_get: bool = True
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ValueError(
                f"cache_dir {str(self.cache_dir)!r} exists and is not a directory"
            )
        self.touch_on_get = touch_on_get
        self.stats = StoreStats()
        #: Snapshot of the counters at the last :meth:`flush_stats`, so the
        #: flush only adds the delta accumulated since.
        self._flushed = StoreStats()
        #: Search-trial accounting of this instance (trials resolved from
        #: cache vs. freshly trained), flushed alongside the hit/miss
        #: counters.  Store-local: merges never absorb another store's
        #: search counters, because a trial "trained here" is a property of
        #: this store's history, not of the entries it happens to hold.
        self._search = {"from_cache": 0, "trained": 0}
        self._search_flushed = {"from_cache": 0, "trained": 0}

    # ------------------------------------------------------------------ #
    # keys and paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(**key_fields) -> str:
        """See :func:`make_key` (exposed on the class for convenience)."""
        return make_key(**key_fields)

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.cache_dir / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # store operations
    # ------------------------------------------------------------------ #
    def get(self, key: str, default=None):
        """Load the entry for ``key``, counting a hit or a miss.

        Unreadable entries (truncated writes from killed processes, pickles
        of incompatible classes) count as misses and are evicted.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except Exception:
            self.invalidate(key)
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        if self.touch_on_get:
            try:
                # Mark recency so LRU eviction (prune_to_size) and age pruning
                # keep entries that are still being *read*, not just written.
                os.utime(path)
            except OSError:  # read-only store: recency tracking degrades silently
                pass
        return value

    def put(self, key: str, value) -> Path:
        """Persist ``value`` under ``key`` atomically; returns the entry path."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        self.stats.stores += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def invalidate(self, key: str) -> bool:
        """Drop the entry for ``key``; True when something was removed."""
        try:
            os.unlink(self.path_for(key))
            return True
        except (FileNotFoundError, NotADirectoryError):
            return False

    def clear(self) -> int:
        """Drop every entry; returns the number of removed entries.

        Also sweeps ``*.tmp`` files orphaned by writers killed between
        ``mkstemp`` and ``os.replace`` (those do not count as entries).
        """
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
            for path in self.cache_dir.glob("*.tmp"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

    # ------------------------------------------------------------------ #
    # lifecycle tooling (repro.cli cache)
    # ------------------------------------------------------------------ #
    def disk_stats(self) -> StoreDiskStats:
        """Entry count, cumulative size and age range of the on-disk store."""
        n_entries = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    stat = path.stat()
                except FileNotFoundError:  # concurrently evicted
                    continue
                n_entries += 1
                total_bytes += stat.st_size
                oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
                newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
        now = time.time()
        return StoreDiskStats(
            n_entries=n_entries,
            total_bytes=total_bytes,
            oldest_age_s=None if oldest is None else max(0.0, now - oldest),
            newest_age_s=None if newest is None else max(0.0, now - newest),
        )

    def prune_older_than(self, max_age_s: float) -> int:
        """Drop entries untouched for more than ``max_age_s`` seconds.

        Returns the number of removed entries.  Orphaned ``*.tmp`` files past
        the age limit are swept as well (not counted).
        """
        if max_age_s < 0:
            raise ValueError("max_age_s must be >= 0")
        removed = 0
        cutoff = time.time() - max_age_s
        if self.cache_dir.is_dir():
            for pattern, counted in (("*.pkl", True), ("*.tmp", False)):
                for path in self.cache_dir.glob(pattern):
                    try:
                        if path.stat().st_mtime < cutoff:
                            path.unlink()
                            removed += int(counted)
                    except FileNotFoundError:
                        continue
        return removed

    def prune_to_size(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        Recency is the entry's modification time, which :meth:`get` refreshes
        on every hit -- so eviction order is by last *access*, keeping a
        long-lived CI cache's working set warm while bounding its footprint.
        Stale orphaned ``*.tmp`` files are swept first (not counted); fresh
        ones are left alone, because they may be the in-flight writes of a
        concurrent :meth:`put` on a shared store.  Returns the number of
        removed entries.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if not self.cache_dir.is_dir():
            return 0
        tmp_cutoff = time.time() - _TMP_GRACE_S
        for path in self.cache_dir.glob("*.tmp"):
            try:
                if path.stat().st_mtime < tmp_cutoff:
                    path.unlink()
            except FileNotFoundError:
                pass
        entries: list[tuple[float, int, Path]] = []
        total_bytes = 0
        for path in self.cache_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except FileNotFoundError:  # concurrently evicted
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total_bytes += stat.st_size
        entries.sort(key=lambda entry: (entry[0], str(entry[2])))
        removed = 0
        for _, size, path in entries:
            if total_bytes <= max_bytes:
                break
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
            # A concurrently removed entry no longer occupies space either way.
            total_bytes -= size
        return removed

    # ------------------------------------------------------------------ #
    # persistent hit/miss accounting
    # ------------------------------------------------------------------ #
    @property
    def _stats_path(self) -> Path:
        return self.cache_dir / "_stats.json"

    def _read_stats_file(self) -> dict:
        """The raw ``_stats.json`` object ({} when absent or corrupt)."""
        try:
            with open(self._stats_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            return raw if isinstance(raw, dict) else {}
        except (OSError, ValueError):
            return {}

    def _read_lifetime_stats(self) -> dict[str, int]:
        """This store's *own* persisted counters (merged sources excluded)."""
        raw = self._read_stats_file()
        try:
            return {
                field: int(raw.get(field, 0)) for field in ("hits", "misses", "stores")
            }
        except (ValueError, TypeError):
            return {"hits": 0, "misses": 0, "stores": 0}

    def _read_sources(self) -> dict[str, dict[str, int]]:
        """Per-source counters absorbed by :meth:`merge_from`, keyed by store id."""
        raw = self._read_stats_file().get("sources")
        sources: dict[str, dict[str, int]] = {}
        if isinstance(raw, dict):
            for source_id, counters in raw.items():
                if not isinstance(counters, dict):
                    continue
                try:
                    sources[str(source_id)] = {
                        field: int(counters.get(field, 0))
                        for field in ("hits", "misses", "stores")
                    }
                except (ValueError, TypeError):
                    continue
        return sources

    def _write_stats_file(self, payload: dict) -> bool:
        """Atomically rewrite ``_stats.json``; False when the store is read-only."""
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._stats_path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        return True

    def _persistent_store_id(self, create: bool = False) -> str | None:
        """Stable identity of this store directory, persisted in ``_stats.json``.

        The id is what makes stats aggregation across :meth:`merge_from`
        *idempotent*: a source's counters are recorded under its id
        (replacing any earlier record), so re-merging the same shard store
        never double-counts.  Generated lazily on first need; ``None`` on a
        read-only store that never had one (its counters then simply cannot
        be aggregated).
        """
        raw = self._read_stats_file()
        store_id = raw.get("store_id")
        if isinstance(store_id, str) and store_id:
            return store_id
        if not create:
            return None
        store_id = uuid.uuid4().hex
        payload = dict(raw)
        payload["store_id"] = store_id
        if not self._write_stats_file(payload):
            return None
        return store_id

    def _read_search_stats(self) -> dict[str, int]:
        """This store's persisted search-trial counters ({0, 0} when absent)."""
        raw = self._read_stats_file().get("search")
        counters = {"from_cache": 0, "trained": 0}
        if isinstance(raw, dict):
            for field in counters:
                try:
                    counters[field] = int(raw.get(field, 0))
                except (ValueError, TypeError):
                    counters[field] = 0
        return counters

    def record_search_stats(self, *, from_cache: int = 0, trained: int = 0) -> None:
        """Count search trials resolved from cache vs. freshly trained.

        :class:`repro.search.study.Study` calls this once per run; the
        counters persist to ``_stats.json`` on the next :meth:`flush_stats`
        and surface in ``repro.cli cache stats --json`` under ``search``,
        which is what CI asserts warm-start hit rates against.
        """
        if from_cache < 0 or trained < 0:
            raise ValueError("search counters must be >= 0")
        self._search["from_cache"] += int(from_cache)
        self._search["trained"] += int(trained)

    def lifetime_search_stats(self) -> dict[str, int]:
        """Lifetime search-trial counters: flushed file + unflushed deltas.

        Unlike :meth:`lifetime_stats`, merged source stores do not
        contribute -- the counters describe studies run *against this
        store*, not against the shards folded into it.
        """
        totals = self._read_search_stats()
        for field, delta in self._unflushed_search_delta().items():
            totals[field] += max(0, delta)
        return totals

    def _unflushed_search_delta(self) -> dict[str, int]:
        return {
            field: self._search[field] - self._search_flushed[field]
            for field in ("from_cache", "trained")
        }

    def _unflushed_delta(self) -> dict[str, int]:
        return {
            "hits": self.stats.hits - self._flushed.hits,
            "misses": self.stats.misses - self._flushed.misses,
            "stores": self.stats.stores - self._flushed.stores,
        }

    def flush_stats(self) -> dict[str, int]:
        """Merge this instance's counters into the store's lifetime totals.

        The totals live in ``_stats.json`` next to the entries, so hit/miss
        rates accumulate across processes and CI jobs (``repro.cli cache
        stats`` reports them).  Only the counts accumulated since the last
        flush are added (the in-memory :attr:`stats` keep counting
        untouched); the store id and any counters absorbed from merged
        source stores are preserved.  Concurrent flushes are
        last-writer-wins, which keeps the totals approximate but never
        corrupt.  On a read-only store (e.g. a shared CI cache mounted
        read-only) accounting degrades to the in-memory counters instead of
        failing the lookup.  Returns the merged lifetime totals (merged
        sources included).
        """
        raw = self._read_stats_file()
        own = self._read_lifetime_stats()
        for field, delta in self._unflushed_delta().items():
            own[field] += max(0, delta)
        search = self._read_search_stats()
        for field, delta in self._unflushed_search_delta().items():
            search[field] += max(0, delta)
        sources = self._read_sources()
        totals = dict(own)
        for counters in sources.values():
            for field in totals:
                totals[field] += counters[field]
        payload: dict = dict(own)
        if any(search.values()):
            payload["search"] = search
        if sources:
            payload["sources"] = sources
        store_id = raw.get("store_id")
        if isinstance(store_id, str) and store_id:
            payload["store_id"] = store_id
        if self._write_stats_file(payload):
            self._flushed = StoreStats(
                self.stats.hits, self.stats.misses, self.stats.stores
            )
            self._search_flushed = dict(self._search)
        return totals

    def lifetime_stats(self) -> dict[str, int]:
        """Lifetime hit/miss/store totals across every process and merged shard.

        Flushed file + this instance's unflushed counters + the counters of
        every source store absorbed by :meth:`merge_from`.
        """
        totals = self._read_lifetime_stats()
        for field, delta in self._unflushed_delta().items():
            totals[field] += max(0, delta)
        for counters in self._read_sources().values():
            for field in totals:
                totals[field] += counters[field]
        return totals

    # ------------------------------------------------------------------ #
    # merge and transport (sharded CI runs)
    # ------------------------------------------------------------------ #
    def merge_from(self, other: "ResultStore") -> MergeReport:
        """Fold another store's entries and accounting into this one.

        Entries are content-addressed, so the merge is a pure union: keys
        already present are skipped (same key, same result -- recomputing or
        re-copying would change nothing), new keys are copied atomically.
        The source's *persisted* lifetime counters are recorded under its
        store id (replacing any earlier record of the same source, which
        makes re-merges idempotent) and surface in this store's
        :meth:`lifetime_stats`; flush the source first if its in-memory
        counters matter.  This is how a CI assemble job folds N shard
        stores into the one it renders from.
        """
        other_dir = Path(other.cache_dir)
        if other_dir.resolve() == self.cache_dir.resolve():
            raise ValueError("cannot merge a result store into itself")
        merged = skipped = 0
        if other_dir.is_dir():
            entries = sorted(other_dir.glob("*.pkl"))
            if entries:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            for path in entries:
                dest = self.cache_dir / path.name
                if dest.exists():
                    skipped += 1
                    continue
                fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(path.read_bytes())
                    os.replace(tmp_name, dest)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except FileNotFoundError:
                        pass
                    raise
                merged += 1
        stats_merged = self._absorb_source_stats(other)
        return MergeReport(merged=merged, skipped=skipped, stats_merged=stats_merged)

    def _absorb_source_stats(self, other: "ResultStore") -> bool:
        """Record ``other``'s persisted counters under its store id (idempotent)."""
        incoming = dict(other._read_sources())
        own = other._read_lifetime_stats()
        if any(own.values()):
            source_id = other._persistent_store_id(create=True)
            if source_id is not None:
                incoming[source_id] = own
        if not incoming:
            return False
        my_id = self._persistent_store_id()
        # Never record ourselves as our own source (A -> B -> A round trips).
        if my_id is not None:
            incoming.pop(my_id, None)
        if not incoming:
            return False
        sources = self._read_sources()
        if all(sources.get(sid) == counters for sid, counters in incoming.items()):
            return True  # already absorbed: re-merge changes nothing
        sources.update(incoming)
        raw = self._read_stats_file()
        payload: dict = self._read_lifetime_stats()
        search = self._read_search_stats()
        if any(search.values()):
            payload["search"] = search
        payload["sources"] = sources
        store_id = raw.get("store_id")
        if isinstance(store_id, str) and store_id:
            payload["store_id"] = store_id
        return self._write_stats_file(payload)

    def export_archive(self, path: str | Path) -> Path:
        """Pack the whole store into a portable gzipped tar at ``path``.

        The archive holds one flat member per entry (``<key>.pkl``), the
        stats file, and a ``manifest.json`` recording the payload schema --
        everything :meth:`import_archive` needs to validate and fold the
        store into another one.  Written atomically; entry order, modes and
        timestamps are normalized so equal stores produce equal archives.
        This is the transport format shard CI jobs upload as artifacts.
        """
        path = Path(path)
        self.flush_stats()  # persist this instance's counters for the trip
        store_id = self._persistent_store_id(create=True)
        entries = (
            sorted(self.cache_dir.glob("*.pkl")) if self.cache_dir.is_dir() else []
        )
        manifest = {
            "format": "repro-result-store",
            "schema": STORE_SCHEMA_VERSION,
            "n_entries": len(entries),
            "code_version": code_version(),
            "store_id": store_id,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                with tarfile.open(fileobj=handle, mode="w:gz") as tar:

                    def add_member(name: str, data: bytes) -> None:
                        info = tarfile.TarInfo(name=name)
                        info.size = len(data)
                        info.mtime = 0
                        info.mode = 0o644
                        tar.addfile(info, io.BytesIO(data))

                    add_member(
                        "manifest.json",
                        json.dumps(manifest, sort_keys=True).encode("utf-8"),
                    )
                    if self._stats_path.is_file():
                        add_member("_stats.json", self._stats_path.read_bytes())
                    for entry in entries:
                        add_member(entry.name, entry.read_bytes())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        return path

    def import_archive(self, path: str | Path) -> MergeReport:
        """Unpack an :meth:`export_archive` file and merge it into this store.

        Validates the manifest (format and payload schema must match this
        code) and stages only well-formed members -- ``<sha256>.pkl`` entry
        names and ``_stats.json``, nothing with path separators -- before
        delegating to :meth:`merge_from`, so a crafted archive can neither
        escape the staging directory nor inject foreign files.  Idempotent
        like the merge it wraps.
        """
        path = Path(path)
        try:
            tar = tarfile.open(path, mode="r:gz")
        except tarfile.TarError as exc:
            raise ValueError(f"{path}: not a result-store archive ({exc})") from exc
        with tar, tempfile.TemporaryDirectory() as tmp_dir:
            members = {m.name: m for m in tar.getmembers() if m.isfile()}
            manifest_member = members.get("manifest.json")
            if manifest_member is None:
                raise ValueError(
                    f"{path}: not a result-store archive (no manifest.json)"
                )
            try:
                manifest = json.loads(tar.extractfile(manifest_member).read())
            except ValueError as exc:
                raise ValueError(f"{path}: unreadable manifest.json") from exc
            if (
                not isinstance(manifest, dict)
                or manifest.get("format") != "repro-result-store"
            ):
                raise ValueError(f"{path}: not a result-store archive")
            schema = manifest.get("schema")
            if schema != STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: archive payload schema {schema!r} does not match "
                    f"this code (schema {STORE_SCHEMA_VERSION})"
                )
            staging = Path(tmp_dir)
            for name, member in members.items():
                if name == "_stats.json" or _ARCHIVE_ENTRY_RE.fullmatch(name):
                    (staging / name).write_bytes(tar.extractfile(member).read())
            return self.merge_from(ResultStore(cache_dir=staging))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(cache_dir={str(self.cache_dir)!r})"
