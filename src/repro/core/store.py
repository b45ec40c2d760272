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

Values are stored as individual pickle files written through
:func:`atomic_write` (temp file + ``os.replace``), so concurrent writers on
the same filesystem never expose partial entries.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import tempfile
import time
from contextlib import suppress
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

#: Bump when the *stored payload* layout changes incompatibly (independent of
#: the package version, which already participates in the key).  Schema 2:
#: suites are stored as one reference entry plus one DesignPoint entry per
#: grid point, all keyed through :class:`repro.core.design.DesignSpec`.
#: Schema 3: stored trees hold their nodes as arrays
#: (:class:`repro.mltrees.tree.DecisionTree`), not as a linked root.
#: Schema 4: a stored tree's node table is a plain ``(dtype.str, shape,
#: bytes)`` triple, not a numpy array, so a replay unpickles it without numpy.
STORE_SCHEMA_VERSION = 4

#: A ``*.tmp`` file younger than this is presumed to be a concurrent writer's
#: in-flight entry (mkstemp -> os.replace window) and is never swept.
_TMP_GRACE_S = 3600.0

#: Entry member names allowed out of an archive: exactly one SHA-256 key plus
#: the ``.pkl`` suffix -- flat, no path separators, so a crafted archive can
#: never write outside the staging directory.
_ARCHIVE_ENTRY_RE = re.compile(r"[0-9a-f]{64}\.pkl")

#: Counter fields of ``_stats.json``: the store's own hit/miss/store totals
#: (also recorded per merged source) and its store-local search counters.
_OWN_FIELDS = ("hits", "misses", "stores")
_SEARCH_FIELDS = ("from_cache", "trained")


def atomic_write(path: str | Path, write) -> Path:
    """Create or replace ``path`` all at once; returns it.

    ``write(handle)`` streams the content into a binary temp file next to
    ``path``, which ``os.replace`` then moves into place: readers see the
    old file or the complete new one, never a partial write.  Parent
    directories are created; the temp file is removed if ``write`` raises.
    Every file the result store and the model registry write goes through
    here.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def _counters(raw, names: tuple[str, ...]) -> dict[str, int]:
    """The ``names`` counters of the JSON object ``raw`` as ints.

    A missing, malformed or wrong-typed value reads as 0 without affecting
    its neighbours; a ``raw`` that is not an object reads as all zeros.
    """
    if not isinstance(raw, dict):
        raw = {}
    counters = {}
    for name in names:
        try:
            counters[name] = int(raw.get(name, 0))
        except (ValueError, TypeError):
            counters[name] = 0
    return counters


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


class CacheDirError(ValueError):
    """A ``cache_dir`` that exists and is not a directory."""


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
            raise CacheDirError(
                f"cache_dir {str(self.cache_dir)!r} exists and is not a directory"
            )
        self.touch_on_get = touch_on_get
        self.stats = StoreStats()
        #: Counts not yet added to ``_stats.json``: the hit/miss/store
        #: counters alongside :attr:`stats`, plus the search-trial accounting
        #: (trials resolved from cache vs. freshly trained).  A successful
        #: :meth:`flush_stats` zeroes them; ``stats.reset()`` does not touch
        #: them, so resetting the public counters never loses a count.
        self._pending = dict.fromkeys(_OWN_FIELDS + _SEARCH_FIELDS, 0)

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
        of incompatible classes) count as misses and are evicted -- unless
        the store is read-only (``touch_on_get=False``), which leaves them
        in place.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except Exception as exc:
            if self.touch_on_get and not isinstance(exc, FileNotFoundError):
                self.invalidate(key)
            self.stats.misses += 1
            self._pending["misses"] += 1
            return default
        self.stats.hits += 1
        self._pending["hits"] += 1
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
        path = atomic_write(
            self.path_for(key),
            lambda handle: pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.stats.stores += 1
        self._pending["stores"] += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def invalidate(self, key: str) -> bool:
        """Drop the entry for ``key``; True when something was removed."""
        return self._unlink(self.path_for(key))

    def clear(self) -> int:
        """Drop every entry; returns the number of removed entries.

        Also sweeps ``*.tmp`` files orphaned by writers killed between
        ``mkstemp`` and ``os.replace`` (those do not count as entries).
        """
        removed = sum(self._unlink(path) for path, _ in self._scan("*.pkl"))
        for path, _ in self._scan("*.tmp"):
            self._unlink(path)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._scan("*.pkl"))

    def _scan(self, pattern: str):
        """Yield ``(path, stat)`` for the store files matching ``pattern``.

        Files removed between the listing and the ``stat`` (a concurrent
        eviction) are skipped; a missing store directory yields nothing.
        """
        if not self.cache_dir.is_dir():
            return
        for path in self.cache_dir.glob(pattern):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            yield path, stat

    @staticmethod
    def _unlink(path: Path) -> bool:
        """Remove ``path``; False when it was already gone."""
        try:
            path.unlink()
            return True
        except (FileNotFoundError, NotADirectoryError):
            return False

    # ------------------------------------------------------------------ #
    # lifecycle tooling (repro.cli cache)
    # ------------------------------------------------------------------ #
    def disk_stats(self) -> StoreDiskStats:
        """Entry count, cumulative size and age range of the on-disk store."""
        total_bytes = 0
        mtimes = []
        for _, stat in self._scan("*.pkl"):
            total_bytes += stat.st_size
            mtimes.append(stat.st_mtime)
        now = time.time()
        return StoreDiskStats(
            n_entries=len(mtimes),
            total_bytes=total_bytes,
            oldest_age_s=max(0.0, now - min(mtimes)) if mtimes else None,
            newest_age_s=max(0.0, now - max(mtimes)) if mtimes else None,
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
        for pattern, counted in (("*.pkl", True), ("*.tmp", False)):
            for path, stat in self._scan(pattern):
                if stat.st_mtime < cutoff and self._unlink(path):
                    removed += counted
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
        tmp_cutoff = time.time() - _TMP_GRACE_S
        for path, stat in self._scan("*.tmp"):
            if stat.st_mtime < tmp_cutoff:
                self._unlink(path)
        entries = sorted(self._scan("*.pkl"), key=lambda entry: (entry[1].st_mtime, str(entry[0])))
        total_bytes = sum(stat.st_size for _, stat in entries)
        removed = 0
        for path, stat in entries:
            if total_bytes <= max_bytes:
                break
            removed += self._unlink(path)
            # A concurrently removed entry no longer occupies space either way.
            total_bytes -= stat.st_size
        return removed

    # ------------------------------------------------------------------ #
    # persistent hit/miss accounting
    # ------------------------------------------------------------------ #
    @property
    def _stats_path(self) -> Path:
        return self.cache_dir / "_stats.json"

    def _load_stats(self) -> dict:
        """Parse ``_stats.json`` into ``{own, search, sources, store_id}``.

        ``own`` holds this store's own hit/miss/store counters (merged
        sources excluded), ``search`` its search-trial counters, ``sources``
        the per-source counters :meth:`merge_from` absorbed (keyed by store
        id) and ``store_id`` the persisted identity or ``None``.  An absent,
        corrupt or wrong-typed file reads as an empty record; a malformed
        counter reads as 0 (see :func:`_counters`) and a malformed source
        record is dropped.
        """
        try:
            with open(self._stats_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            raw = {}
        if not isinstance(raw, dict):
            raw = {}
        sources = raw.get("sources")
        store_id = raw.get("store_id")
        return {
            "own": _counters(raw, _OWN_FIELDS),
            "search": _counters(raw.get("search"), _SEARCH_FIELDS),
            "sources": {
                str(source_id): _counters(counters, _OWN_FIELDS)
                for source_id, counters in (sources if isinstance(sources, dict) else {}).items()
                if isinstance(counters, dict)
            },
            "store_id": store_id if isinstance(store_id, str) and store_id else None,
        }

    @staticmethod
    def _stats_bytes(record: dict) -> bytes:
        """The ``_stats.json`` rendering of a :meth:`_load_stats` record.

        Key order: ``hits``, ``misses``, ``stores``, then ``search``,
        ``sources`` and ``store_id`` when non-empty.
        """
        payload: dict = dict(record["own"])
        if any(record["search"].values()):
            payload["search"] = record["search"]
        if record["sources"]:
            payload["sources"] = record["sources"]
        if record["store_id"]:
            payload["store_id"] = record["store_id"]
        return json.dumps(payload).encode("utf-8")

    def _save_stats(self, record: dict) -> bool:
        """Atomically rewrite ``_stats.json``; False when the store is read-only."""
        data = self._stats_bytes(record)
        try:
            atomic_write(self._stats_path, lambda handle: handle.write(data))
        except OSError:
            return False
        return True

    def _stats_with_pending(self) -> dict:
        """The persisted record plus this instance's unflushed counts."""
        record = self._load_stats()
        for counters in (record["own"], record["search"]):
            for name in counters:
                counters[name] += self._pending[name]
        return record

    def _persistent_store_id(self, create: bool = False) -> str | None:
        """Stable identity of this store directory, persisted in ``_stats.json``.

        The id is what makes stats aggregation across :meth:`merge_from`
        *idempotent*: a source's counters are recorded under its id
        (replacing any earlier record), so re-merging the same shard store
        never double-counts.  Generated lazily on first need; ``None`` on a
        read-only store that never had one (its counters then simply cannot
        be aggregated).
        """
        record = self._load_stats()
        if record["store_id"] is None and create:
            import uuid  # only store transport needs it, not a replay

            record["store_id"] = uuid.uuid4().hex
            if not self._save_stats(record):
                return None
        return record["store_id"]

    def record_search_stats(self, *, from_cache: int = 0, trained: int = 0) -> None:
        """Count search trials resolved from cache vs. freshly trained.

        :class:`repro.search.study.Study` calls this once per run; the
        counters persist to ``_stats.json`` on the next :meth:`flush_stats`
        and surface in ``repro.cli cache stats --json`` under ``search``,
        which is what CI asserts warm-start hit rates against.  They are
        store-local: merges never absorb another store's search counters,
        because a trial "trained here" is a property of this store's
        history, not of the entries it happens to hold.
        """
        if from_cache < 0 or trained < 0:
            raise ValueError("search counters must be >= 0")
        self._pending["from_cache"] += int(from_cache)
        self._pending["trained"] += int(trained)

    def lifetime_search_stats(self) -> dict[str, int]:
        """Lifetime search-trial counters: flushed file + unflushed counts.

        Unlike :meth:`lifetime_stats`, merged source stores do not
        contribute -- the counters describe studies run *against this
        store*, not against the shards folded into it.
        """
        return self._stats_with_pending()["search"]

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
        if self._save_stats(self._stats_with_pending()):
            self._pending = dict.fromkeys(self._pending, 0)
        return self.lifetime_stats()

    def lifetime_stats(self) -> dict[str, int]:
        """Lifetime hit/miss/store totals across every process and merged shard.

        Flushed file + this instance's unflushed counters + the counters of
        every source store absorbed by :meth:`merge_from`.
        """
        record = self._stats_with_pending()
        totals = record["own"]
        for counters in record["sources"].values():
            for name in totals:
                totals[name] += counters[name]
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
        for path in sorted(other_dir.glob("*.pkl")) if other_dir.is_dir() else ():
            dest = self.cache_dir / path.name
            if dest.exists():
                skipped += 1
                continue
            atomic_write(dest, lambda handle: handle.write(path.read_bytes()))
            merged += 1
        stats_merged = self._absorb_source_stats(other)
        return MergeReport(merged=merged, skipped=skipped, stats_merged=stats_merged)

    def _absorb_source_stats(self, other: "ResultStore") -> bool:
        """Record ``other``'s persisted counters under its store id (idempotent)."""
        source = other._load_stats()
        incoming = source["sources"]
        if any(source["own"].values()):
            source_id = other._persistent_store_id(create=True)
            if source_id is not None:
                incoming[source_id] = source["own"]
        record = self._load_stats()
        # Never record ourselves as our own source (A -> B -> A round trips).
        incoming.pop(record["store_id"], None)
        if not incoming:
            return False
        sources = record["sources"]
        if all(sources.get(sid) == counters for sid, counters in incoming.items()):
            return True  # already absorbed: re-merge changes nothing
        sources.update(incoming)
        return self._save_stats(record)

    def export_archive(self, path: str | Path) -> Path:
        """Pack the whole store into a portable gzipped tar at ``path``.

        The archive holds one flat member per entry (``<key>.pkl``), the
        stats file, and a ``manifest.json`` recording the payload schema --
        everything :meth:`import_archive` needs to validate and fold the
        store into another one.  Written atomically; entry order, modes and
        timestamps are normalized so equal stores produce equal archives.
        This is the transport format shard CI jobs upload as artifacts.
        Raises :class:`ValueError` when the store directory does not exist
        (a mistyped ``--cache-dir``), before anything is written.
        """
        import tarfile  # only store transport needs it, not a replay

        if not self.cache_dir.is_dir():
            raise ValueError(f"no result store at {str(self.cache_dir)!r} to export")
        self.flush_stats()  # persist this instance's counters for the trip
        store_id = self._persistent_store_id(create=True)
        stats = self._stats_bytes(self._load_stats())
        entries = sorted(self.cache_dir.glob("*.pkl"))
        manifest = {
            "format": "repro-result-store",
            "schema": STORE_SCHEMA_VERSION,
            "n_entries": len(entries),
            "code_version": code_version(),
            "store_id": store_id,
        }

        def write(handle) -> None:
            with tarfile.open(fileobj=handle, mode="w:gz") as tar:
                for name, data in (
                    ("manifest.json", json.dumps(manifest, sort_keys=True).encode("utf-8")),
                    ("_stats.json", stats),
                    *((entry.name, entry.read_bytes()) for entry in entries),
                ):
                    info = tarfile.TarInfo(name=name)
                    info.size = len(data)
                    info.mtime = 0
                    info.mode = 0o644
                    tar.addfile(info, io.BytesIO(data))

        return atomic_write(path, write)

    def import_archive(self, path: str | Path) -> MergeReport:
        """Unpack an :meth:`export_archive` file and merge it into this store.

        Validates the manifest (format and payload schema must match this
        code) and stages only well-formed members -- ``<sha256>.pkl`` entry
        names and ``_stats.json``, nothing with path separators -- before
        delegating to :meth:`merge_from`, so a crafted archive can neither
        escape the staging directory nor inject foreign files.  Idempotent
        like the merge it wraps.
        """
        import tarfile

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
