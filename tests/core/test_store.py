"""Unit tests for the content-addressed on-disk result store."""

import json
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path

import pytest

from oracles.tree_state import MALFORMED_CASES, pickle_malformed
from repro.core.store import (
    ResultStore,
    atomic_write,
    code_version,
    content_digest,
    make_key,
)

#: A pickle holding a tree in the linked-node layout of store schema 2.
LEGACY_TREE_PAYLOAD = (
    Path(__file__).parents[1] / "serve" / "fixtures" / "legacy_artifact_schema2.pkl"
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(cache_dir=tmp_path / "cache")


class TestMakeKey:
    def test_field_order_does_not_matter(self):
        assert make_key(a=1, b="x") == make_key(b="x", a=1)

    def test_list_and_tuple_alias(self):
        assert make_key(depths=(2, 3), taus=[0.0]) == make_key(depths=[2, 3], taus=(0.0,))

    def test_different_values_differ(self):
        assert make_key(seed=0) != make_key(seed=1)
        assert make_key(dataset="seeds") != make_key(dataset="cardio")

    def test_code_version_participates(self):
        current = make_key(seed=0)
        pinned = make_key(seed=0, code_version="0.0.0/older")
        assert current != pinned
        assert make_key(seed=0, code_version=code_version()) == current

    def test_dataclasses_hash_by_value(self):
        from repro.pdk.egfet import default_technology

        assert make_key(tech=default_technology()) == make_key(tech=default_technology())


class TestContentDigest:
    def test_field_order_does_not_matter(self):
        assert content_digest(a=1, b="x") == content_digest(b="x", a=1)

    def test_no_code_version_mixed_in(self):
        """content_digest is a pure content address: stable across package
        upgrades, unlike make_key (which exists to expire stale results)."""
        digest = content_digest(seed=0)
        # make_key == content_digest once code_version is passed explicitly.
        assert make_key(seed=0) == content_digest(seed=0, code_version=code_version())
        # Without it, the two address different things.
        assert make_key(seed=0) != digest

    def test_is_hex_sha256(self):
        digest = content_digest(kind="artifact", n=1)
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestSchemaVersion:
    def test_schema2_entry_is_a_clean_miss(self, tmp_path, monkeypatch):
        """An entry keyed by schema-2 code is never read by this code."""
        from repro.core import store as store_module
        from repro.core.design import DesignSpec

        spec = DesignSpec("seeds", 0, 2, 0.0)
        store = ResultStore(cache_dir=tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_SCHEMA_VERSION", 2)
            legacy_key = spec.key()
        legacy_path = store.path_for(legacy_key)
        legacy_path.parent.mkdir(parents=True, exist_ok=True)
        legacy_path.write_bytes(LEGACY_TREE_PAYLOAD.read_bytes())
        assert legacy_key != spec.key()
        assert store.get(spec.key()) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert legacy_key in store

    @pytest.mark.parametrize("case", MALFORMED_CASES)
    def test_an_entry_with_a_malformed_tree_is_a_miss_and_evicted(self, store, case):
        """A schema-3 or damaged node table fails the load, not a later read."""
        from repro.core.design import DesignSpec

        spec = DesignSpec("seeds", 0, 2, 0.0)
        point = spec.evaluate()
        path = store.path_for(spec.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle_malformed(point, case))
        assert store.get(spec.key()) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert spec.key() not in store


class TestTouchOnGet:
    def _aged_entry(self, store, age_s=3600.0):
        key = make_key(n="aged")
        store.put(key, "value")
        path = store.path_for(key)
        old = time.time() - age_s
        os.utime(path, (old, old))
        return key, path

    def test_default_get_refreshes_mtime(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path / "cache")
        key, path = self._aged_entry(store)
        before = path.stat().st_mtime
        assert store.get(key) == "value"
        assert path.stat().st_mtime > before  # LRU recency refreshed

    def test_fast_read_get_leaves_mtime_untouched(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path / "cache", touch_on_get=False)
        key, path = self._aged_entry(store)
        before = path.stat().st_mtime_ns
        assert store.get(key) == "value"  # still a full hit ...
        assert store.stats.hits == 1
        assert path.stat().st_mtime_ns == before  # ... with zero writes

    def test_fast_read_store_interoperates_with_writer(self, tmp_path):
        writer = ResultStore(cache_dir=tmp_path / "cache")
        reader = ResultStore(cache_dir=tmp_path / "cache", touch_on_get=False)
        key = make_key(n="shared")
        writer.put(key, {"accuracy": 0.9})
        assert reader.get(key) == {"accuracy": 0.9}


class TestResultStore:
    def test_miss_then_hit_round_trip(self, store):
        key = store.make_key(dataset="seeds", seed=0)
        assert store.get(key) is None
        assert store.stats.misses == 1

        store.put(key, {"accuracy": 0.9})
        assert store.stats.stores == 1
        assert store.get(key) == {"accuracy": 0.9}
        assert store.stats.hits == 1

    def test_survives_across_instances(self, store):
        key = make_key(dataset="seeds", seed=0)
        store.put(key, [1, 2, 3])

        reopened = ResultStore(cache_dir=store.cache_dir)
        assert reopened.get(key) == [1, 2, 3]
        assert reopened.stats.hits == 1
        assert reopened.stats.misses == 0

    def test_contains_and_len(self, store):
        key = make_key(n=1)
        assert key not in store
        assert len(store) == 0
        store.put(key, "value")
        assert key in store
        assert len(store) == 1

    def test_invalidate(self, store):
        key = make_key(n=2)
        store.put(key, "value")
        assert store.invalidate(key) is True
        assert store.invalidate(key) is False
        assert store.get(key) is None

    def test_clear(self, store):
        for n in range(3):
            store.put(make_key(n=n), n)
        assert store.clear() == 3
        assert len(store) == 0

    def test_clear_sweeps_orphaned_tmp_files(self, store):
        store.put(make_key(n=0), 0)
        orphan = store.cache_dir / "deadbeef.tmp"
        orphan.write_bytes(b"partial write from a killed process")
        assert store.clear() == 1  # tmp files are not entries
        assert not orphan.exists()

    def test_corrupt_entry_counts_as_miss_and_is_evicted(self, store):
        key = make_key(n=3)
        store.put(key, "value")
        store.path_for(key).write_bytes(b"\x80truncated")
        assert store.get(key, default="fallback") == "fallback"
        assert store.stats.misses == 1
        assert key not in store

    def test_read_only_store_leaves_corrupt_entry_in_place(self, store):
        key = make_key(n=3)
        store.put(key, "value")
        store.path_for(key).write_bytes(b"\x80trunc")
        reader = ResultStore(cache_dir=store.cache_dir, touch_on_get=False)
        assert reader.get(key, default="fallback") == "fallback"
        assert reader.stats.misses == 1
        assert store.path_for(key).read_bytes() == b"\x80trunc"

    def test_put_overwrites_atomically(self, store):
        key = make_key(n=4)
        store.put(key, "old")
        store.put(key, "new")
        assert store.get(key) == "new"
        with open(store.path_for(key), "rb") as handle:
            assert pickle.load(handle) == "new"

    def test_cache_dir_pointing_at_a_file_rejected(self, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        with pytest.raises(ValueError, match="not a directory"):
            ResultStore(cache_dir=bogus)

    def test_stats_reset(self, store):
        store.get(make_key(n=5))
        store.stats.reset()
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (0, 0, 0)


class TestStoreLifecycle:
    @pytest.fixture()
    def store(self, tmp_path):
        return ResultStore(cache_dir=tmp_path / "cache")

    def test_disk_stats_empty_store(self, store):
        stats = store.disk_stats()
        assert stats.n_entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_age_s is None
        assert stats.newest_age_s is None

    def test_disk_stats_counts_entries_and_bytes(self, store):
        store.put(make_key(n=1), "a")
        store.put(make_key(n=2), list(range(100)))
        stats = store.disk_stats()
        assert stats.n_entries == 2
        assert stats.total_bytes > 0
        assert stats.oldest_age_s >= stats.newest_age_s >= 0.0

    def test_prune_older_than_drops_only_old_entries(self, store):
        old_key, new_key = make_key(n=1), make_key(n=2)
        store.put(old_key, "old")
        ancient = time.time() - 10 * 86400
        os.utime(store.path_for(old_key), (ancient, ancient))
        store.put(new_key, "new")
        assert store.prune_older_than(86400.0) == 1
        assert old_key not in store
        assert new_key in store

    def test_prune_rejects_negative_age(self, store):
        with pytest.raises(ValueError):
            store.prune_older_than(-1.0)

    def test_prune_sweeps_old_tmp_files_without_counting_them(self, store):
        store.put(make_key(n=1), "keep")
        orphan = store.cache_dir / "deadbeef.tmp"
        orphan.write_bytes(b"partial")
        ancient = time.time() - 10 * 86400
        os.utime(orphan, (ancient, ancient))
        assert store.prune_older_than(86400.0) == 0
        assert not orphan.exists()

    def test_flush_stats_accumulates_across_instances(self, store):
        key = make_key(n=1)
        store.get(key)            # miss
        store.put(key, "value")   # store
        store.get(key)            # hit
        totals = store.flush_stats()
        assert totals == {"hits": 1, "misses": 1, "stores": 1}
        assert store.stats.hits == 1  # in-memory counters keep counting
        assert store.flush_stats() == totals  # re-flush adds nothing new
        other = ResultStore(cache_dir=store.cache_dir)
        other.get(key)            # hit
        assert other.lifetime_stats() == {"hits": 2, "misses": 1, "stores": 1}

    def test_lifetime_stats_tolerates_corrupt_file(self, store):
        store.put(make_key(n=1), "x")
        store.flush_stats()
        (store.cache_dir / "_stats.json").write_text("not json at all")
        assert store.lifetime_stats() == {"hits": 0, "misses": 0, "stores": 0}

    def test_stats_file_is_not_an_entry(self, store):
        store.put(make_key(n=1), "x")
        store.flush_stats()
        assert len(store) == 1
        assert store.disk_stats().n_entries == 1

    def test_lifetime_stats_tolerates_non_object_json(self, store):
        store.put(make_key(n=1), "x")
        store.flush_stats()
        (store.cache_dir / "_stats.json").write_text("[1, 2, 3]")
        assert store.lifetime_stats() == {"hits": 0, "misses": 0, "stores": 0}

    def test_flush_stats_degrades_gracefully_on_read_only_store(
        self, store, monkeypatch
    ):
        # chmod tricks are a no-op under root, so force the unwritable-store
        # branch deterministically by making the stats tempfile creation fail.
        import tempfile

        key = make_key(n=1)
        store.put(key, "payload")
        store.flush_stats()
        reader = ResultStore(cache_dir=store.cache_dir)
        assert reader.get(key) == "payload"   # pure reads keep working

        def _denied(*args, **kwargs):
            raise PermissionError("read-only store")

        monkeypatch.setattr(tempfile, "mkstemp", _denied)
        totals = reader.flush_stats()         # accounting degrades, no raise
        assert totals["hits"] >= 1
        monkeypatch.undo()
        # nothing was lost while read-only; a later flush persists the hit
        assert reader.flush_stats()["hits"] == 1
        assert ResultStore(cache_dir=store.cache_dir).lifetime_stats()["hits"] == 1


class TestPruneToSize:
    def _put_sized(self, store, name: str, size: int, mtime: float) -> str:
        """Store a payload of roughly ``size`` bytes with a forced mtime."""
        key = make_key(name=name)
        store.put(key, b"x" * size)
        os.utime(store.path_for(key), (mtime, mtime))
        return key

    def test_evicts_least_recently_used_first(self, store):
        now = time.time()
        old = self._put_sized(store, "old", 4000, now - 300)
        middle = self._put_sized(store, "middle", 4000, now - 200)
        fresh = self._put_sized(store, "fresh", 4000, now - 100)
        budget = store.disk_stats().total_bytes - 1  # force one eviction
        assert store.prune_to_size(budget) == 1
        assert old not in store
        assert middle in store and fresh in store

    def test_noop_when_under_budget(self, store):
        self._put_sized(store, "a", 1000, time.time())
        assert store.prune_to_size(10**9) == 0
        assert len(store) == 1

    def test_zero_budget_clears_everything(self, store):
        for index in range(3):
            self._put_sized(store, f"e{index}", 1000, time.time() - index)
        assert store.prune_to_size(0) == 3
        assert len(store) == 0

    def test_hit_refreshes_recency(self, store):
        now = time.time()
        read = self._put_sized(store, "read", 4000, now - 300)
        unread = self._put_sized(store, "unread", 4000, now - 200)
        assert store.get(read) is not None  # touch: becomes most recent
        budget = store.disk_stats().total_bytes - 1
        assert store.prune_to_size(budget) == 1
        assert read in store
        assert unread not in store

    def test_sweeps_stale_orphaned_tmp_files(self, store):
        self._put_sized(store, "keep", 100, time.time())
        stale = store.cache_dir / "orphan.tmp"
        stale.write_bytes(b"partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        assert store.prune_to_size(10**9) == 0  # tmp sweep is not counted
        assert not stale.exists()
        assert len(store) == 1

    def test_fresh_tmp_files_survive_concurrent_prune(self, store):
        """A young *.tmp may be another process's in-flight put()."""
        self._put_sized(store, "keep", 100, time.time())
        in_flight = store.cache_dir / "writer.tmp"
        in_flight.write_bytes(b"partial")
        store.prune_to_size(0)
        assert in_flight.exists()

    def test_stats_file_is_never_evicted(self, store):
        self._put_sized(store, "entry", 1000, time.time())
        store.flush_stats()
        assert store.prune_to_size(0) == 1
        assert (store.cache_dir / "_stats.json").exists()

    def test_negative_budget_rejected(self, store):
        with pytest.raises(ValueError):
            store.prune_to_size(-1)

    def test_missing_store_directory_is_empty(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path / "never-created")
        assert store.prune_to_size(0) == 0


class TestStoreConcurrencyEdges:
    """Races a shared store must survive: pruning vs in-flight writes,
    parallel writers/pruners, and stats-file corruption recovery."""

    def test_inflight_put_completes_across_a_concurrent_prune(self, store):
        """prune_to_size(0) between a writer's mkstemp and os.replace must
        not destroy the write: the fresh ``*.tmp`` survives and the entry
        lands intact when the writer finishes."""
        store.put(make_key(n="victim"), "evict me")
        key = make_key(n="in-flight")
        # reproduce put()'s two-step write, pausing at the vulnerable window
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=store.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            pickle.dump({"payload": 42}, handle, protocol=pickle.HIGHEST_PROTOCOL)

        assert store.prune_to_size(0) == 1      # the victim entry goes ...
        assert os.path.exists(tmp_name)         # ... the in-flight write stays

        os.replace(tmp_name, store.path_for(key))  # writer completes
        assert store.get(key) == {"payload": 42}

    def test_parallel_writers_and_pruners_never_corrupt_the_store(self, tmp_path):
        """Hammer one directory from writer and pruner threads (each with
        its own ResultStore, like separate processes sharing a CI cache):
        no exceptions, and every surviving entry is readable and intact."""
        cache_dir = tmp_path / "shared"
        payload = list(range(64))
        errors: list[Exception] = []

        def writer(thread_index: int) -> None:
            own = ResultStore(cache_dir=cache_dir)
            try:
                for n in range(25):
                    key = make_key(thread=thread_index, n=n)
                    own.put(key, payload)
                    value = own.get(key)
                    # a pruner may have evicted it, but never half-written it
                    assert value is None or value == payload
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def pruner() -> None:
            own = ResultStore(cache_dir=cache_dir)
            try:
                for _ in range(40):
                    own.prune_to_size(2_000)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(index,)) for index in range(4)
        ] + [threading.Thread(target=pruner) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        survivor = ResultStore(cache_dir=cache_dir)
        for path in cache_dir.glob("*.pkl"):
            key = path.stem
            assert survivor.get(key) == payload  # every survivor loads cleanly
        assert not list(cache_dir.glob("*.tmp"))  # no leaked temp files

    def test_concurrent_prunes_remove_each_entry_once(self, store):
        for n in range(8):
            store.put(make_key(n=n), b"x" * 1000)
        removed: list[int] = []
        barrier = threading.Barrier(2)

        def prune() -> None:
            barrier.wait()
            removed.append(ResultStore(cache_dir=store.cache_dir).prune_to_size(0))

        threads = [threading.Thread(target=prune) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # both prunes succeed; between them every entry is gone exactly once
        assert sum(removed) == 8
        assert len(store) == 0

    def test_flush_stats_recovers_a_corrupt_stats_file(self, store):
        store.get(make_key(n=1))          # miss
        store.put(make_key(n=1), "x")     # store
        store.flush_stats()
        stats_path = store.cache_dir / "_stats.json"
        stats_path.write_text("{ corrupted json !!!")

        fresh = ResultStore(cache_dir=store.cache_dir)
        fresh.get(make_key(n=1))          # hit
        totals = fresh.flush_stats()
        # corrupt history is discarded, this instance's delta is preserved,
        # and the file on disk is valid JSON again
        assert totals == {"hits": 1, "misses": 0, "stores": 0}
        assert json.loads(stats_path.read_text()) == totals

    def test_flush_stats_recovers_wrong_typed_stats_file(self, store):
        stats_path = store.cache_dir
        store.put(make_key(n=1), "x")
        (stats_path / "_stats.json").write_text('{"hits": "many", "misses": {}}')
        fresh = ResultStore(cache_dir=store.cache_dir)
        fresh.get(make_key(n=1))
        assert fresh.flush_stats() == {"hits": 1, "misses": 0, "stores": 0}

    def test_get_evicting_corrupt_entry_races_reput(self, store):
        """A reader evicting a truncated entry must not break a concurrent
        writer's fresh replacement (worst case: one extra recomputation)."""
        key = make_key(n="flaky")
        store.put(key, "good")
        store.path_for(key).write_bytes(b"\x80truncated")
        assert store.get(key) is None     # evicted as corrupt
        store.put(key, "recomputed")      # writer replaces it
        assert store.get(key) == "recomputed"


class TestMergeFrom:
    def _store_pair(self, tmp_path):
        return (
            ResultStore(cache_dir=tmp_path / "target"),
            ResultStore(cache_dir=tmp_path / "source"),
        )

    def test_union_with_content_address_dedup(self, tmp_path):
        target, source = self._store_pair(tmp_path)
        shared = make_key(n="shared")
        target.put(shared, {"v": 1})
        source.put(shared, {"v": 1})
        only_source = make_key(n="source-only")
        source.put(only_source, {"v": 2})

        report = target.merge_from(source)
        assert (report.merged, report.skipped) == (1, 1)
        assert report.source_entries == 2
        assert len(target) == 2
        assert target.get(only_source) == {"v": 2}

    def test_remerge_is_idempotent(self, tmp_path):
        target, source = self._store_pair(tmp_path)
        for index in range(3):
            source.put(make_key(n=index), index)
        first = target.merge_from(source)
        assert (first.merged, first.skipped) == (3, 0)
        second = target.merge_from(source)
        assert (second.merged, second.skipped) == (0, 3)
        assert len(target) == 3

    def test_stats_aggregate_once_across_remerges(self, tmp_path):
        target, source = self._store_pair(tmp_path)
        key = make_key(n="s")
        source.get(key)          # miss
        source.put(key, "x")     # store
        source.get(key)          # hit
        source.flush_stats()
        target.put(make_key(n="t"), "y")
        target.flush_stats()

        report = target.merge_from(source)
        assert report.stats_merged
        merged_once = target.lifetime_stats()
        assert merged_once == {"hits": 1, "misses": 1, "stores": 2}
        # idempotent: the source id replaces, never adds, its record
        target.merge_from(source)
        assert target.lifetime_stats() == merged_once
        # and the aggregate survives reopening the target
        assert ResultStore(cache_dir=target.cache_dir).lifetime_stats() == merged_once

    def test_transitive_merge_flattens_sources(self, tmp_path):
        """A -> B -> C carries A's counters into C exactly once."""
        a = ResultStore(cache_dir=tmp_path / "a")
        b = ResultStore(cache_dir=tmp_path / "b")
        c = ResultStore(cache_dir=tmp_path / "c")
        a.get(make_key(n="a"))   # miss
        a.flush_stats()
        b.merge_from(a)
        c.merge_from(b)
        assert c.lifetime_stats()["misses"] == 1
        c.merge_from(b)          # re-merge of the aggregate: still once
        assert c.lifetime_stats()["misses"] == 1

    def test_source_without_stats_merges_entries_only(self, tmp_path):
        target, source = self._store_pair(tmp_path)
        source.put(make_key(n=1), "x")
        # put() alone never flushes; wipe the side file to simulate a source
        # that recorded nothing
        stats_path = source.cache_dir / "_stats.json"
        if stats_path.exists():
            stats_path.unlink()
        report = target.merge_from(source)
        assert report.merged == 1
        assert not report.stats_merged

    def test_merging_into_itself_is_rejected(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path / "self")
        with pytest.raises(ValueError, match="itself"):
            store.merge_from(ResultStore(cache_dir=tmp_path / "self"))

    def test_merge_from_missing_source_directory_is_a_noop(self, tmp_path):
        target = ResultStore(cache_dir=tmp_path / "target")
        report = target.merge_from(ResultStore(cache_dir=tmp_path / "never"))
        assert (report.merged, report.skipped) == (0, 0)
        assert not report.stats_merged


class TestArchives:
    def test_export_import_round_trip(self, tmp_path):
        source = ResultStore(cache_dir=tmp_path / "source")
        payloads = {make_key(n=index): [index] * 3 for index in range(3)}
        for key, value in payloads.items():
            source.put(key, value)
        source.get(next(iter(payloads)))  # one hit for the stats trip
        archive = source.export_archive(tmp_path / "store.tar.gz")
        assert archive.is_file()

        target = ResultStore(cache_dir=tmp_path / "target")
        report = target.import_archive(archive)
        assert (report.merged, report.skipped) == (3, 0)
        for key, value in payloads.items():
            assert target.get(key) == value
        # the source's flushed accounting travelled with the archive
        lifetime = target.lifetime_stats()
        assert lifetime["stores"] >= 3
        assert lifetime["hits"] >= 1

    def test_reimport_is_idempotent(self, tmp_path):
        source = ResultStore(cache_dir=tmp_path / "source")
        source.put(make_key(n=1), "x")
        archive = source.export_archive(tmp_path / "store.tar.gz")
        target = ResultStore(cache_dir=tmp_path / "target")
        target.import_archive(archive)
        lifetime = target.lifetime_stats()
        report = target.import_archive(archive)
        assert (report.merged, report.skipped) == (0, 1)
        assert target.lifetime_stats() == lifetime

    def test_import_rejects_garbage_files(self, tmp_path):
        junk = tmp_path / "junk.tar.gz"
        junk.write_bytes(b"definitely not a tarball")
        store = ResultStore(cache_dir=tmp_path / "store")
        with pytest.raises(ValueError, match="not a result-store archive"):
            store.import_archive(junk)

    def test_import_rejects_archives_without_manifest(self, tmp_path):
        import io
        import tarfile

        path = tmp_path / "no-manifest.tar.gz"
        with tarfile.open(path, "w:gz") as tar:
            info = tarfile.TarInfo(name="a" * 64 + ".pkl")
            data = pickle.dumps("x")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        store = ResultStore(cache_dir=tmp_path / "store")
        with pytest.raises(ValueError, match="manifest"):
            store.import_archive(path)

    def test_import_rejects_schema_mismatch(self, tmp_path):
        import io
        import tarfile

        path = tmp_path / "future.tar.gz"
        manifest = json.dumps(
            {"format": "repro-result-store", "schema": 999, "n_entries": 0}
        ).encode()
        with tarfile.open(path, "w:gz") as tar:
            info = tarfile.TarInfo(name="manifest.json")
            info.size = len(manifest)
            tar.addfile(info, io.BytesIO(manifest))
        store = ResultStore(cache_dir=tmp_path / "store")
        with pytest.raises(ValueError, match="schema"):
            store.import_archive(path)

    def test_import_refuses_schema2_archives(self, tmp_path):
        """Archives written while trees were linked nodes (schema 2) are
        refused with the schema error, before any entry is staged."""
        import io
        import tarfile

        path = tmp_path / "schema2.tar.gz"
        manifest = json.dumps(
            {"format": "repro-result-store", "schema": 2, "n_entries": 1}
        ).encode()
        entry = LEGACY_TREE_PAYLOAD.read_bytes()
        with tarfile.open(path, "w:gz") as tar:
            for name, data in (("manifest.json", manifest), ("b" * 64 + ".pkl", entry)):
                info = tarfile.TarInfo(name=name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        store = ResultStore(cache_dir=tmp_path / "store")
        with pytest.raises(ValueError, match="archive payload schema 2 does not match"):
            store.import_archive(path)
        assert len(store) == 0

    def test_import_ignores_traversal_and_foreign_members(self, tmp_path):
        """Only flat ``<sha256>.pkl`` members are staged: a crafted archive
        cannot plant files outside the store or under other names."""
        import io
        import tarfile
        from repro.core.store import STORE_SCHEMA_VERSION

        good_key = make_key(n="good")
        path = tmp_path / "crafted.tar.gz"
        members = {
            "manifest.json": json.dumps(
                {"format": "repro-result-store",
                 "schema": STORE_SCHEMA_VERSION, "n_entries": 1}
            ).encode(),
            f"{good_key}.pkl": pickle.dumps("good"),
            "../escape.pkl": pickle.dumps("evil"),
            "not-a-key.pkl": pickle.dumps("evil"),
            "nested/" + "b" * 64 + ".pkl": pickle.dumps("evil"),
        }
        with tarfile.open(path, "w:gz") as tar:
            for name, data in members.items():
                info = tarfile.TarInfo(name=name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))

        store = ResultStore(cache_dir=tmp_path / "store")
        report = store.import_archive(path)
        assert report.merged == 1
        assert store.get(good_key) == "good"
        assert len(store) == 1
        assert not (tmp_path / "escape.pkl").exists()


class TestSearchStats:
    def test_record_accumulates_and_flush_persists(self, store):
        store.record_search_stats(from_cache=3, trained=2)
        store.record_search_stats(trained=1)
        assert store.lifetime_search_stats() == {"from_cache": 3, "trained": 3}
        store.flush_stats()
        # A fresh instance reads the counters back from _stats.json.
        fresh = ResultStore(cache_dir=store.cache_dir)
        assert fresh.lifetime_search_stats() == {"from_cache": 3, "trained": 3}

    def test_reflush_adds_nothing(self, store):
        store.record_search_stats(from_cache=2)
        store.flush_stats()
        store.flush_stats()
        assert store.lifetime_search_stats() == {"from_cache": 2, "trained": 0}

    def test_negative_counters_rejected(self, store):
        with pytest.raises(ValueError):
            store.record_search_stats(from_cache=-1)
        with pytest.raises(ValueError):
            store.record_search_stats(trained=-1)

    def test_zero_counters_leave_stats_file_without_search_section(self, store):
        store.put(make_key(n=1), "x")
        store.flush_stats()
        raw = json.loads((store.cache_dir / "_stats.json").read_text())
        assert "search" not in raw

    def test_lifetime_search_stats_tolerate_corrupt_section(self, store):
        store.record_search_stats(from_cache=1, trained=1)
        store.flush_stats()
        raw = json.loads((store.cache_dir / "_stats.json").read_text())
        raw["search"] = {"from_cache": "garbage", "trained": None}
        (store.cache_dir / "_stats.json").write_text(json.dumps(raw))
        assert ResultStore(cache_dir=store.cache_dir).lifetime_search_stats() == {
            "from_cache": 0,
            "trained": 0,
        }

    def test_hit_miss_flush_preserves_search_section(self, store):
        store.record_search_stats(trained=4)
        store.flush_stats()
        key = make_key(n=1)
        store.get(key)          # miss
        store.put(key, "x")     # store
        store.flush_stats()     # rebuilds the payload; search must survive
        fresh = ResultStore(cache_dir=store.cache_dir)
        assert fresh.lifetime_search_stats() == {"from_cache": 0, "trained": 4}
        assert fresh.lifetime_stats()["misses"] == 1

    def test_merge_does_not_absorb_source_search_counters(self, store, tmp_path):
        source = ResultStore(cache_dir=tmp_path / "source")
        source.put(make_key(n="entry"), "payload")
        source.record_search_stats(from_cache=5, trained=7)
        source.flush_stats()
        store.record_search_stats(trained=1)
        store.merge_from(source)
        store.flush_stats()
        # Hit/miss counters absorb the source; search counters stay local,
        # because "trained here" describes this store's own study history.
        assert store.lifetime_search_stats() == {"from_cache": 0, "trained": 1}
        assert ResultStore(cache_dir=store.cache_dir).lifetime_search_stats() == {
            "from_cache": 0,
            "trained": 1,
        }


#: ``_stats.json`` written by the previous implementation: own counters, a
#: ``search`` section, two merged sources (the first absorbed transitively,
#: through the second) and a ``store_id``.
STATS_FIXTURE = Path(__file__).parent / "fixtures" / "stats_record.json"
#: ``repro.cli cache stats --json --cache-dir store`` on a store holding only
#: that file, as printed by the same implementation.
STATS_FIXTURE_GOLDEN = Path(__file__).parent / "fixtures" / "stats_record.cache_stats.json"


class TestStatsBookkeeping:
    def test_reset_does_not_lose_later_counts(self, store):
        """Regression: after ``stats.reset()`` the hits counted before the
        next flush used to be dropped from the lifetime totals."""
        key = make_key(n=1)
        store.put(key, "x")
        for _ in range(5):
            store.get(key)
        assert store.flush_stats() == {"hits": 5, "misses": 0, "stores": 1}
        store.stats.reset()
        for _ in range(3):
            store.get(key)
        assert store.lifetime_stats()["hits"] == 8
        assert store.flush_stats() == {"hits": 8, "misses": 0, "stores": 1}
        assert ResultStore(cache_dir=store.cache_dir).lifetime_stats()["hits"] == 8
        assert store.stats.hits == 3

    def test_malformed_counter_zeroes_only_itself(self, store):
        store.cache_dir.mkdir()
        (store.cache_dir / "_stats.json").write_text(
            json.dumps(
                {
                    "hits": "many",
                    "misses": 4,
                    "stores": 2,
                    "search": {"from_cache": [], "trained": 3},
                    "sources": {"a": {"hits": None, "misses": 1}, "b": "junk"},
                }
            )
        )
        assert store.lifetime_stats() == {"hits": 0, "misses": 5, "stores": 2}
        assert store.lifetime_search_stats() == {"from_cache": 0, "trained": 3}


class TestStatsFileFormat:
    @pytest.fixture()
    def fixture_store(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "_stats.json").write_bytes(STATS_FIXTURE.read_bytes())
        return ResultStore(cache_dir="store")

    def test_cache_stats_json_matches_golden(self, fixture_store, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--json", "--cache-dir", "store"]) == 0
        assert capsys.readouterr().out == STATS_FIXTURE_GOLDEN.read_text()

    def test_flush_with_nothing_pending_rewrites_byte_identically(self, fixture_store):
        assert fixture_store.flush_stats() == {"hits": 5, "misses": 9, "stores": 5}
        assert (
            fixture_store.cache_dir / "_stats.json"
        ).read_bytes() == STATS_FIXTURE.read_bytes()


class TestAtomicWrite:
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "deep" / "file.bin"
        assert atomic_write(path, lambda handle: handle.write(b"old")) == path

        def explode(handle):
            handle.write(b"partial")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            atomic_write(path, explode)
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in path.parent.iterdir()) == ["file.bin"]
