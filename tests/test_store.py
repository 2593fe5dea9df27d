"""Unit tests for repro.store — the persistent sample/estimate store."""

import dataclasses
import hashlib
import os
import pickle

import pytest

from repro.compression.registry import get_algorithm, list_algorithms
from repro.errors import StoreError
from repro.sampling.row_samplers import (WithoutReplacementSampler,
                                         WithReplacementSampler)
from repro.storage.table import Table
from repro.storage.schema import single_char_schema
from repro.workloads.generators import make_histogram, make_table
from repro.workloads.scenarios import get_scenario
from repro.core.cf_models import (global_dictionary_cf, ns_cf,
                                  paged_dictionary_cf, paged_rle_cf)
from repro.engine import EstimationEngine, EstimationRequest
from repro.engine.requests import algorithm_key
from repro.engine.samples import (MaterializedSample,
                                  materialize_histogram_sample,
                                  materialize_table_sample)
from repro.engine.units import plan_units
from repro.storage.index import IndexKind
from repro.store import (STORE_FORMAT, SampleStore, digest_parts,
                         estimate_store_key, histogram_fingerprint,
                         open_store, sample_store_key)
from repro.store.store import _sample_for_disk
from tests.conftest import draw_bytes


#: ``algorithm_key`` of every registered codec (plus the derived-pointer
#: dictionaries), as persisted estimates were keyed. The key is class
#: name, ``name`` and the repr of every instance attribute, so renaming
#: a class or adding an attribute changes it and orphans every estimate
#: in every store: such a change must be deliberate, and update these.
PINNED_ALGORITHM_KEYS = {
    ("delta", None): (
        "DeltaEncoding", "delta",
        (("_ns", "NullSuppression(name='null_suppression')"),)),
    ("dictionary", None): (
        "DictionaryCompression", "dictionary",
        (("_codec",
          "_DictionaryCodec(pointer_bytes=2, entry_storage='fixed')"),
         ("name", "'dictionary'"))),
    ("global_dictionary", None): (
        "GlobalDictionaryCompression", "global_dictionary",
        (("_codec",
          "_DictionaryCodec(pointer_bytes=2, entry_storage='fixed')"),
         ("name", "'global_dictionary'"))),
    ("null_suppression", None): (
        "NullSuppression", "null_suppression",
        (("mode", "'trailing'"), ("name", "'null_suppression'"))),
    ("null_suppression_runs", None): (
        "NullSuppression", "null_suppression_runs",
        (("mode", "'runs'"), ("name", "'null_suppression_runs'"))),
    ("page", None): (
        "PageCompression", "page",
        (("_codec", "_DictionaryCodec(pointer_bytes=2, "
                    "entry_storage='null_suppressed')"),
         ("name", "'page'"))),
    ("prefix", None): (
        "PrefixCompression", "prefix",
        (("_ns", "NullSuppression(name='null_suppression')"),)),
    ("rle", None): ("RunLengthEncoding", "rle", ()),
    ("dictionary", "derived"): (
        "DictionaryCompression", "dictionary_derived",
        (("_codec",
          "_DictionaryCodec(pointer_bytes=None, entry_storage='fixed')"),
         ("name", "'dictionary_derived'"))),
    ("global_dictionary", "derived"): (
        "GlobalDictionaryCompression", "global_dictionary_derived",
        (("_codec",
          "_DictionaryCodec(pointer_bytes=None, entry_storage='fixed')"),
         ("name", "'global_dictionary_derived'"))),
}


@pytest.fixture
def table() -> Table:
    return make_table(n=2000, d=40, k=20, page_size=1024, seed=7)


@pytest.fixture
def store(tmp_path) -> SampleStore:
    return SampleStore(tmp_path / "store")


def _units_for(table, **kwargs):
    request = EstimationRequest(table=table, columns=("a",),
                                page_size=table.page_size, **kwargs)
    plan = EstimationEngine(seed=11).plan([request])
    return plan_units(plan)


def _sample_for(table, seed=5, fraction=0.02):
    return materialize_table_sample(table, WithReplacementSampler(),
                                    fraction, seed)


def _entry_file(store, kind):
    files = sorted((store.root / kind).glob("*/*.bin"))
    assert files, f"no {kind} entries on disk"
    return files[0]


class TestFingerprints:
    def test_rebuilt_table_fingerprints_equal(self, table):
        rebuilt = make_table(n=2000, d=40, k=20, page_size=1024, seed=7)
        assert table is not rebuilt
        assert table.content_fingerprint() == \
            rebuilt.content_fingerprint()

    def test_fingerprint_ignores_table_name(self, table):
        twin = Table("different_name", table.schema,
                     page_size=table.page_size)
        twin.heap = table.heap
        assert twin.content_fingerprint() == table.content_fingerprint()

    def test_insert_changes_fingerprint(self):
        table = Table.from_rows("t", single_char_schema(8),
                                [("aa",), ("bb",)], page_size=256)
        before = table.content_fingerprint()
        table.insert(("cc",))
        assert table.content_fingerprint() != before

    def test_histogram_fingerprint_content_bound(self):
        one = make_histogram(4000, 30, 16, seed=3)
        two = make_histogram(4000, 30, 16, seed=3)
        other = make_histogram(4000, 30, 16, seed=4)
        assert histogram_fingerprint(one) == histogram_fingerprint(two)
        assert histogram_fingerprint(one) != histogram_fingerprint(other)

    def test_sample_key_varies_by_scope(self, table):
        base = _units_for(table, fraction=0.02, seed=5)[0]
        other_seed = _units_for(table, fraction=0.02, seed=6)[0]
        other_fraction = _units_for(table, fraction=0.05, seed=5)[0]
        keys = {sample_store_key(base), sample_store_key(other_seed),
                sample_store_key(other_fraction)}
        assert len(keys) == 3

    def test_sample_key_ignores_columns_and_algorithm(self, table):
        ns = _units_for(table, fraction=0.02, seed=5,
                        algorithm="null_suppression")[0]
        rle = _units_for(table, fraction=0.02, seed=5,
                         algorithm="rle")[0]
        assert sample_store_key(ns) == sample_store_key(rle)
        assert estimate_store_key(ns) != estimate_store_key(rle)

    def test_sampler_changes_sample_key(self, table):
        wr = _units_for(table, fraction=0.02, seed=5)[0]
        wor = _units_for(table, fraction=0.02, seed=5,
                         sampler=WithoutReplacementSampler())[0]
        assert sample_store_key(wr) != sample_store_key(wor)

    def test_opaque_seed_has_no_key(self, table):
        import numpy as np

        unit = _units_for(table, fraction=0.02,
                          seed=np.random.default_rng(1))[0]
        with pytest.raises(StoreError):
            sample_store_key(unit)
        with pytest.raises(StoreError):
            estimate_store_key(unit)

    def test_algorithm_keys_are_pinned(self):
        assert sorted(name for name, variant in PINNED_ALGORITHM_KEYS
                      if variant is None) == list_algorithms()
        for (name, variant), want in PINNED_ALGORITHM_KEYS.items():
            kwargs = {"pointer_bytes": None} if variant else {}
            assert algorithm_key(get_algorithm(name, **kwargs)) == want, \
                (name, variant)

    def test_digest_parts_is_stable(self):
        assert digest_parts("a", 1, 2.5) == digest_parts("a", 1, 2.5)
        assert digest_parts("a", 1) != digest_parts("a", 2)


class TestRoundTrip:
    def test_sample_roundtrip(self, store, table):
        sample = _sample_for(table)
        key = digest_parts("test-sample")
        store.put_sample(key, sample)
        loaded = store.get_sample(key)
        assert loaded is not None
        assert draw_bytes(loaded) == draw_bytes(sample)
        assert loaded.fraction == sample.fraction

    def test_stored_samples_drop_built_indexes(self, store, table):
        from repro.storage.index import IndexKind

        sample = _sample_for(table)
        sample.index_for(table, ("a",), IndexKind.CLUSTERED, 1024, 1.0)
        assert sample.indexes
        key = digest_parts("strip")
        store.put_sample(key, sample)
        assert sample.indexes  # caller's copy untouched
        assert store.get_sample(key).indexes == {}

    def test_stored_bytes_ignore_what_was_built(self, table):
        # The draw's views, key orders and sorted views are caches: a
        # store entry pickles the same before and after both kinds are
        # built, and holds the dataclass fields only.
        sample = _sample_for(table)
        before = pickle.dumps(_sample_for_disk(sample))
        for kind in IndexKind:
            sample.index_for(table, ("a",), kind, 1024, 1.0)
        assert pickle.dumps(_sample_for_disk(sample)) == before
        assert tuple(sample.__getstate__()) == tuple(
            f.name for f in dataclasses.fields(MaterializedSample))

    def test_histogram_sample_bytes_ignore_its_size_caches(self):
        # A histogram sample caches gathered sizes, a key order and a
        # sorted copy; none of them, nor its parent, reaches the store.
        parent = get_scenario("status_codes").build(50_000, seed=3)
        sample = materialize_histogram_sample(
            parent, WithoutReplacementSampler(), 0.02, 17)

        def digest():
            return hashlib.sha256(
                pickle.dumps(_sample_for_disk(sample))).hexdigest()

        def models(histogram):
            return (ns_cf(histogram), global_dictionary_cf(histogram),
                    paged_dictionary_cf(histogram),
                    paged_rle_cf(histogram))

        before = digest()
        cfs = models(sample.histogram)
        assert digest() == before
        loaded = pickle.loads(pickle.dumps(_sample_for_disk(sample)))
        assert loaded.histogram.values == sample.histogram.values
        assert models(loaded.histogram) == cfs

    def test_state_without_caches_builds_like_a_fresh_draw(self, table):
        fresh = _sample_for(table, fraction=0.1)
        # A state dict as a store entry holds it: the fields only.
        state = {f.name: getattr(fresh, f.name)
                 for f in dataclasses.fields(MaterializedSample)}
        state["indexes"] = {}
        restored = MaterializedSample.__new__(MaterializedSample)
        restored.__setstate__(pickle.loads(pickle.dumps(state)))
        for kind in IndexKind:
            for page_size in (512, 1024):
                want, got = (sample.index_for(table, ("a",), kind,
                                              page_size, 0.8)
                             for sample in (fresh, restored))
                assert got.leaf_records() == want.leaf_records()
                assert got.bounds.tolist() == want.bounds.tolist()
                assert got.distinct == want.distinct
                for name in list_algorithms():
                    assert got.estimate_compression(get_algorithm(name)) \
                        == want.estimate_compression(get_algorithm(name))

    def test_estimate_roundtrip(self, store, table):
        request = EstimationRequest(table=table, columns=("a",),
                                    fraction=0.02, seed=5,
                                    page_size=table.page_size)
        estimate = EstimationEngine(seed=1).estimate(request).estimates[0]
        key = digest_parts("test-estimate")
        store.put_estimate(key, estimate)
        assert store.get_estimate(key) == estimate

    def test_miss_returns_none(self, store):
        assert store.get_sample(digest_parts("nope")) is None
        assert store.get_estimate(digest_parts("nope")) is None

    def test_get_or_create_single_flight(self, store, table):
        key = digest_parts("create-once")
        calls = []

        def factory():
            calls.append(1)
            return _sample_for(table)

        first, hit_first = store.get_or_create_sample(key, factory)
        second, hit_second = store.get_or_create_sample(key, factory)
        assert (hit_first, hit_second) == (False, True)
        assert len(calls) == 1
        assert draw_bytes(second) == draw_bytes(first)

    def test_rejects_non_hex_keys(self, store, table):
        with pytest.raises(StoreError):
            store.put_sample("../escape", _sample_for(table))

    def test_concurrent_same_key_writes_never_tear(self, store, table):
        """Racing writers each use a private tmp file (mkstemp)."""
        import threading

        key = digest_parts("thread-race")
        sample = _sample_for(table)
        barrier = threading.Barrier(4)

        def writer():
            barrier.wait(timeout=10)
            for _ in range(5):
                store.put_sample(key, sample)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loaded = store.get_sample(key)
        assert loaded is not None
        assert draw_bytes(loaded) == draw_bytes(sample)
        assert store.counters["quarantined"] == 0
        assert not list(store.root.rglob(".tmp-*"))

    def test_open_store_normalises(self, store, tmp_path):
        assert open_store(None) is None
        assert open_store(store) is store
        opened = open_store(tmp_path / "store")
        assert isinstance(opened, SampleStore)
        assert opened.root == store.root


class TestFormat:
    def test_format_file_written(self, store):
        text = (store.root / "STORE_FORMAT").read_text().strip()
        assert text == str(STORE_FORMAT)

    def test_future_format_rejected(self, tmp_path):
        # "1" is the row-tuple format, older than record-byte samples.
        for version in ("999", "1"):
            root = tmp_path / f"format-{version}"
            root.mkdir()
            (root / "STORE_FORMAT").write_text(f"{version}\n")
            with pytest.raises(StoreError):
                SampleStore(root)

    def test_store_pickles_as_configuration(self, store, table):
        key = digest_parts("pickle-me")
        store.put_sample(key, _sample_for(table))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.get_sample(key) is not None

    def test_size_budget_validated(self, tmp_path):
        with pytest.raises(StoreError):
            SampleStore(tmp_path / "s", max_bytes=0)


class TestCorruption:
    def _corrupt(self, path):
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))

    def test_flipped_byte_quarantines_and_misses(self, store, table):
        key = digest_parts("corrupt")
        store.put_sample(key, _sample_for(table))
        path = _entry_file(store, "samples")
        self._corrupt(path)
        assert store.get_sample(key) is None
        assert not path.exists()
        quarantined = list((store.root / "quarantine").glob("*.bin"))
        assert len(quarantined) == 1
        assert store.counters["quarantined"] == 1

    def test_corrupt_entry_rematerializes(self, store, table):
        key = digest_parts("heal")
        store.put_sample(key, _sample_for(table))
        self._corrupt(_entry_file(store, "samples"))
        fresh = _sample_for(table)
        loaded, hit = store.get_or_create_sample(key, lambda: fresh)
        assert hit is False  # the factory ran again
        assert loaded is fresh
        # ... and the re-written entry reads back cleanly.
        healed = store.get_sample(key)
        assert healed is not None
        assert draw_bytes(healed) == draw_bytes(fresh)

    def test_truncated_entry_quarantines(self, store, table):
        key = digest_parts("truncate")
        store.put_sample(key, _sample_for(table))
        path = _entry_file(store, "samples")
        path.write_bytes(path.read_bytes()[:20])
        assert store.get_sample(key) is None
        assert store.counters["quarantined"] == 1

    def test_stats_reports_quarantine(self, store, table):
        key = digest_parts("statsq")
        store.put_sample(key, _sample_for(table))
        self._corrupt(_entry_file(store, "samples"))
        store.get_sample(key)
        stats = store.stats()
        assert stats["quarantined"]["entries"] == 1
        assert stats["samples"]["entries"] == 0


class TestEvictionAndMaintenance:
    def _fill(self, store, table, count):
        keys = [digest_parts("fill", i) for i in range(count)]
        for position, key in enumerate(keys):
            store.put_sample(key, _sample_for(table))
            # Deterministic LRU order regardless of filesystem
            # timestamp granularity: older entries get older mtimes.
            path = store._entry_path("samples", key)
            stamp = 1_000_000 + position
            os.utime(path, (stamp, stamp))
        return keys

    def test_prune_evicts_lru_first(self, store, table):
        keys = self._fill(store, table, 4)
        sizes = [entry.size_bytes for entry in store.entries()]
        keep_two = sum(sorted(sizes)[:2]) + max(sizes)
        outcome = store.prune(keep_two)
        assert outcome["evicted_entries"] >= 1
        survivors = {entry.key for entry in store.entries()}
        assert keys[0] not in survivors  # oldest evicted first
        assert keys[-1] in survivors  # newest kept

    def test_read_refreshes_lru_position(self, store, table):
        keys = self._fill(store, table, 3)
        assert store.get_sample(keys[0]) is not None  # touch oldest
        entry_bytes = max(e.size_bytes for e in store.entries())
        store.prune(entry_bytes)  # room for one entry only
        survivors = {entry.key for entry in store.entries()}
        assert survivors == {keys[0]}

    def test_write_triggers_eviction_with_budget(self, tmp_path, table):
        probe = SampleStore(tmp_path / "probe")
        probe.put_sample(digest_parts("probe"), _sample_for(table))
        entry_bytes = next(iter(probe.entries())).size_bytes
        store = SampleStore(tmp_path / "bounded",
                            max_bytes=entry_bytes * 2)
        self._fill(store, table, 4)
        assert len(store) <= 2
        assert store.counters["evicted"] >= 2

    def test_clear_removes_everything(self, store, table):
        self._fill(store, table, 3)
        assert store.clear() == 3
        assert len(store) == 0
        # the store still works after clearing
        store.put_sample(digest_parts("after"), _sample_for(table))
        assert len(store) == 1

    def test_invalidate_source_drops_only_that_source(self, store,
                                                      table):
        other = make_table(n=1000, d=10, k=8, page_size=1024, seed=9)
        fp_a = table.content_fingerprint()
        fp_b = other.content_fingerprint()
        store.put_sample(digest_parts("a"), _sample_for(table),
                         meta={"source": fp_a})
        store.put_sample(digest_parts("b"), _sample_for(other),
                         meta={"source": fp_b})
        assert store.invalidate_source(fp_a) == 1
        assert store.get_sample(digest_parts("a")) is None
        assert store.get_sample(digest_parts("b")) is not None

    def test_prune_rejects_negative_budget(self, store):
        with pytest.raises(StoreError):
            store.prune(-1)

    def test_stats_counts_bytes(self, store, table):
        self._fill(store, table, 2)
        stats = store.stats()
        assert stats["samples"]["entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["max_bytes"] is None
