"""Durable caches: a ``CheckpointedLog`` leaves the in-memory cache as it
was, warm restart from snapshot and WAL tail, the corrupt-snapshot cold
start, checksum round trips."""

import numpy as np
import pytest

from repro.core.cache import CorruptCacheError, SkylineCache
from repro.core.strategies import default_strategy_suite
from repro.geometry.constraints import Constraints
from repro.obs.metrics import MetricsRegistry
from repro.storage.wal import CheckpointedLog


def _box(lo, hi, d=3):
    return Constraints([lo] * d, [hi] * d)


def _skyline(seed, n=4, d=3):
    return np.random.default_rng(seed).random((n, d))


def _fill(cache, n=5):
    items = []
    for i in range(n):
        items.append(
            cache.insert(_box(0.1 * i, 0.1 * i + 0.5), _skyline(i))
        )
    return items


def _durable(directory, capacity=None, **log_kwargs):
    """A cache over ``directory``'s log: no fsync, no automatic checkpoint
    unless ``log_kwargs`` say otherwise."""
    log_kwargs = {"fsync": False, "checkpoint_every": None, **log_kwargs}
    return SkylineCache(
        capacity=capacity, log=CheckpointedLog(directory, "cache", **log_kwargs)
    )


def _state(cache):
    return sorted(
        (
            tuple(item.constraints.lo),
            tuple(item.constraints.hi),
            item.skyline.tobytes(),
        )
        for item in cache
    )


class TestLoggedCache:
    def test_log_leaves_memory_state_identical(self, tmp_path):
        plain = SkylineCache()
        logged = _durable(tmp_path)
        _fill(plain)
        _fill(logged)
        plain.remove(next(iter(plain)))
        logged.remove(next(iter(logged)))
        assert _state(plain) == _state(logged)
        assert (plain.hits, plain.misses, plain.insertions) == (
            logged.hits, logged.misses, logged.insertions
        )
        assert plain.log is None and plain.restored_from is None
        plain.close()  # no log: nothing to flush, no files anywhere
        logged.close()


class TestDiskWarmRestart:
    def test_restart_from_snapshot(self, tmp_path):
        cache = _durable(tmp_path)
        _fill(cache)
        cache.close()  # final checkpoint -> snapshot

        warm = _durable(tmp_path)
        assert warm.restored_from == "snapshot"
        assert len(warm) == 5
        assert _state(warm) == _state(cache)
        warm.close()

    def test_restart_from_wal_only(self, tmp_path):
        cache = _durable(tmp_path)
        _fill(cache, n=3)
        cache.log.wal.close()  # abandon without checkpoint

        warm = _durable(tmp_path)
        assert warm.restored_from == "wal"
        assert _state(warm) == _state(cache)
        warm.close()

    def test_restart_from_snapshot_plus_wal_tail(self, tmp_path):
        cache = _durable(tmp_path)
        _fill(cache, n=3)
        cache.checkpoint()
        cache.insert(_box(0.8, 0.95), _skyline(99))  # journaled, unsnapshotted
        cache.log.wal.close()

        warm = _durable(tmp_path)
        assert warm.restored_from == "snapshot+wal"
        assert _state(warm) == _state(cache)
        warm.close()

    def test_replay_covers_del_and_clear(self, tmp_path):
        cache = _durable(tmp_path)
        items = _fill(cache, n=3)
        cache.remove(items[1])
        cache.log.wal.close()
        warm = _durable(tmp_path)
        assert _state(warm) == _state(cache)
        warm.clear()
        warm.log.wal.close()
        colder = _durable(tmp_path)
        assert len(colder) == 0
        colder.close()

    def test_fresh_directory_is_cold(self, tmp_path):
        cache = _durable(tmp_path)
        assert cache.restored_from == "cold"
        assert len(cache) == 0
        cache.close()

    def test_restored_item_metadata_survives(self, tmp_path):
        cache = _durable(tmp_path)
        item = cache.insert(_box(0.0, 0.5), _skyline(1))
        cache.touch(item)  # bump use_count/last_used
        use_count = item.use_count
        assert use_count == 1
        cache.close()
        warm = _durable(tmp_path)
        (restored,) = list(warm)
        assert restored.use_count == use_count
        warm.close()

    def test_a_touch_alone_survives_close_and_reopen(self, tmp_path):
        """A touch logs no record, so it is the one change a clean-looking
        log still has to checkpoint on close: the recency stamps it moved
        come back after a reopen."""
        cache = _durable(tmp_path)
        first = _fill(cache, n=3)[0]
        cache.close()
        reopened = _durable(tmp_path)
        item = reopened.exact_match(first.constraints)
        reopened.touch(item)
        reopened.touch(item)
        stamps = (item.last_used, item.use_count)
        assert stamps != (first.last_used, first.use_count)
        reopened.close()
        again = _durable(tmp_path)
        restored = again.exact_match(first.constraints)
        assert (restored.last_used, restored.use_count) == stamps
        again.close()

    def test_crash_reopen_of_full_cache_keeps_capacity_items(self, tmp_path):
        """The WAL ends with put x4 + the del of the evicted one: replaying
        the fourth put must evict that same item, not the put itself."""
        cache = _durable(tmp_path, capacity=3)
        early = cache.insert(_box(0.0, 0.2), _skyline(40))
        for _ in range(10):  # journaled stamps run ahead of a replay's clock
            cache.touch(early)
        cache.remove(early)
        _fill(cache, n=4)
        assert cache.evictions == 1
        cache.log.wal.close()  # crash: no final checkpoint
        warm = _durable(tmp_path, capacity=3)
        assert len(warm) == 3
        assert _state(warm) == _state(cache)
        warm.close()

    def test_auto_checkpoint_bounds_wal(self, tmp_path):
        metrics = MetricsRegistry()
        cache = _durable(tmp_path, checkpoint_every=2, metrics=metrics)
        _fill(cache, n=5)
        assert metrics.counter_value("cache_checkpoints_total") >= 2
        assert (tmp_path / "cache.npz").exists()
        cache.close()


class TestRestoredClock:
    def test_insert_after_load_evicts_the_saved_lru_item(self, tmp_path):
        cache = SkylineCache(capacity=5)
        items = _fill(cache, n=5)
        for _ in range(10):  # saved stamps far past a fresh cache's clock
            for item in items:
                cache.touch(item)
        oldest = min(items, key=lambda it: it.last_used)
        newest_stamp = max(it.last_used for it in items)
        path = tmp_path / "cache.npz"
        cache.save(path)

        restored = SkylineCache.load(path)
        assert sorted(it.last_used for it in restored) == sorted(
            it.last_used for it in items
        )
        fresh = restored.insert(_box(0.7, 0.9), _skyline(50))
        assert fresh.last_used > newest_stamp
        assert restored.exact_match(fresh.constraints) is fresh
        assert restored.exact_match(oldest.constraints) is None
        assert len(restored) == 5

    def test_load_into_smaller_cache_keeps_the_most_recent(self, tmp_path):
        cache = SkylineCache()
        items = _fill(cache, n=5)
        for item in items * 3:  # saved stamps far past a fresh cache's clock
            cache.touch(item)
        path = tmp_path / "cache.npz"
        cache.save(path)

        small = SkylineCache(capacity=2)
        small.load_into(path)
        kept = {it.constraints.key() for it in small}
        assert kept == {items[3].constraints.key(), items[4].constraints.key()}


class TestPlanDeterminism:
    """Same cache contents => same candidate order and the same strategy
    picks, however the contents came to be (built cold, ``save``/``load``,
    snapshot + WAL-tail warm restart)."""

    def test_cold_loaded_and_reopened_caches_plan_alike(self, tmp_path):
        rng = np.random.default_rng(3)
        d = 3

        def random_box():
            lo = rng.uniform(0.0, 0.6, size=d)
            return Constraints(lo, lo + rng.uniform(0.1, 0.4, size=d))

        log_dir = tmp_path / "log"
        cold = _durable(log_dir)
        items = []
        for i in range(60):
            box = random_box()
            items.append(cold.insert(box, rng.uniform(box.lo, box.hi, size=(4, d))))
            if i == 30:
                cold.checkpoint()  # the rest is restored from the WAL tail
            if i % 7 == 3:
                cold.remove(items[int(rng.integers(len(items) - 1))])
        path = tmp_path / "cache.npz"
        cold.save(path)
        cold.log.wal.close()

        loaded = SkylineCache.load(path)
        reopened = _durable(log_dir)
        assert reopened.restored_from == "snapshot+wal"
        caches = [cold, loaded, reopened]
        suites = [default_strategy_suite(seed=0) for _ in caches]
        for _ in range(50):
            query = random_box()
            found = [cache.candidates(query, record=False) for cache in caches]
            keys = [[it.constraints.key() for it in items_] for items_ in found]
            assert keys[0] == keys[1] == keys[2]
            if not keys[0]:
                continue
            for strategies in zip(*suites):
                picks = [
                    strategy.select(query, items_).constraints.key()
                    for strategy, items_ in zip(strategies, found)
                ]
                assert picks[0] == picks[1] == picks[2], strategies[0].name
        reopened.close()


def _flip_a_skyline_byte(path, item):
    """Flip the first byte of ``item``'s skyline inside the snapshot at
    ``path``: the members are stored, not deflated, so the bytes are there
    as they are in memory, and the flip lands where the checksum looks."""
    blob = bytearray(path.read_bytes())
    offset = blob.find(item.skyline.tobytes())
    assert offset >= 0
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestCorruptSnapshot:
    def _corrupt_snapshot(self, tmp_path, cache):
        _flip_a_skyline_byte(tmp_path / "cache.npz", next(iter(cache)))

    def test_cold_policy_starts_empty_and_counts(self, tmp_path):
        cache = _durable(tmp_path)
        _fill(cache)
        cache.close()
        self._corrupt_snapshot(tmp_path, cache)

        metrics = MetricsRegistry()
        warm = _durable(tmp_path, metrics=metrics)
        assert warm.restored_from == "cold"
        assert len(warm) == 0
        assert metrics.counter_value("cache_restore_corrupt_total") == 1
        # The cache keeps working and re-persists cleanly.
        warm.insert(_box(0.2, 0.7), _skyline(5))
        warm.close()
        again = _durable(tmp_path)
        assert len(again) == 1
        again.close()

    def test_records_after_a_cold_start_survive_a_crash(self, tmp_path):
        """The cold start is checkpointed at once, so what is journaled
        after it replays onto a valid snapshot instead of being thrown away
        with a still-corrupt one."""
        cache = _durable(tmp_path)
        _fill(cache)
        cache.close()
        self._corrupt_snapshot(tmp_path, cache)
        cold = _durable(tmp_path)
        assert cold.restored_from == "cold"
        cold.insert(_box(0.2, 0.7), _skyline(5))
        cold.log.wal.close()  # crash: no final checkpoint
        warm = _durable(tmp_path)
        assert warm.restored_from == "snapshot+wal"
        assert _state(warm) == _state(cold)
        warm.close()


class TestChecksumRoundTrip:
    def test_truncated_file_raises_corrupt_cache_error(self, tmp_path):
        cache = SkylineCache()
        _fill(cache, n=2)
        path = tmp_path / "cache.npz"
        cache.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCacheError):
            SkylineCache.load(path)
        fresh = SkylineCache()
        with pytest.raises(CorruptCacheError):
            fresh.load_into(path)

    def test_a_nan_bound_is_a_corrupt_archive(self, tmp_path):
        """An archive whose checksum holds but whose constraint bound is
        NaN never loads: the item could match no query and would sit in the
        cache answering nothing."""
        from repro.core.cache import _cache_checksum

        cache = SkylineCache()
        _fill(cache, n=2)
        path = tmp_path / "cache.npz"
        cache.save(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "checksum"}
        arrays["lo"] = arrays["lo"].copy()
        arrays["lo"][0, 0] = np.nan  # item 0's first lower bound
        arrays["checksum"] = np.array(_cache_checksum(arrays), dtype=np.uint32)
        np.savez(path, **arrays)
        with pytest.raises(CorruptCacheError):
            SkylineCache.load(path)


def _full_state(cache):
    """Everything a snapshot carries, in item order."""
    return (
        cache.capacity,
        cache.policy,
        [
            (
                item.constraints.lo.tobytes(),
                item.constraints.hi.tobytes(),
                item.skyline.tobytes(),
                item.inserted_at,
                item.last_used,
                item.use_count,
            )
            for item in cache
        ],
    )


class TestDamagedArchiveSweep:
    """Mirror of the table's sweep (``tests/storage/test_corrupt_load.py``)
    for the packed cache snapshot: a damaged ``cache.npz`` either raises
    the typed :class:`CorruptCacheError` or -- when the damage lands in a
    zip field nothing reads -- loads the same items, stamps included.  A
    durable cache over it cold-starts, counted, or restores the same
    items."""

    @pytest.fixture
    def damaged(self, tmp_path):
        cache = SkylineCache(capacity=4)
        items = _fill(cache, n=3)
        cache.touch(items[0])
        path = tmp_path / "cache.npz"
        cache.save(path)
        return path, path.read_bytes(), _full_state(cache)

    @staticmethod
    def loads_identical_or_raises(path, expected) -> bool:
        """True when the load raised :class:`CorruptCacheError`."""
        try:
            loaded = SkylineCache.load(path)
        except CorruptCacheError:
            return True
        assert _full_state(loaded) == expected
        return False

    def test_every_single_byte_flip(self, damaged):
        path, blob, expected = damaged
        detected = 0
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            detected += self.loads_identical_or_raises(path, expected)
        # The majority of flips hit CRC-protected members or zip structure.
        assert detected > len(blob) // 2

    def test_every_truncation(self, damaged):
        path, blob, expected = damaged
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            assert self.loads_identical_or_raises(path, expected), length

    def test_a_durable_cache_cold_starts_or_restores_the_same_items(
        self, tmp_path, damaged
    ):
        _, blob, expected = damaged
        directory = tmp_path / "durable"
        _durable(directory).close()  # the log's meta and WAL
        snapshot = directory / "cache.npz"
        cold = 0
        for offset in range(0, len(blob), 7):
            flipped = bytearray(blob)
            flipped[offset] ^= 0xFF
            snapshot.write_bytes(bytes(flipped))
            metrics = MetricsRegistry()
            cache = _durable(directory, capacity=4, metrics=metrics)
            if cache.restored_from == "cold":
                cold += 1
                assert len(cache) == 0
                assert metrics.counter_value("cache_restore_corrupt_total") == 1
            else:
                assert cache.restored_from == "snapshot"
                assert _full_state(cache) == expected
                assert metrics.counter_value("cache_restore_corrupt_total") == 0
            cache.close()
        assert cold > len(blob) // 14

    def test_an_archive_of_one_member_per_item_cold_starts(self, tmp_path):
        """The layout before the packed one (``lo_i`` / ``hi_i`` / ``sky_i``
        / ``meta_i`` per item) is not read: it takes the corrupt-snapshot
        path."""
        sky = _skyline(0)
        np.savez(
            tmp_path / "cache.npz",
            n_items=np.array(1),
            capacity=np.array(-1),
            policy=np.array("lru"),
            lo_0=np.zeros(3),
            hi_0=np.ones(3),
            sky_0=sky,
            meta_0=np.array([1, 1, 0]),
        )
        with pytest.raises(CorruptCacheError, match="missing required keys"):
            SkylineCache.load(tmp_path / "cache.npz")
        metrics = MetricsRegistry()
        cache = _durable(tmp_path, metrics=metrics)
        assert cache.restored_from == "cold" and len(cache) == 0
        assert metrics.counter_value("cache_restore_corrupt_total") == 1
        cache.close()
