"""Tests for DiskTable archive integrity validation on load."""

import numpy as np
import pytest

from repro.data.generator import independent
from repro.storage import CorruptTableError, DiskTable


@pytest.fixture
def saved(tmp_path):
    data = independent(100, 3, seed=0)
    table = DiskTable(data)
    path = tmp_path / "table.npz"
    table.save(path)
    return path, data


def rewrite(path, mutate):
    """Load the npz payload, apply ``mutate(dict)``, write it back."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    mutate(payload)
    np.savez(path, **payload)


class TestRoundTrip:
    def test_clean_round_trip(self, saved):
        path, data = saved
        table = DiskTable.load(path)
        np.testing.assert_array_equal(table._data, data)

    def test_checksum_written(self, saved):
        path, _ = saved
        with np.load(path, allow_pickle=False) as archive:
            assert "checksum" in archive.files

    def test_pre_checksum_archive_accepted(self, saved):
        path, data = saved
        rewrite(path, lambda p: p.pop("checksum"))
        table = DiskTable.load(path)
        np.testing.assert_array_equal(table._data, data)

    def test_archive_from_the_btree_era_accepted(self, saved):
        """Checkpoints written when the indexes were B+-trees carry a
        ``leaf_capacity`` key; it is ignored, not required and not fatal."""
        path, data = saved
        with np.load(path, allow_pickle=False) as archive:
            assert "leaf_capacity" not in archive.files
        rewrite(path, lambda p: p.update(leaf_capacity=np.array(256)))
        table = DiskTable.load(path)
        np.testing.assert_array_equal(table._data, data)
        assert len(table.index(0)) == len(data)


class TestCorruptionDetected:
    def test_missing_key(self, saved):
        path, _ = saved
        rewrite(path, lambda p: p.pop("alive"))
        with pytest.raises(CorruptTableError, match="missing required keys"):
            DiskTable.load(path)

    def test_wrong_data_shape(self, saved):
        path, _ = saved

        def flatten(p):
            p["data"] = p["data"].ravel()
            p["checksum"] = np.array(0, dtype=np.uint32)

        rewrite(path, flatten)
        with pytest.raises(CorruptTableError, match="2-D"):
            DiskTable.load(path)

    def test_alive_length_mismatch(self, saved):
        path, _ = saved

        def shrink(p):
            p["alive"] = p["alive"][:-5]
            p["checksum"] = np.array(0, dtype=np.uint32)

        rewrite(path, shrink)
        with pytest.raises(CorruptTableError, match="alive bitmap length"):
            DiskTable.load(path)

    def test_non_finite_rows(self, saved):
        path, _ = saved

        def rot(p):
            data = p["data"].copy()
            data[3, 1] = np.nan
            p["data"] = data
            # recompute checksum so only the NaN check can fire
            from repro.storage.table import _archive_checksum

            p["checksum"] = np.array(
                _archive_checksum(data, p["alive"]), dtype=np.uint32
            )

        rewrite(path, rot)
        with pytest.raises(CorruptTableError, match="non-finite"):
            DiskTable.load(path)

    def test_checksum_mismatch(self, saved):
        path, _ = saved

        def flip(p):
            data = p["data"].copy()
            data[0, 0] += 0.25  # still finite, still in shape
            p["data"] = data

        rewrite(path, flip)
        with pytest.raises(CorruptTableError, match="checksum mismatch"):
            DiskTable.load(path)

    def test_bad_plan(self, saved):
        path, _ = saved
        rewrite(path, lambda p: p.update(plan=np.array("voodoo")))
        with pytest.raises(CorruptTableError, match="unknown plan"):
            DiskTable.load(path)

    def test_bad_cost_model_shape(self, saved):
        path, _ = saved
        rewrite(path, lambda p: p.update(cost_model=np.array([1.0, 2.0])))
        with pytest.raises(CorruptTableError, match="cost_model"):
            DiskTable.load(path)

    def test_corrupt_error_is_value_error(self):
        assert issubclass(CorruptTableError, ValueError)


class TestDamagedArchiveSweep:
    """Mirror of the cache's sweep (``TestDamagedArchiveSweep`` in
    ``tests/core/test_cache_backend.py``): a damaged ``table.npz`` either
    raises the typed :class:`CorruptTableError` (never a raw
    zipfile/zlib/numpy error) or -- when the damage lands in an ignorable
    zip header field -- still loads the exact rows and tombstones.  What
    must never happen is silently loading a *different* table."""

    @pytest.fixture
    def damaged(self, tmp_path):
        table = DiskTable(independent(24, 2, seed=1), columns=("a", "b"))
        table.delete(np.array([3, 7]))
        path = tmp_path / "table.npz"
        table.save(path)
        return path, path.read_bytes(), table

    @staticmethod
    def loads_identical_or_raises(path, table) -> bool:
        """True when the load raised :class:`CorruptTableError`."""
        try:
            loaded = DiskTable.load(path)
        except CorruptTableError:
            return True
        assert loaded._data.tobytes() == table._data.tobytes()
        assert loaded._alive.tobytes() == table._alive.tobytes()
        return False

    def test_every_single_byte_flip(self, damaged):
        path, blob, table = damaged
        detected = 0
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            detected += self.loads_identical_or_raises(path, table)
        # The majority of flips hit CRC-protected members or zip structure.
        assert detected > len(blob) // 2

    def test_every_truncation(self, damaged):
        path, blob, table = damaged
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            assert self.loads_identical_or_raises(path, table), length
