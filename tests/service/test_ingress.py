"""Tests for the bounded priority ingress queue and admission control."""

import threading

import pytest

from repro.service.admission import shed_reason
from repro.service.queue import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    IngressQueue,
    priority_rank,
)


class TestPriorityRank:
    def test_known_classes_are_ordered(self):
        assert priority_rank("interactive") < priority_rank("normal")
        assert priority_rank("normal") < priority_rank("batch")
        assert DEFAULT_PRIORITY in PRIORITIES

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            priority_rank("vip")


class TestIngressQueue:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            IngressQueue(0)

    def test_drains_by_priority_then_fifo(self):
        q = IngressQueue(capacity=16)
        assert q.try_put("b1", "batch")
        assert q.try_put("n1", "normal")
        assert q.try_put("i1", "interactive")
        assert q.try_put("i2", "interactive")
        assert q.try_put("n2", "normal")
        order = [q.get(timeout=0.1) for _ in range(5)]
        # interactive before normal before batch, FIFO within each class
        assert order == ["i1", "i2", "n1", "n2", "b1"]

    def test_full_queue_rejects_explicitly(self):
        q = IngressQueue(capacity=2)
        assert q.try_put("a")
        assert q.try_put("b")
        assert not q.try_put("c")  # never blocks, never raises
        assert q.stats.rejected_full == 1
        assert len(q) == 2

    def test_force_put_bypasses_the_capacity_bound(self):
        q = IngressQueue(capacity=1)
        assert q.try_put("a")
        assert not q.try_put("b")
        assert q.try_put("b", force=True)
        assert len(q) == 2

    def test_close_drains_queued_items_then_signals(self):
        q = IngressQueue(capacity=4)
        q.try_put("a")
        q.try_put("b")
        q.close()
        assert q.closed
        assert not q.try_put("c")  # unforced puts refuse after close
        # already-admitted work still drains; then workers get the stop signal
        assert q.get(timeout=0.1) == "a"
        assert q.get(timeout=0.1) == "b"
        assert q.get(timeout=0.1) is None

    def test_forced_put_lands_even_after_close(self):
        """Redispatched followers are already admitted, so they must not
        be droppable by a concurrent shutdown."""
        q = IngressQueue(capacity=1)
        q.close()
        assert q.try_put("late", force=True)
        assert q.get(timeout=0.1) == "late"

    def test_get_timeout_returns_none(self):
        q = IngressQueue(capacity=1)
        assert q.get(timeout=0.01) is None

    def test_get_blocks_until_an_item_arrives(self):
        q = IngressQueue(capacity=1)
        got = []

        def consumer():
            got.append(q.get(timeout=2.0))

        t = threading.Thread(target=consumer)
        t.start()
        q.try_put("x")
        t.join(timeout=2.0)
        assert got == ["x"]

    def test_high_watermark_tracks_peak_depth(self):
        q = IngressQueue(capacity=8)
        for item in "abc":
            q.try_put(item)
        q.get(timeout=0.1)
        q.get(timeout=0.1)
        assert q.depth == 1
        assert q.stats.high_watermark == 3
        stats = q.stats.as_dict()
        assert stats["enqueued"] == 3 and stats["dequeued"] == 2


class TestDepthShedding:
    def test_sheds_by_class_as_depth_rises(self):
        # graceful brownout: batch sheds at half a queue, normal near a
        # full one, interactive only at the hard bound
        assert shed_reason("batch", 49, 100) is None
        reason = shed_reason("batch", 50, 100)
        assert reason is not None and "batch" in reason
        assert shed_reason("normal", 89, 100) is None
        assert shed_reason("normal", 90, 100) is not None
        # interactive's fraction is 1.0: admission never sheds it on depth
        # (the queue's own capacity bound is the only limit)
        assert shed_reason("interactive", 100, 100) is None

    def test_default_capacity_never_sheds_with_headroom(self):
        for priority in PRIORITIES:
            assert shed_reason(priority, 1000, 4096) is None
