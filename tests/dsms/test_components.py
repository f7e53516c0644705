"""Tests for the Figure 3 components and queues/scheduling/shedding."""

import tracemalloc

import pytest

from repro.core import Bag, StateError
from repro.dsms import (
    FIFOScheduler,
    InputQueue,
    LongestQueueScheduler,
    NoShedding,
    RandomShedder,
    RoundRobinScheduler,
    Scratch,
    SemanticShedder,
    Store,
    Throw,
)


class TestInputQueue:
    def test_fifo_order(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0)
        queue.offer("b", 1)
        assert queue.poll().value == "a"
        assert queue.poll().value == "b"
        assert queue.poll() is None

    def test_drops_when_full(self):
        queue = InputQueue(capacity=1)
        assert queue.offer("a", 0)
        assert not queue.offer("b", 1)
        assert queue.dropped == 1
        assert queue.enqueued == 1

    def test_occupancy(self):
        queue = InputQueue(capacity=4)
        queue.offer("a", 0)
        assert queue.occupancy == 0.25

    def test_invalid_capacity(self):
        with pytest.raises(StateError):
            InputQueue(capacity=0)

    def test_peek_does_not_remove(self):
        queue = InputQueue()
        queue.offer("a", 0)
        assert queue.peek().value == "a"
        assert len(queue) == 1


class TestStore:
    def test_write_and_read(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 5)
        assert store.current("q") == Bag(["x"])
        assert store.history("q").at(5) == Bag(["x"])
        assert store.history("q").at(4) == Bag()

    def test_same_instant_write_refines(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 5)
        store.write("q", Bag(["x", "y"]), 5)
        assert store.history("q").at(5) == Bag(["x", "y"])

    def test_current_returns_copy(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["x"]), 0)
        snapshot = store.current("q")
        snapshot.add("y")
        assert store.current("q") == Bag(["x"])


    def test_restore_truncates_to_the_mark_and_puts_the_tail_back(self):
        store = Store()
        store.register("q")
        store.write("q", Bag(["a"]), 1)
        early = store.snapshot()
        store.write("q", Bag(["b"]), 1)  # same-instant: replaces the tail
        store.write("q", Bag(["c"]), 2)
        late = store.snapshot()
        store.restore(early)
        assert list(store.history("q").snapshots()) == [(1, Bag(["a"]))]
        assert store.current("q") == Bag(["a"])
        # ``late`` marks history the restore just truncated away.
        with pytest.raises(StateError, match="newer"):
            store.restore(late)

    def test_write_cost_does_not_grow_with_history(self, monkeypatch):
        """A write copies the new state once and copies no list that
        grows with the number of change points (counted in copies and
        allocated bytes, not timed)."""
        state = Bag(range(200))
        stores = {}
        for changes in (10, 20_000):
            stores[changes] = store = Store()
            store.register("q")
            for t in range(changes):
                store.write("q", Bag(), t)

        def peak(fn):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            # Same-instant rewrites keep every list's length, so no
            # append can reallocate and blur the count.
            peaks = {changes: max(peak(lambda: store.write(
                "q", state, changes - 1)) for _ in range(3))
                for changes, store in stores.items()}
        finally:
            tracemalloc.stop()
        assert abs(peaks[20_000] - peaks[10]) < 1_000

        copies = []
        original = Bag.copy
        monkeypatch.setattr(
            Bag, "copy", lambda bag: copies.append(bag) or original(bag))
        stores[20_000].write("q", state, 20_000)
        assert copies == [state]


class TestScratch:
    class Holder:
        def __init__(self, size):
            self.state_size = size

    def test_occupancy_sums_holders(self):
        scratch = Scratch()
        scratch.register("a", self.Holder(3))
        scratch.register("b", self.Holder(4))
        assert scratch.occupancy() == 7
        assert scratch.breakdown() == {"a": 3, "b": 4}

    def test_peak_tracks_maximum(self):
        scratch = Scratch()
        holder = self.Holder(10)
        scratch.register("a", holder)
        scratch.occupancy()
        holder.state_size = 2
        scratch.occupancy()
        assert scratch.peak == 10


class TestThrow:
    def test_counts(self):
        throw = Throw()
        throw.discard("x", 1)
        throw.discard("y", 2)
        assert throw.discarded == 2

    def test_keep_tuples(self):
        throw = Throw(keep_tuples=True)
        throw.discard("x", 1)
        assert list(throw.tuples()) == [("x", 1)]

    def test_tuples_unavailable_when_not_kept(self):
        throw = Throw()
        with pytest.raises(ValueError):
            throw.tuples()


class FakeQuery:
    def __init__(self, pending):
        self.pending = pending


class TestSchedulers:
    def test_round_robin_rotates(self):
        scheduler = RoundRobinScheduler()
        queries = [FakeQuery(1), FakeQuery(1), FakeQuery(1)]
        picks = [scheduler.next_index(queries) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_skips_idle(self):
        scheduler = RoundRobinScheduler()
        queries = [FakeQuery(0), FakeQuery(2)]
        assert scheduler.next_index(queries) == 1
        assert scheduler.next_index(queries) == 1

    def test_round_robin_idle(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.next_index([FakeQuery(0)]) is None
        assert scheduler.next_index([]) is None

    def test_longest_queue_first(self):
        scheduler = LongestQueueScheduler()
        queries = [FakeQuery(2), FakeQuery(9), FakeQuery(3)]
        assert scheduler.next_index(queries) == 1

    def test_fifo_first_pending(self):
        scheduler = FIFOScheduler()
        queries = [FakeQuery(0), FakeQuery(5), FakeQuery(7)]
        assert scheduler.next_index(queries) == 1


class TestShedders:
    def test_no_shedding_admits_all(self):
        shedder = NoShedding()
        queue = InputQueue(capacity=1)
        assert shedder.admit("x", queue)
        assert shedder.shed_fraction == 0.0

    def test_random_shedder_below_threshold_admits(self):
        shedder = RandomShedder(threshold=0.5, seed=1)
        queue = InputQueue(capacity=10)
        assert all(shedder.admit("x", queue) for _ in range(5))

    def test_random_shedder_sheds_under_pressure(self):
        shedder = RandomShedder(threshold=0.0, seed=1)
        queue = InputQueue(capacity=10)
        for _ in range(9):
            queue.offer("x", 0)
        decisions = [shedder.admit("x", queue) for _ in range(200)]
        # At 90% occupancy with threshold 0 the drop probability is 0.9.
        shed_rate = decisions.count(False) / len(decisions)
        assert 0.75 < shed_rate < 1.0

    def test_random_shedder_threshold_validated(self):
        with pytest.raises(StateError):
            RandomShedder(threshold=1.5)

    def test_semantic_shedder_drops_low_utility(self):
        shedder = SemanticShedder(utility=lambda v: v, min_utility=5,
                                  threshold=0.0)
        queue = InputQueue(capacity=10)
        queue.offer("x", 0)  # occupancy > 0 => pressure
        assert shedder.admit(9, queue)
        assert not shedder.admit(1, queue)
        assert shedder.shed == 1
