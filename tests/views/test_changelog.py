"""Changelog against a keep-everything reference: random histories,
cost that follows the reclaimed deltas, and checkpoint compatibility."""

import random

import pytest

from repro.core.records import Record, Schema
from repro.views.delta import Changelog, Delta, net

pytestmark = pytest.mark.views

SCHEMA = Schema(["k", "v"])


def row(k, v=0):
    return Record.from_mapping(SCHEMA, {"k": k, "v": v})


def zset(deltas):
    return sorted(((d.row, d.weight) for d in net(deltas)), key=repr)


class NaiveChangelog:
    """The reference: every committed batch kept forever, nothing netted."""

    def __init__(self):
        self.log = []

    def append(self, version, deltas):
        batch = tuple(deltas)
        if batch:
            self.log.append((version, batch))

    def between(self, after, upto):
        return [delta for version, batch in self.log
                if after < version <= upto for delta in batch]

    def snapshot(self):
        return list(self.log)

    def restore(self, state):
        self.log = list(state)


def random_batch(rng, live):
    """Inserts of fresh or live rows, retracts of live ones, and
    insert/retract pairs that cancel inside the batch."""
    out = []
    for _ in range(rng.randint(0, 4)):
        choice = rng.random()
        if live and choice < 0.35:
            target = rng.choice(sorted(live, key=repr))
            out.append(Delta(target, -1))
            live[target] -= 1
            if not live[target]:
                del live[target]
        elif choice < 0.5:
            fresh = row(rng.randint(0, 5), rng.randint(0, 3))
            out += [Delta(fresh, 1), Delta(fresh, -1)]
        else:
            fresh = row(rng.randint(0, 5), rng.randint(0, 3))
            out.append(Delta(fresh, rng.randint(1, 2)))
            live[fresh] = live.get(fresh, 0) + out[-1].weight
    return out


@pytest.mark.parametrize("seed", range(40))
def test_random_histories_match_the_reference(seed):
    rng = random.Random(seed)
    log, ref = Changelog(), NaiveChangelog()
    live = {}
    if rng.random() < 0.5:  # a version-0 priming batch
        primed = [Delta(row("primed"), 1)]
        live[row("primed")] = 1
        log.append(0, primed)
        ref.append(0, primed)
    clock, mark = 0, 0
    saved = None
    for _ in range(120):
        action = rng.random()
        if action < 0.45:
            clock += rng.randint(0, 2)
            batch = random_batch(rng, live)
            log.append(clock, batch)
            ref.append(clock, batch)
        elif action < 0.65:
            # Consumers only move forward: the mark never passes the
            # clock and never falls back.
            mark = rng.randint(mark, clock)
            before = len(log)
            reclaimed = log.gc(mark)
            assert len(log) == before - reclaimed
        elif action < 0.9:
            after = rng.choice([-1, rng.randint(mark, clock)])
            upto = rng.randint(max(after, mark), clock + 1)
            assert zset(log.between(after, upto)) == \
                zset(ref.between(after, upto))
        elif saved is None or rng.random() < 0.5:
            saved = (log.snapshot(), ref.snapshot(), dict(live), clock,
                     mark)
        else:
            image, ref_image, live, clock, mark = saved
            live = dict(live)
            log.restore(image)  # into the same object, as recovery does
            ref.restore(ref_image)
        assert zset(log.between(-1, clock)) == zset(ref.between(-1, clock))
    assert zset(log.between(-1, clock)) == sorted(live.items(), key=repr)


class CountingDict(dict):
    """A head map that counts the entries written into it."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes += 1
        super().__delitem__(key)


@pytest.mark.parametrize("head_rows", [200, 20_000])
def test_gc_cost_follows_the_reclaimed_deltas(head_rows):
    log = Changelog()
    log.append(1, [Delta(row(i), 1) for i in range(head_rows)])
    log.append(2, [Delta(row("x"), 1)])
    log.gc(below=2)
    assert len(log) == 1
    log._head = CountingDict(log._head)
    # Ten deltas over two versions: inserts, a retract of a head row and
    # a retract of the row inserted in the same batch.
    log.append(3, [Delta(row(f"new{i}"), 1) for i in range(7)]
               + [Delta(row(0), -1)])
    log.append(4, [Delta(row("new0"), -1), Delta(row("x"), 1)])
    assert log.gc(below=4) == 2
    assert log._head.writes == 10
    assert log.between(4, 4) == []
    assert len(log._head) == head_rows + 6  # +7 new, -row(0), -new0


def compacted_log():
    log = Changelog()
    log.append(0, [Delta(row("primed"), 1)])
    log.append(1, [Delta(row("a"), 1), Delta(row("b"), 2)])
    log.append(2, [Delta(row("primed"), -1), Delta(row("b"), -1)])
    log.append(3, [Delta(row("c"), 1)])
    log.gc(below=2)
    return log


class TestCheckpointFormat:
    def test_snapshot_shows_the_head_as_a_version_zero_batch(self):
        image = compacted_log().snapshot()
        assert image["versions"] == [0, 3]
        assert sorted(((d.row, d.weight) for d in image["batches"][0]),
                      key=repr) == [(row("a"), 1), (row("b"), 1)]

    def test_round_trip_of_a_compacted_log(self):
        log = compacted_log()
        restored = Changelog()
        restored.restore(log.snapshot())
        assert restored.snapshot() == log.snapshot()
        assert list(restored.entries()) == list(log.entries())
        assert log.between(-1, -1) == []
        for after, upto in [(-1, 3), (2, 3), (-1, 0), (0, 3), (-1, -1)]:
            assert zset(restored.between(after, upto)) == \
                zset(log.between(after, upto))

    def test_plain_list_snapshot_restores_and_compacts(self):
        # A checkpoint written as plain version/batch lists, its netted
        # version-0 batch first.
        image = {"versions": [0, 4, 5],
                 "batches": [(Delta(row("a"), 2), Delta(row("b"), 1)),
                             (Delta(row("a"), -1),),
                             (Delta(row("c"), 1),)]}
        log = Changelog()
        log.restore(image)
        assert [v for v, _ in log.entries()] == [0, 4, 5]
        assert zset(log.between(0, 5)) == [(row("a"), -1), (row("c"), 1)]
        assert log.gc(below=4) == 1
        assert [v for v, _ in log.entries()] == [0, 5]
        assert zset(log.between(-1, 5)) == zset(
            [Delta(row("a"), 1), Delta(row("b"), 1), Delta(row("c"), 1)])
        assert log.between(4, 5) == [Delta(row("c"), 1)]
