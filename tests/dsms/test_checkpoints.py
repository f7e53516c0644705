"""DSMS checkpoints hold live state and history marks, not history.

A checkpoint records how long each history is — the query change-logs,
the emissions, the Store relations plus their newest entry — instead of
copying it, so its size follows the operator state, not the run length.
Restoring into the engine that took it truncates every history back to
those marks; restoring into another engine starts its histories at the
restore point.  The arrival log keeps only what a retained checkpoint
can still replay.
"""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.chaos.recovery import estimate_bytes
from repro.core import Schema, StateError
from repro.dsms import DSMSEngine
from repro.dsms.shedding import NoShedding

OBS = Schema(["id", "room", "temp"])
QUERIES = {
    "rooms": "SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 10] "
             "GROUP BY room",
    "hot": "SELECT ISTREAM id, temp FROM Obs [Range 5] WHERE temp > 30",
}
PER_INSTANT = 3


def rows(t):
    return [{"id": (t * PER_INSTANT + j) % 40, "room": "abcd"[(t + j) % 4],
             "temp": (t * 7 + j * 13) % 50} for j in range(PER_INSTANT)]


def build(recovery_interval=None):
    engine = DSMSEngine(recovery_interval=recovery_interval)
    engine.register_stream("Obs", OBS)
    for name, text in QUERIES.items():
        engine.register_query(name, text, shedder=NoShedding())
    return engine


def run(engine, start, stop, late_every=0):
    """Instants ``start..stop-1``, draining after each; every
    ``late_every``-th instant gets one more arrival after the drain."""
    for t in range(start, stop):
        for row in rows(t):
            engine.ingest("Obs", row, t)
        engine.run_until_idle()
        if late_every and t % late_every == 0:
            engine.ingest("Obs", {"id": 1, "room": "a", "temp": 45}, t)
            engine.run_until_idle()


def histories(engine):
    return {name: (list(engine.query(name).store_history().snapshots()),
                   engine.query(name).query.as_relation(),
                   engine.query(name).emissions())
            for name in QUERIES}


def operator_bytes(image):
    return estimate_bytes([entry["query"]["operators"]
                           for entry in image["handles"].values()])


def test_checkpoint_size_follows_operator_state_not_run_length():
    engine = build()
    run(engine, 1, 101)
    short = engine.snapshot()
    run(engine, 101, 2001)
    long = engine.snapshot()
    for image in (short, long):
        assert estimate_bytes(image) <= 2 * operator_bytes(image)
    assert estimate_bytes(long) <= 1.1 * estimate_bytes(short)


@pytest.mark.parametrize("crash_at", [150, 300, 400])
def test_same_instant_crash_restores_the_uncrashed_history(crash_at):
    clean = build()
    run(clean, 1, 60, late_every=3)
    clean.advance_time(80)

    # Checkpoints every five instants leave serviced instants, Store
    # tail rewrites included, between the last checkpoint and the crash.
    engine = build(recovery_interval=5 * PER_INSTANT)
    fuse = CrashFuse(at=crash_at)
    install_crash(engine.query("rooms").query, 1, fuse)
    run(engine, 1, 60, late_every=3)
    engine.advance_time(80)
    assert fuse.fired == 1
    assert engine.recovery.attempts == 1
    assert engine.recovery.replayed_records > 0
    assert histories(engine) == histories(clean)


def test_restore_puts_back_the_store_tail_a_same_instant_write_replaced():
    engine = build()
    run(engine, 1, 10)
    before = histories(engine)
    image = engine.snapshot()
    # A same-instant arrival after the drain rewrites the Store's tail.
    engine.ingest("Obs", {"id": 1, "room": "a", "temp": 45}, 9)
    run(engine, 10, 12)
    assert histories(engine) != before
    engine.restore(image)
    assert histories(engine) == before
    for name in QUERIES:
        handle = engine.query(name)
        assert handle.store_state() == handle.query.current()


def test_foreign_engine_restore_starts_histories_at_the_restore_point():
    source = build()
    run(source, 1, 20)
    image = source.snapshot()
    target = build()
    target.restore(image)
    for name in QUERIES:
        handle, original = target.query(name), source.query(name)
        assert handle.emissions() == []
        assert handle.store_state() == original.store_state()
        assert list(handle.store_history().snapshots()) == \
            list(original.store_history().snapshots())[-1:]
    # From the restore point on, both engines evolve identically.
    run(source, 20, 30)
    run(target, 20, 30)
    for name in QUERIES:
        handle, original = target.query(name), source.query(name)
        assert handle.emissions() == [e for e in original.emissions()
                                      if e.timestamp >= 20]
        assert handle.store_state() == original.store_state()


def test_arrival_log_stays_bounded_by_retained_checkpoints():
    # An interval that is a multiple of the per-instant batch, so a
    # checkpoint lands exactly every ``interval`` arrivals.
    engine = build(recovery_interval=3 * PER_INSTANT)
    bound = engine.recovery.interval * engine.recovery.keep
    for t in range(1, 400):
        for row in rows(t):
            engine.ingest("Obs", row, t)
        assert len(engine._arrival_log) <= bound + PER_INSTANT  # pending
        engine.run_until_idle()
        assert len(engine._arrival_log) <= bound
    assert engine._arrival_base > 1000


def test_replay_after_trimming_and_rescale_matches_the_uncrashed_run():
    clean = build()
    run(clean, 1, 120)

    engine = build(recovery_interval=10)
    run(engine, 1, 60)
    engine.rescale_query("rooms", 2)
    trimmed = engine._arrival_base
    fuse = CrashFuse(at=200)
    for replica in engine.query("rooms").query.replicas():
        install_crash(replica, 1, fuse)
    run(engine, 60, 120)
    assert trimmed > 0
    assert fuse.fired == 1
    assert engine.recovery.attempts == 1
    for name in QUERIES:
        # Fissioned output interleaves replicas within an instant.
        assert sorted(engine.query(name).emissions(), key=repr) == \
            sorted(clean.query(name).emissions(), key=repr)
        assert engine.query(name).store_state() == \
            clean.query(name).store_state()
