"""Regression tests for ``ContinuousQuery.as_relation`` change-log export.

A DSMS services one tuple per scheduling quantum, so several states are
appended to the executor's log at a single instant.  ``as_relation`` must
collapse those to the last state per instant *without* corrupting earlier
instants — the historical bug popped the relation's tail after ``set_at``
had already coalesced a no-op state, silently deleting an earlier change
point.

The log holds each logged instant's net delta, not a copy of the state;
``as_relation`` folds the deltas.  Snapshots record the log's length, so
restoring truncates it; restoring another query's snapshot starts the
history at the restore point.
"""

import random

import pytest

from repro.core import Schema, StateError, Stream
from repro.core.relation import TimeVaryingRelation
from repro.cql import CQLEngine, reference_evaluate
from repro.cql.parallel import PartitionedQuery
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])
ALERTS = Schema(["id", "level"])


def test_per_tuple_pushes_collapse_to_last_state_per_instant():
    """Same-instant pushes whose intermediate state returns to the prior
    instant's value must not erase that prior instant."""
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    query = engine.register_query(
        "SELECT COUNT(*) AS n FROM Obs [Rows 1]")
    query.start()
    query.push("Obs", {"id": 0, "room": "a", "temp": 1}, 1)
    # Two pushes at t=7: each replaces the [Rows 1] content, so the state
    # oscillates n=1 -> n=1 (coalesced no-op) within the instant.
    query.push("Obs", {"id": 1, "room": "a", "temp": 2}, 7)
    query.push("Obs", {"id": 2, "room": "a", "temp": 3}, 7)
    query.finish()
    relation = query.as_relation()
    # The change point at t=1 must survive.
    assert len(relation.at(1)) == 1
    assert [t for t, _ in relation.snapshots()] == sorted(
        {t for t, _ in relation.snapshots()})


def test_dsms_per_tuple_state_matches_reference():
    """The shrunk fuzz counterexample that exposed the corruption: a
    windowed equijoin driven tuple-at-a-time through the DSMS."""
    query_text = ("SELECT O.id, A.level FROM Obs O [Rows 2], "
                  "Alerts A [Rows 1] WHERE O.id = A.id")
    obs_rows = [({"id": 1, "room": "a", "temp": None}, 1),
                ({"id": 1, "room": "a", "temp": 0}, 2),
                ({"id": 0, "room": "a", "temp": None}, 2),
                ({"id": 0, "room": "a", "temp": 0}, 2)]
    alert_rows = [({"id": 1, "level": 0}, 1)]

    dsms = DSMSEngine(queue_capacity=1000)
    dsms.register_stream("Obs", OBS)
    dsms.register_stream("Alerts", ALERTS)
    handle = dsms.register_query("q", query_text)
    arrivals = sorted(
        [(t, "Obs", row) for row, t in obs_rows]
        + [(t, "Alerts", row) for row, t in alert_rows],
        key=lambda item: item[0])
    for t, name, row in arrivals:
        dsms.ingest(name, row, t)
        dsms.run_until_idle()
    handle.query.finish()

    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    engine.register_stream("Alerts", ALERTS)
    reference = reference_evaluate(
        engine.plan(query_text), engine.catalog,
        {"Obs": Stream.of_records(OBS, obs_rows),
         "Alerts": Stream.of_records(ALERTS, alert_rows)})
    got = handle.query.as_relation()
    assert got == reference
    # The join result at t=1 (id=1 matches) used to vanish from the log.
    assert len(got.at(1)) == 1
    assert len(got.at(2)) == 0


# -- the delta log ----------------------------------------------------------

GROUPED = ("SELECT room, COUNT(*) AS n, MAX(temp) AS hi FROM Obs [Range 4] "
           "GROUP BY room")
DISTINCT = "SELECT DISTINCT room FROM Obs [Rows 2]"
RSTREAM = ("SELECT RSTREAM room, COUNT(*) AS n FROM Obs [Range 4] "
           "GROUP BY room")
ISTREAM = "SELECT ISTREAM" + GROUPED[len("SELECT"):]


def random_calls(rng, instants=40):
    """Feeding calls as a DSMS makes them: whole batches, per-tuple
    pushes sharing an instant, and time advances with no data.  A small
    value domain makes many instants net to nothing."""
    calls = []
    for t in range(1, instants + 1):
        rows = [{"id": rng.randrange(3), "room": rng.choice("ab"),
                 "temp": rng.randrange(4)}
                for _ in range(rng.randrange(5))]
        shape = rng.random()
        if shape < 0.4:
            calls.extend(("push", t, [row]) for row in rows)
        elif shape < 0.9:
            calls.append(("push", t, rows))
        else:
            calls.append(("advance", t, []))
    return calls


def feed(query, call):
    kind, t, rows = call
    if kind == "push":
        return query.push_batch(t, {"Obs": rows})
    return query.advance_to(t)


def register(text, parallelism=None):
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    return engine.register_query(text, parallelism=parallelism)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("text", [GROUPED, DISTINCT])
def test_delta_log_folds_to_the_full_state_reference(text, seed):
    query = register(text)
    # The reference is the full-state log: a copy of the state after
    # every applied instant, empty nets and same-instant entries included.
    states = []
    apply = query._apply_instant

    def recording(t, deltas):
        emitted = apply(t, deltas)
        states.append((t, query.current()))
        return emitted

    query._apply_instant = recording
    query.start()
    for call in random_calls(random.Random(seed)):
        feed(query, call)
    query.finish()
    last_per_instant = dict(states)
    assert len(last_per_instant) < len(states)
    assert query.as_relation() == TimeVaryingRelation.from_snapshots(
        last_per_instant.items())


@pytest.mark.parametrize("seed", range(10))
def test_rescaled_history_matches_the_serial_history(seed):
    """Live rescale 1→4→2 hands the delta log over intact."""
    rng = random.Random(seed)
    calls = random_calls(rng)
    first, second = sorted(rng.sample(range(1, len(calls)), 2))
    serial = register(GROUPED)
    query = PartitionedQuery.adopt(register(GROUPED))
    serial.start()
    query.start()
    for index, call in enumerate(calls):
        if index in (first, second):
            query.rescale(4 if index == first else 2)
        feed(serial, call)
        feed(query, call)
    assert query.parallelism == 2
    assert query.as_relation() == serial.as_relation()
    assert query.current() == serial.current()


@pytest.mark.parametrize("seed", range(10))
def test_partitioned_rstream_reemits_quiet_replicas_from_deltas(seed):
    calls = random_calls(random.Random(seed))
    serial, query = register(RSTREAM), register(RSTREAM, parallelism=3)
    assert isinstance(query, PartitionedQuery)
    for q in (serial, query):
        q.start()
        for call in calls:
            feed(q, call)
        q.finish()
    got, want = query.emitted_stream(), serial.emitted_stream()
    assert (got.timestamps(), got.values()) == \
        (want.timestamps(), want.values())
    assert query.as_relation() == serial.as_relation()


# -- restoring history ------------------------------------------------------

def pushed(query, instants):
    for t in instants:
        query.push_batch(t, {"Obs": [{"id": t % 3, "room": "ab"[t % 2],
                                      "temp": t}]})
    return query


def test_in_place_restore_truncates_history_to_the_snapshot():
    query = pushed(register(ISTREAM), range(1, 6))
    image = query.snapshot()
    relation, emissions = query.as_relation(), query.emissions()
    pushed(query, range(6, 12))
    query.restore(image)
    assert query.as_relation() == relation
    assert query.emissions() == emissions
    later = pushed(query, range(6, 8)).snapshot()
    query.restore(image)
    # The history ``later`` marks was truncated away with that restore.
    with pytest.raises(StateError, match="newer"):
        query.restore(later)


def test_foreign_restore_starts_history_at_the_restore_point():
    source = pushed(register(ISTREAM), range(1, 6))
    fresh = register(ISTREAM)
    fresh.restore(source.snapshot())
    assert fresh.emissions() == []
    relation = fresh.as_relation()
    assert relation.change_points() == [5]
    assert relation.at(5) == source.current()
    pushed(source, range(6, 10))
    pushed(fresh, range(6, 10))
    assert fresh.emissions() == [e for e in source.emissions()
                                 if e.timestamp > 5]
    for t in range(5, 10):
        assert fresh.as_relation().at(t) == source.as_relation().at(t)
