"""Snapshot/restore of the view service, including mid-refresh crashes."""

import pytest

from repro.chaos import CrashFuse
from repro.chaos.injection import InjectedCrash
from repro.chaos.recovery import RecoveryManager
from repro.core import StateError
from repro.core.records import Schema
from repro.core.relation import Bag
from repro.views import DynamicTableService
from repro.views.delta import apply_deltas

pytestmark = pytest.mark.views


def build_service():
    service = DynamicTableService()
    service.create_table("orders", Schema(["region", "amount"]))
    service.execute(
        "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
        "SUM(amount) AS total FROM orders GROUP BY region EMIT CHANGES")
    service.execute(
        "CREATE DYNAMIC TABLE big TARGET_LAG = 0 AS "
        "SELECT region FROM totals WHERE total > 5 EMIT CHANGES")
    return service


def contents(service, name):
    return sorted(service.read(name).items(), key=repr)


class TestRoundTrip:
    def test_snapshot_restore_round_trip(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()
        before = {name: contents(service, name)
                  for name in ("orders", "totals", "big")}
        version_before = service.view("totals").version

        service.apply("orders", inserts=[{"region": "us", "amount": 9}],
                      at=service.clock + 1)
        service.tick()
        assert contents(service, "totals") != before["totals"]

        service.restore(image)
        for name, want in before.items():
            assert contents(service, name) == want
        assert service.view("totals").version == version_before

    def test_restored_service_keeps_refreshing_correctly(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()
        service.restore(image)
        # Kernel operator state came back too: the next delta refreshes
        # incrementally on top of the restored accumulators.
        service.apply("orders", inserts=[{"region": "eu", "amount": 1}],
                      at=service.clock + 1)
        service.tick()
        (row, _), = service.read("totals").items()
        assert row["total"] == 10

    def test_suspension_survives_restore(self):
        service = build_service()
        service.suspend("totals")
        image = service.snapshot()
        service.resume("totals")
        service.restore(image)
        assert service.view("totals").suspended

    def test_restore_rejects_unregistered_views(self):
        service = build_service()
        image = service.snapshot()
        fresh = DynamicTableService()
        with pytest.raises(StateError):
            fresh.restore(image)


class TestMidRefreshCrash:
    def test_crash_mid_refresh_rolls_back_and_converges(self):
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        image = service.snapshot()

        handle = service.view("totals").handle
        op = handle.operator(handle.operator_names()[0])
        fuse = CrashFuse(at=1)
        original = op.process_batch

        def torn(*args, **kwargs):
            result = original(*args, **kwargs)
            if fuse.record(1):
                raise InjectedCrash("mid-refresh fault")
            return result

        op.process_batch = torn
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=service.clock + 1)
        with pytest.raises(InjectedCrash):
            service.refresh("totals")
        del op.process_batch
        assert fuse.fired

        # Roll back the torn state and replay the commit: exactly-once.
        service.restore(image)
        service.apply("orders", inserts=[{"region": "eu", "amount": 2}],
                      at=service.clock + 1)
        service.refresh("totals")
        (row, _), = service.read("totals").items()
        assert row["total"] == 11

    def test_recovery_manager_protocol(self):
        """The service plugs into the chaos RecoveryManager as-is."""
        service = build_service()
        service.apply("orders", inserts=[{"region": "eu", "amount": 9}],
                      at=1)
        service.tick()
        manager = RecoveryManager(service, interval=1, measure_bytes=False,
                                  sleep=lambda _d: None)
        manager.start()
        service.apply("orders", inserts=[{"region": "us", "amount": 1}],
                      at=service.clock + 1)
        service.tick()
        restored = manager.recover()
        assert restored.offset == 0
        assert {row["region"] for row, _ in service.read("totals").items()} \
            == {"eu"}


class TestDSMSIntegration:
    def build_engine(self):
        from repro.dsms import DSMSEngine

        engine = DSMSEngine()
        engine.register_stream("Orders", Schema(["region", "amount"]))
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total FROM Orders GROUP BY region EMIT CHANGES")
        return engine

    def test_stream_feeds_view(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        engine.advance_time(2)
        (row, _), = engine.views.read("totals").items()
        assert row["total"] == 4

    def test_engine_snapshot_carries_views(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        engine.advance_time(2)
        image = engine.snapshot()
        assert "views" in image

        engine.ingest("Orders", {"region": "eu", "amount": 5}, 3)
        engine.run_until_idle()
        engine.advance_time(4)
        engine.restore(image)
        (row, _), = engine.views.read("totals").items()
        assert row["total"] == 4

    def test_same_timestamp_arrival_after_idle_reaches_view(self):
        engine = self.build_engine()
        engine.ingest("Orders", {"region": "eu", "amount": 4}, 1)
        engine.run_until_idle()
        assert engine.views.view("totals").version == 1
        # The view has refreshed to version 1: a second arrival at t=1
        # must commit past it, or no refresh would ever pull it.
        engine.ingest("Orders", {"region": "eu", "amount": 5}, 1)
        engine.run_until_idle()
        (row, _), = engine.views.read("totals").items()
        assert row["total"] == 9


class TestDSMSRecoveryOverCompactedLogs:
    """A crash in a standing query restores the whole engine, view
    changelogs included, from a checkpoint taken after many
    compactions; replay must rebuild the exact uncrashed view."""

    def build(self, recovery_interval=None):
        from repro.dsms import DSMSEngine
        from repro.dsms.shedding import NoShedding

        engine = DSMSEngine(recovery_interval=recovery_interval)
        engine.register_stream("Orders", Schema(["region", "amount"]))
        handle = engine.register_query(
            "q", "SELECT ISTREAM region, amount FROM Orders [Range 3] "
            "WHERE amount > 1", shedder=NoShedding())
        engine.create_dynamic_table(
            "CREATE DYNAMIC TABLE totals TARGET_LAG = 0 AS SELECT region, "
            "SUM(amount) AS total, COUNT(*) AS n FROM Orders "
            "GROUP BY region EMIT CHANGES")
        return engine, handle

    def drive(self, engine):
        for t in range(1, 30):
            for j in range(3):
                engine.ingest("Orders", {"region": "abc"[(t + j) % 3],
                                         "amount": (t * j) % 5}, t)
            engine.run_until_idle()
            if t % 4 == 0:  # a same-timestamp arrival after settling
                engine.ingest("Orders", {"region": "a", "amount": 7}, t)
                engine.run_until_idle()
            engine.advance_time(t + 1)
        engine.advance_time(40)

    def test_recovered_view_equals_uncrashed(self):
        from repro.chaos import install_crash

        clean_engine, clean = self.build()
        self.drive(clean_engine)
        engine, handle = self.build(recovery_interval=2)
        fuse = CrashFuse(at=40)
        install_crash(handle.query, 1, fuse)
        self.drive(engine)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        assert engine.recovery.replayed_records > 0
        for name in ("Orders", "totals"):
            assert contents(engine.views, name) == \
                contents(clean_engine.views, name)
        # Every compaction kept full replay exact: the base log alone
        # rebuilds the table.
        log = engine.views._tables["Orders"].changelog
        replayed = Bag()
        apply_deltas(replayed, log.between(-1, engine.views.clock))
        assert sorted(replayed.items(), key=repr) == \
            contents(clean_engine.views, "Orders")
        assert len(log) <= 2
        assert handle.emissions() == clean.emissions()
