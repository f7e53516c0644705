"""The four benchmark workloads, each a closed loop from one process.

A workload runs in *episodes*: fresh set-up from generated inputs, then a
fixed number of operations.  An operation hands one instant's arrivals
(or one commit round) to a public entry point and blocks until its
output is available.  Fixed-size episodes keep every run's state, memory
and checkpoint sizes the same however fast the machine is; a run repeats
episodes until its time is up.

Each workload also knows how to check its own outputs against an
independent evaluation.  Checks run after the timed phase on a compact
per-operation digest captured outside the timed operations, with the
inputs regenerated from the seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace
from typing import Any

import repro.obs as obs
from repro.chaos.recovery import RecoveryManager
from repro.core import Schema
from repro.core.records import Record
from repro.core.relation import Bag
from repro.cql import CQLEngine
from repro.cql.parser import parse_query
from repro.cql.planner import plan_statement
from repro.dsms import DSMSEngine
from repro.dsms.components import Store
from repro.obs.profile import analyze
from repro.plan.rules import optimize
from repro.views import DynamicTableService, recompute

import gen
from spans import OFF

OBS_SCHEMA = Schema(["id", "room", "temp"])

#: Physical operator class -> the per-kind ``exec.<kind>.busy_s`` bucket.
EXEC_KIND = {
    "AggregateOp": "aggregate",
    "JoinOp": "join",
    "AppendOnlyJoinOp": "join",
    "StreamSourceOp": "window",
    "ProjectOp": "project",
}


def plan_query(catalog, text: str) -> None:
    """Plan ``text`` through the public CQL planner (parse, plan, rules):
    the traced run's ``plan`` span, timed on its own."""
    optimize(plan_statement(parse_query(text), catalog))


def digest(rows) -> int:
    """An order-insensitive fingerprint of one operation's output (rows
    may hold NULLs, so they sort by their repr)."""
    return hash(tuple(sorted(rows, key=repr)))


def emissions_by_op(emissions, ops: int) -> list[list[tuple]]:
    """Emissions grouped per operation; operation ``i`` is timestamp
    ``i + 1``."""
    out: list[list[tuple]] = [[] for _ in range(ops)]
    for emission in emissions:
        out[emission.timestamp - 1].append(tuple(emission.record.values))
    return out


def exec_zero() -> dict[str, float]:
    return dict.fromkeys(["aggregate", "join", "window", "project",
                          "records_in", "records_out", "state_entries"],
                         0.0)


def cql_exec_stats(queries) -> dict[str, float]:
    """Per-operator totals from :func:`repro.obs.profile.analyze`, each
    physical operator counted once even when queries share it."""
    stats = exec_zero()
    seen: set[int] = set()
    for query in queries:
        ops = query.operators()
        for entry in analyze(query)["operators"]:
            op = ops[entry["index"]][1]
            if id(op) in seen:
                continue
            seen.add(id(op))
            kind = EXEC_KIND.get(entry["operator"])
            if kind is not None:
                stats[kind] += entry["busy_seconds"]
            stats["records_in"] += entry["records_in"]
            stats["records_out"] += entry["records_out"]
            stats["state_entries"] += entry.get("state_entries") or 0
    return stats


def cql_busy(queries) -> float:
    """Operator self time so far (the set-up share the traced run takes
    out of the operations' exec time)."""
    seen: set[int] = set()
    busy = 0.0
    for query in queries:
        for _, op in query.operators():
            if id(op) not in seen:
                seen.add(id(op))
                busy += op.eval_seconds
    return busy


def cql_counts(queries) -> dict[str, float]:
    return {
        "cql.deltas": sum(q.deltas_processed for q in queries),
        "cql.state_rows": sum(len(q.current()) for q in queries),
        "cql.emissions": sum(len(q.emissions()) for q in queries),
    }


class Workload:
    """One workload; the subclasses say what each stresses (and
    ``BENCHMARK.json`` says why it was chosen)."""

    name = ""
    #: Operations per episode.
    ops = 0
    #: Distinct inputs the timed run replays each round; ``inputs * ops``
    #: is its latency sample count.
    inputs = 1
    #: Observability during the timed run (the configuration measured).
    timed_obs = False
    #: Extra ``obs.enable`` arguments for the traced run, which turns
    #: obs on everywhere so operator self time is recorded.
    traced_obs: dict[str, Any] = {}
    #: The layer whose calls run the operators during operations; the
    #: traced run moves their self time from it to ``exec``.
    exec_host = ""

    def generate(self, seed: int, episode: int) -> Any:
        raise NotImplementedError

    def setup(self, inp: Any, tr) -> Any:
        raise NotImplementedError

    def op(self, system: Any, inp: Any, i: int, tr) -> tuple[int, bool]:
        """One closed-loop operation; returns (input rows, all admitted)."""
        raise NotImplementedError

    def after_op(self, system: Any, i: int) -> None:
        """Untimed capture after operation ``i`` (checked passes only)."""

    def capture(self, system: Any) -> Any:
        """Untimed: the episode's output digest for :meth:`verify`."""
        raise NotImplementedError

    def verify(self, inp: Any, captured: Any) -> list[bool | None]:
        """Per operation: True/False when checked, None when not."""
        raise NotImplementedError

    def exec_busy(self, system: Any) -> float:
        raise NotImplementedError

    def layer_counts(self, system: Any) -> dict[str, float]:
        raise NotImplementedError


class CqlJoinAgg(Workload):
    """One Listing-1-shaped query on ``CQLEngine``, obs off, one
    ``push_batch`` per instant.  The per-instant driver dominates: state
    fold, full-state history copy, MIN/MAX rescans and join probes."""

    name = "cql-join-agg"
    ops = gen.JOIN_AGG_INSTANTS
    inputs = 2
    exec_host = "cql"
    QUERY = ("SELECT ISTREAM P.grp AS grp, COUNT(*) AS n, MIN(O.temp) AS lo, "
             "MAX(O.temp) AS hi FROM Person P, Obs O "
             f"[Range {gen.JOIN_AGG_RANGE}] WHERE P.id = O.id GROUP BY P.grp")

    def generate(self, seed, episode):
        return gen.join_agg(gen.rng_for(seed, self.name, episode))

    def setup(self, inp, tr):
        with tr.span("cql.register"):
            engine = CQLEngine()
            engine.register_stream("Obs", Schema(["id", "temp"]))
            engine.register_relation("Person", Schema(["id", "grp"]),
                                     rows=inp.persons)
        if tr.enabled:
            with tr.span("plan"):
                engine.plan(self.QUERY)
        with tr.span("cql.register"):
            query = engine.register_query(self.QUERY)
            query.start()
        return query

    def op(self, query, inp, i, tr):
        rows = inp.instants[i]
        with tr.span("cql.push"):
            query.push_batch(i + 1, {"Obs": rows})
        return len(rows), True

    def capture(self, query):
        return [digest(rows)
                for rows in emissions_by_op(query.emissions(), self.ops)]

    def verify(self, inp, captured):
        """Recompute the ISTREAM output per instant from the window's
        contents: a group's new row is emitted when it differs from the
        group's row one instant earlier."""
        groups_of: dict[int, list[int]] = defaultdict(list)
        for person in inp.persons:
            groups_of[person["id"]].append(person["grp"])
        window: dict[int, Counter] = defaultdict(Counter)
        rows: dict[int, tuple] = {}
        result = []
        for i, arrivals in enumerate(inp.instants):
            touched = set()
            # [Range R] at instant t holds timestamps in (t - R, t].
            expired = i - gen.JOIN_AGG_RANGE
            for row in (inp.instants[expired] if expired >= 0 else ()):
                for group in groups_of[row["id"]]:
                    temps = window[group]
                    temps[row["temp"]] -= 1
                    if not temps[row["temp"]]:
                        del temps[row["temp"]]
                    touched.add(group)
            for row in arrivals:
                for group in groups_of[row["id"]]:
                    window[group][row["temp"]] += 1
                    touched.add(group)
            emitted = []
            for group in touched:
                temps = window[group]
                if not temps:
                    rows.pop(group, None)
                    continue
                row = (group, sum(temps.values()), min(temps), max(temps))
                if rows.get(group) != row:
                    emitted.append(row)
                    rows[group] = row
            result.append(digest(emitted) == captured[i])
        return result

    def exec_busy(self, query):
        return cql_busy([query])

    def layer_counts(self, query):
        stats = cql_exec_stats([query])
        return {**cql_counts([query]), **exec_metrics(stats)}


def exec_metrics(stats: dict[str, float]) -> dict[str, float]:
    return {
        "exec.aggregate.busy_s": stats["aggregate"],
        "exec.join.busy_s": stats["join"],
        "exec.window.busy_s": stats["window"],
        "exec.project.busy_s": stats["project"],
        "exec.records_in": stats["records_in"],
        "exec.records_out": stats["records_out"],
        "exec.state_entries": stats["state_entries"],
    }


class _Dsms(Workload):
    """Shared shape of the two DSMS workloads: ingest an instant's rows,
    then ``run_until_idle``."""

    exec_host = "dsms"
    QUERIES: list[str] = []
    ROWS = 0
    SHARED = False

    def engine(self) -> DSMSEngine:
        raise NotImplementedError

    def generate(self, seed, episode):
        return gen.observations(gen.rng_for(seed, self.name, episode),
                                self.ops, self.ROWS)

    def setup(self, inp, tr):
        with tr.span("dsms.register"):
            engine = self.engine()
            engine.register_stream("Obs", OBS_SCHEMA)
        for index, text in enumerate(self.QUERIES):
            if tr.enabled:
                with tr.span("plan"):
                    plan_query(engine.catalog, text)
            with tr.span("dsms.register"):
                engine.register_query(f"q{index}", text)
        # A shared group admits each arrival once for all its members.
        units = 1 if self.SHARED else len(self.QUERIES)
        return SimpleNamespace(engine=engine, units=units, steps=0)

    def op(self, run, inp, i, tr):
        rows = inp.instants[i]
        t = i + 1
        admitted = 0
        with tr.span("dsms.ingest"):
            for row in rows:
                admitted += run.engine.ingest("Obs", row, t)
        with tr.span("dsms.drain"):
            run.steps += run.engine.run_until_idle()
        return len(rows), admitted == len(rows) * run.units

    def capture(self, run):
        per_query = [emissions_by_op(handle.emissions(), self.ops)
                     for handle in run.engine.queries]
        # Kept per query, in registration order, so outputs swapped
        # between queries do not cancel out.
        return [hash(tuple(digest(rows[i]) for rows in per_query))
                for i in range(self.ops)]

    def reference(self) -> DSMSEngine:
        raise NotImplementedError

    def verify(self, inp, captured):
        engine = self.reference()
        engine.register_stream("Obs", OBS_SCHEMA)
        for index, text in enumerate(self.QUERIES):
            engine.register_query(f"q{index}", text)
        run = SimpleNamespace(engine=engine, units=len(self.QUERIES),
                              steps=0)
        for i in range(self.ops):
            self.op(run, inp, i, OFF)
        expected = self.capture(run)
        return [a == b for a, b in zip(expected, captured)]

    def exec_busy(self, run):
        return cql_busy([h.query for h in run.engine.queries])

    def layer_counts(self, run):
        engine = run.engine
        queries = [h.query for h in engine.queries]
        handles = engine.queries
        waits = [h.metrics.queue_wait for h in handles]
        observed = sum(w.count for w in waits)
        recovery = engine.recovery
        latest = recovery.latest() if recovery is not None else None
        return {
            **cql_counts(queries),
            **exec_metrics(cql_exec_stats(queries)),
            "dsms.steps": run.steps,
            "dsms.store.writes": engine.store.writes,
            "dsms.scratch_peak": engine.scratch.peak,
            "dsms.queue_wait_mean": (sum(w.total for w in waits) / observed
                                     if observed else 0.0),
            "dsms.shed": sum(h.metrics.shed for h in handles),
            "dsms.queue_dropped": sum(h.metrics.queue_dropped
                                      for h in handles),
            "dsms.shared_subplan_hits": engine.shared_subplan_hits,
            "dsms.state_entries": engine.total_state_size(),
            "chaos.checkpoint_mb": (recovery.checkpoint_bytes / 1e6
                                    if recovery is not None else 0.0),
            "chaos.last_checkpoint_mb": (latest.size_bytes / 1e6
                                         if latest is not None else 0.0),
        }


class DsmsShared(_Dsms):
    """Six overlapping ISTREAM queries sharing a window and filter prefix
    on ``DSMSEngine(sharing=True)``, obs on.  Per-tuple DSMS work
    dominates: shared-group fan-out, a Store copy per member per tuple,
    Scratch recounts; per-query state is tiny."""

    name = "dsms-shared"
    ops = 500
    inputs = 2
    ROWS = 4
    SHARED = True
    timed_obs = True
    _PREFIX = "FROM Obs [Range 20] WHERE temp > 15"
    QUERIES = [
        f"SELECT ISTREAM id, temp {_PREFIX}",
        f"SELECT ISTREAM DISTINCT room {_PREFIX}",
        f"SELECT ISTREAM room, COUNT(*) AS n {_PREFIX} GROUP BY room",
        f"SELECT ISTREAM DISTINCT id {_PREFIX}",
        f"SELECT ISTREAM id, room {_PREFIX}",
        f"SELECT ISTREAM MAX(temp) AS hottest {_PREFIX}",
    ]

    def engine(self):
        return DSMSEngine(sharing=True)

    def reference(self):
        # The same queries, each with its own private plan.
        return DSMSEngine(sharing=False)


class DsmsRecovery(_Dsms):
    """Two small-state queries on the default (unshared, round-robin)
    ``DSMSEngine`` with ``recovery_interval`` set, obs off.  Checkpoints
    dominate; they carry the whole history, so they grow with uptime."""

    name = "dsms-recovery"
    ops = 300
    inputs = 4
    ROWS = 5
    #: Arrivals per checkpoint: one every 10 instants, so 10% of the
    #: operations take a checkpoint and p99 is always a checkpoint pause.
    INTERVAL = 50
    QUERIES = [
        "SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 10] "
        "GROUP BY room",
        "SELECT ISTREAM id, temp FROM Obs [Range 5] WHERE temp > 30",
    ]

    def engine(self):
        return DSMSEngine(recovery_interval=self.INTERVAL)

    def reference(self):
        # The same input with recovery off.
        return DSMSEngine()


class ViewsCdc(Workload):
    """A two-level view DAG on ``DynamicTableService``: each round
    commits skewed deletes and inserts at the next version, ticks, and
    reads the top view.  CDC commits, cascading refresh and changelog GC
    do all the work."""

    name = "views-cdc"
    ops = gen.VIEWS_ROUNDS
    inputs = 4
    exec_host = "views"
    traced_obs = {"profile": True, "sample_every": 1}
    SCHEMA = Schema(["k", "v"])
    TOTALS = ("CREATE DYNAMIC TABLE totals TARGET_LAG = DOWNSTREAM AS "
              "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM orders "
              "GROUP BY k EMIT CHANGES")
    #: About half the keys pass: a key holds ~10 rows of mean value ~500.
    HOT = ("CREATE DYNAMIC TABLE hot TARGET_LAG = 2 AS "
           "SELECT k, total FROM totals WHERE total > 5000 EMIT CHANGES")
    #: One round in this many is checked (a recompute costs ~25 ms).
    CHECK_EVERY = 20
    #: Share of late commits in the known-defect probe.
    LATE_SHARE = 0.2
    LATE_ROUNDS = 60

    def generate(self, seed, episode):
        return self._prepare(gen.cdc(gen.rng_for(seed, self.name, episode)))

    @staticmethod
    def _prepare(cdc: gen.CdcInput):
        """Rows as the mappings ``apply`` takes, built before timing."""
        rounds = [([{"k": k, "v": v} for k, v in r.deletes],
                   [{"k": k, "v": v} for k, v in r.inserts], r.late)
                  for r in cdc.rounds]
        return cdc, [{"k": k, "v": v} for k, v in cdc.base], rounds

    def setup(self, inp, tr):
        _, base, _ = inp
        with tr.span("views.install"):
            service = DynamicTableService()
            orders = service.create_table("orders", self.SCHEMA)
            service.apply("orders", inserts=base, at=1)
            service.execute(self.TOTALS)
            service.execute(self.HOT)
        return SimpleNamespace(service=service, orders=orders, fresh={})

    def op(self, run, inp, i, tr):
        service = run.service
        deletes, inserts, late = inp[2][i]
        with tr.span("views.apply"):
            if late:
                # Default version: the current clock (the known defect).
                service.apply("orders", inserts=inserts)
            else:
                service.apply("orders", inserts=inserts, deletes=deletes,
                              at=service.clock + 1)
        with tr.span("views.tick"):
            service.tick()
        with tr.span("views.read"):
            service.read("hot")
        return len(deletes) + len(inserts), True

    def after_op(self, run, i):
        if i % self.CHECK_EVERY == 0:
            self._capture_fresh(run, i)

    def _capture_fresh(self, run, i):
        # Only rounds where both views are fresh can be checked against
        # the base contents of that round.
        service = run.service
        if all(service.view(name).version == service.clock
               for name in ("totals", "hot")):
            run.fresh[i] = self._view_digests(
                service.read("totals"), service.read("hot"))

    @staticmethod
    def _view_digests(totals: Bag, hot: Bag) -> tuple[int, int]:
        return (digest((tuple(r.values), n) for r, n in totals.items()),
                digest((tuple(r.values), n) for r, n in hot.items()))

    def capture(self, run):
        return run.fresh

    def verify(self, inp, captured):
        """Recompute both views from the base contents of each fresh
        round with :func:`repro.views.recompute`."""
        cdc, _, _ = inp
        service = self.setup(inp, OFF).service
        totals_plan = service.view("totals").plan
        hot_plan = service.view("hot").plan
        after = cdc.base_after()
        result: list[bool | None] = [None] * len(cdc.rounds)
        for i, seen in captured.items():
            base = Bag.from_counts({Record(self.SCHEMA, kv): n
                                    for kv, n in after[i].items()})
            totals = recompute(totals_plan, {"orders": base})
            hot = recompute(hot_plan, {"totals": totals})
            result[i] = self._view_digests(totals, hot) == seen
        return result

    def late_probe(self, seed: int) -> dict[str, float]:
        """The known defect, measured outside the timed phase: late,
        insert-only commits through ``apply()``'s default version land at
        a version the views have already refreshed to and never reach
        them.  Late rows are never deleted afterwards, so the defect
        shows as wrong answers instead of an error that ends the run."""
        cdc = gen.cdc(gen.rng_for(seed, self.name + "-late", 0),
                      rounds=self.LATE_ROUNDS, late_share=self.LATE_SHARE)
        inp = self._prepare(cdc)
        run = self.setup(inp, OFF)
        for i in range(len(cdc.rounds)):
            self.op(run, inp, i, OFF)
            self._capture_fresh(run, i)
        checked = [ok for ok in self.verify(inp, run.fresh)
                   if ok is not None]
        service = run.service
        service.refresh("totals")
        counted = sum(r["n"] * m for r, m in service.read("totals").items())
        return {
            "views.late_commits": sum(r.late for r in cdc.rounds),
            "views.late_failed_share": (checked.count(False) / len(checked)
                                        if checked else 0.0),
            "views.late_rows_lost": sum(cdc.base_after()[-1].values())
            - counted,
        }

    @staticmethod
    def _plans(service):
        return [service.view(name).handle.plan
                for name in service.view_names()]

    def exec_busy(self, run):
        return sum(analyze(plan)["total_busy_seconds"]
                   for plan in self._plans(run.service))

    def layer_counts(self, run):
        service = run.service
        stats = exec_zero()
        for plan in self._plans(service):
            for entry in analyze(plan)["operators"]:
                stats["records_in"] += entry["records_in"]
                stats["records_out"] += entry["records_out"]
                stats["state_entries"] += entry["state_entries"] or 0
                kind = entry["kind"].lower()
                for bucket in ("aggregate", "join", "project"):
                    if bucket in kind:
                        stats[bucket] += entry["busy_seconds"]
        registry = obs.get_registry()
        names = service.view_names()
        return {
            **exec_metrics(stats),
            "views.refreshes": sum(service.view(n).refreshes for n in names),
            "views.rows_changed": sum(
                registry.counter("views.refresh.rows", view=n).value
                for n in names),
            "views.changelog_entries": len(run.orders.changelog)
            + sum(len(service.view(n).changelog) for n in names),
        }


WORKLOADS = {w.name: w for w in
             (CqlJoinAgg(), DsmsShared(), ViewsCdc(), DsmsRecovery())}

#: Public methods the traced run wraps to time them from outside.
WRAPPED = [
    (DynamicTableService, "gc", "views.gc"),
    (RecoveryManager, "checkpoint", "chaos.checkpoint"),
    (Store, "write", "dsms.store.write"),
]
