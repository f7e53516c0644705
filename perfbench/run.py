"""The repository's benchmark: four seeded workloads through the CQL, DSMS
and dynamic-table entry points.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cql-join-agg --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` is the timed run.  A workload has a few fixed-size inputs
that together hold at least 1000 operations.  The run replays all of
them, round after round, for ``--seconds``: each replay is an episode
(fresh set-up, then a closed loop of the input's operations), so every
operation runs once per round.

Times are calibrated for the host's speed.  A shared host changes speed
by up to ~2x for seconds to minutes at a time, as its neighbours come
and go, so raw times of the same code spread further between runs than
any bound worth keeping.  Each episode therefore also times a fixed
slice of pure-Python work between its operations, 20 times, and its
times are multiplied by the reference slice time over its median slice:
they read as on the reference host.  The slice is the benchmark's own
code, so a change to the system moves the calibrated times as much as
the raw ones.  Raw values are printed beside them.

An operation's latency is the median over its rounds of its calibrated
times.  Pauses the input causes (GC, checkpoints) recur on the same
operation every round, so they stay in p99.  The run reports: input rows
per second (all rows over the summed latencies), p50 and p99 latency of
one operation, peak RSS read from the OS, and set-up time (the median
over every episode's calibrated set-up).

``--trace 1`` is the traced run.  Each episode's input runs untraced,
then traced: spans around every call into the system, obs on so
operators record their self time, and three public methods wrapped to
time them from outside.  Per-layer metrics are means per episode, as
measured, except that the overheads (``trace.overhead_s``,
``obs.overhead_s``) compare two passes' calibrated wall times; the
``layer.*`` times plus ``trace.unattributed_s`` add up to
``trace.wall_s``.

Either way the outputs of every untraced episode are checked
against an independent evaluation after the timed phase, and every
operation that raised or lost a tuple counts as failed.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import OFF, Trace, wrapped

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Timed operations a run measures at least, so p99 has ten beyond it.
MIN_SAMPLES = 1000
#: Rounds a timed run makes at least, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Operations of the unreported warm-up episode.
WARM_UP_OPS = 100
#: Calibration slices per episode, spread evenly over its operations.
CAL_SLICES = 20
#: What one calibration slice takes on the reference host, a 2-vCPU
#: Intel Xeon VM at its usual speed; reported times are calibrated to it.
REFERENCE_SLICE_S = 0.0006


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))]


def calibration_slice() -> float:
    """Time a fixed slice of interpreter work (tuples, dicts, lists,
    calls), run between operations to track how fast the host runs
    Python at that moment.  GC stays off for the slice, so the system's
    heap does not change what the slice costs."""
    was_enabled = gc.isenabled()
    gc.disable()
    started = perf_counter()
    table: dict[tuple[int, int], list[int]] = {}
    total = 0
    for i in range(1000):
        key = (i % 37, i % 11)
        row = table.get(key)
        if row is None:
            row = table[key] = [0, i]
        row[0] += 1
        total += len(sorted(row)) + hash(key) % 7
    elapsed = perf_counter() - started
    if was_enabled:
        gc.enable()
    return elapsed


def run_episode(wl, inp, tr, obs_args: dict | None,
                checked: bool = True, ops: int | None = None) -> dict:
    """One episode: set-up, then the first ``ops`` operations (all by
    default), each timed.

    ``obs_args`` None keeps observability off; a dict is passed to
    ``obs.enable``.  With ``checked`` the workload captures its outputs
    (outside the timed calls) for verification after the run.
    """
    import repro.obs as obs

    obs.reset()
    if obs_args is not None:
        obs.enable(**obs_args)
    # A full collection first, so every replay of an input starts with
    # the same GC counts and collects at the same operations.
    gc.collect()
    started = perf_counter()
    system = wl.setup(inp, tr)
    setup = perf_counter() - started
    busy_before = wl.exec_busy(system) if tr.enabled else 0.0
    ops = wl.ops if ops is None else ops
    cal_every = max(1, ops // CAL_SLICES)
    latencies: list[float] = []
    calibration: list[float] = []
    op_rows: list[int] = []
    dropped = 0
    raised = False
    for i in range(ops):
        if i % cal_every == 0:
            calibration.append(calibration_slice())
        started = perf_counter()
        try:
            count, admitted = wl.op(system, inp, i, tr)
        except Exception:
            # The operation fails and the episode ends: its state is
            # unknown from here on.
            traceback.print_exc(file=sys.stderr)
            raised = True
            break
        latencies.append(perf_counter() - started)
        op_rows.append(count)
        dropped += not admitted
        if checked:
            wl.after_op(system, i)
    return {
        "system": system,
        "setup": setup,
        "latencies": latencies,
        "calibration": calibration,
        "op_rows": op_rows,
        "dropped": dropped,
        "raised": raised,
        "wall": setup + sum(latencies),
        "busy_before": busy_before,
        "captured": wl.capture(system) if checked else None,
        "obs_spans": sum(sum(1 for _ in root.walk())
                         for root in obs.get_tracer().traces),
    }


def per_op(captured, ops: int) -> list:
    """A captured output digest as one entry per operation (None where
    the workload captured nothing)."""
    if isinstance(captured, dict):
        return [captured.get(i) for i in range(ops)]
    return list(captured)


def check(wl, replays: list[tuple[object, list[dict]]]
          ) -> tuple[int, int, int]:
    """Count failures over every episode and check every output; returns
    (attempted, failed, checked).

    ``replays`` pairs each input with the episodes that ran it.  One
    episode of each input (the first that ran furthest) is checked
    against the workload's independent evaluation; every replay must
    reproduce its outputs exactly.  An operation fails when it raised,
    when any of its tuples were shed or dropped, or when its output is
    wrong.
    """
    attempted = failed = checked = 0
    for inp, episodes in replays:
        for ep in episodes:
            attempted += len(ep["latencies"]) + ep["raised"]
            failed += ep["raised"] + ep["dropped"]
        first = max(episodes, key=lambda ep: len(ep["latencies"]))
        results = wl.verify(inp, first["captured"])
        expected = per_op(first["captured"], wl.ops)
        for ep in episodes:
            outputs = per_op(ep["captured"], wl.ops)
            # After a raise only the operations before it have outputs.
            for i in range(min(len(ep["latencies"]), len(results))):
                if results[i] is not None:
                    checked += 1
                    failed += not (results[i] and outputs[i] == expected[i])
    return attempted, failed, checked


def host_factor(ep: dict) -> float:
    """How much faster the host ran during an episode than the reference
    host: the reference slice time over the episode's median slice."""
    return REFERENCE_SLICE_S / statistics.median(ep["calibration"])


def summarize(replays: list[list[dict]],
              calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics over the median latency of each operation.

    ``replays`` holds, per input, the episodes that ran it.  With
    ``calibrated`` every episode's times are first multiplied by its
    :func:`host_factor`; without, they are as measured.  An operation
    that raised in some rounds is timed over the rounds that finished it.
    """
    def factor(ep: dict) -> float:
        return host_factor(ep) if calibrated else 1.0

    per_op: list[float] = []
    rows = 0
    for episodes in replays:
        for i in range(max(len(ep["latencies"]) for ep in episodes)):
            done = [ep for ep in episodes if len(ep["latencies"]) > i]
            per_op.append(statistics.median(
                ep["latencies"][i] * factor(ep) for ep in done))
            rows += done[0]["op_rows"][i]
    ordered = sorted(per_op)
    return {
        "rows_per_s": rows / sum(per_op),
        "latency_p50_ms": quantile(ordered, 0.50) * 1e3,
        "latency_p99_ms": quantile(ordered, 0.99) * 1e3,
        "setup_s": statistics.median(ep["setup"] * factor(ep)
                                     for episodes in replays
                                     for ep in episodes),
    }


def warm_up(wl, seed: int) -> None:
    """A short unreported episode first, so lazy imports, first-touch
    memory and caches are paid before anything is timed."""
    run_episode(wl, wl.generate(seed, -1), OFF,
                {} if wl.timed_obs else None, checked=False,
                ops=WARM_UP_OPS)


def timed_run(wl, seed: int, seconds: float
              ) -> tuple[dict, list[tuple[object, list[dict]]]]:
    assert wl.inputs * wl.ops >= MIN_SAMPLES, wl.name
    obs_args = {} if wl.timed_obs else None
    warm_up(wl, seed)
    inputs = [wl.generate(seed, k) for k in range(wl.inputs)]
    replays: list[list[dict]] = [[] for _ in inputs]
    rounds = 0
    longest = 0.0
    started = perf_counter()
    # A round starts only if it should end within ``seconds``.
    while (rounds < MIN_ROUNDS
           or perf_counter() - started + longest <= seconds):
        round_started = perf_counter()
        for inp, episodes in zip(inputs, replays):
            ep = run_episode(wl, inp, OFF, obs_args)
            ep["system"] = None
            episodes.append(ep)
        rounds += 1
        longest = max(longest, perf_counter() - round_started)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import repro.obs as obs
    obs.reset()
    metrics = summarize(replays)
    metrics["peak_rss_mb"] = peak
    factors = [host_factor(ep) for episodes in replays for ep in episodes]
    print(f"{wl.name}: {rounds} rounds of {wl.inputs} inputs x {wl.ops} "
          f"operations; {wl.inputs * wl.ops} latency samples, each the "
          f"median of {rounds}")
    print(f"{wl.name}: host factor {min(factors):.3f} to "
          f"{max(factors):.3f} over the episodes (reference slice "
          f"{REFERENCE_SLICE_S * 1e3} ms); as measured, before "
          f"calibration: " + ", ".join(
              f"{name} = {value!r}"
              for name, value in summarize(replays, False).items()))
    return metrics, list(zip(inputs, replays))


def calibrated_wall(ep: dict) -> float:
    """An episode's wall time as on the reference host, so that passes
    run at different host speeds compare."""
    return ep["wall"] * host_factor(ep)


def traced_episode(wl, inp, trace: Trace,
                   traced_first: bool) -> tuple[dict, dict]:
    """The untraced pass (checked), an obs-off pass where obs is on in
    the timed run, and the traced pass, over one input; returns (untraced
    episode, per-layer metrics of this episode).  Callers alternate
    ``traced_first`` so pass order does not bias the overheads."""
    from workloads import WRAPPED

    def untraced_passes():
        untraced = run_episode(wl, inp, OFF, {} if wl.timed_obs else None)
        untraced["system"] = None
        plain = untraced
        if wl.timed_obs:
            plain = run_episode(wl, inp, OFF, None, checked=False)
        return untraced, calibrated_wall(untraced) - calibrated_wall(plain)

    if not traced_first:
        untraced, obs_overhead = untraced_passes()
    first = len(trace.spans)
    with wrapped(trace, WRAPPED):
        ep = run_episode(wl, inp, trace, wl.traced_obs, checked=False)
    if ep["raised"]:
        raise RuntimeError(f"{wl.name}: the traced pass raised")
    # Read before the next pass resets the obs registry.
    exec_ops = wl.exec_busy(ep["system"]) - ep["busy_before"]
    counts = wl.layer_counts(ep["system"])
    ep["system"] = None
    if traced_first:
        untraced, obs_overhead = untraced_passes()
    g = trace.totals(first).get
    calls = trace.counts(first)
    layers = {
        "plan": g("plan", 0.0),
        "cql": g("cql.register", 0.0) + g("cql.push", 0.0),
        # Checkpoints run inside DSMS calls; they are chaos time.
        "dsms": g("dsms.register", 0.0) + g("dsms.ingest", 0.0)
        + g("dsms.drain", 0.0) - g("chaos.checkpoint", 0.0),
        "views": g("views.install", 0.0) + g("views.apply", 0.0)
        + g("views.tick", 0.0) + g("views.read", 0.0),
        "chaos": g("chaos.checkpoint", 0.0),
        "exec": exec_ops,
    }
    # Operator self time runs inside the host layer's calls.
    layers[wl.exec_host] -= exec_ops
    wall = ep["wall"]
    metrics = {
        "plan.plan_s": g("plan", 0.0),
        "cql.register_s": g("cql.register", 0.0),
        "cql.push_s": g("cql.push", 0.0),
        "cql.driver_s": (g("cql.push", 0.0) - exec_ops
                         if wl.exec_host == "cql" else 0.0),
        "exec.busy_s": exec_ops,
        "dsms.register_s": g("dsms.register", 0.0),
        "dsms.ingest_s": g("dsms.ingest", 0.0),
        "dsms.drain_s": g("dsms.drain", 0.0),
        "dsms.store.write_s": g("dsms.store.write", 0.0),
        "obs.spans": untraced["obs_spans"],
        "obs.overhead_s": obs_overhead,
        "views.install_s": g("views.install", 0.0),
        "views.apply_s": g("views.apply", 0.0),
        "views.tick_s": g("views.tick", 0.0),
        "views.gc_s": g("views.gc", 0.0),
        "views.refresh_s": g("views.tick", 0.0) - g("views.gc", 0.0),
        "views.read_s": g("views.read", 0.0),
        "chaos.checkpoint_s": g("chaos.checkpoint", 0.0),
        "chaos.checkpoints": calls.get("chaos.checkpoint", 0),
        **{f"layer.{name}_s": value for name, value in layers.items()},
        "trace.wall_s": wall,
        "trace.overhead_s": calibrated_wall(ep) - calibrated_wall(untraced),
        "trace.unattributed_s": wall - sum(layers.values()),
        **counts,
    }
    return untraced, metrics


def traced_run(wl, seed: int, seconds: float, per_layer: list[str]
               ) -> tuple[dict, list[tuple[object, list[dict]]]]:
    warm_up(wl, seed)
    trace = Trace()
    replays: list[tuple[object, list[dict]]] = []
    per_episode: list[dict] = []
    started = perf_counter()
    while not replays or perf_counter() - started < seconds:
        inp = wl.generate(seed, len(replays))
        untraced, metrics = traced_episode(
            wl, inp, trace, traced_first=len(replays) % 2 == 1)
        replays.append((inp, [untraced]))
        per_episode.append(metrics)
    import repro.obs as obs
    obs.reset()
    out = {name: statistics.fmean(m.get(name, 0.0) for m in per_episode)
           for name in per_layer}
    out["views.gc_share"] = (out["views.gc_s"] / out["views.tick_s"]
                             if out["views.tick_s"] else 0.0)
    out["chaos.checkpoint_share"] = (
        out["chaos.checkpoint_s"] / out["dsms.drain_s"]
        if out["dsms.drain_s"] else 0.0)
    print(f"{wl.name}: traced {len(per_episode)} episodes, "
          f"{len(trace.spans)} spans kept")
    return out, replays


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no system to measure: {SRC / 'repro'} is "
              f"missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    reported = spec["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        metrics, replays = traced_run(wl, args.seed, args.seconds,
                                      per_layer)
    else:
        metrics, replays = timed_run(wl, args.seed, args.seconds)
    attempted, failed, checked = check(wl, replays)
    probe = wl.late_probe(args.seed) if hasattr(wl, "late_probe") else {}

    if args.trace:
        metrics.update({k: v for k, v in probe.items() if k in metrics})
        metrics["failed_share"] = failed / attempted
        if wl.name == "views-cdc":
            share = metrics["views.gc_share"]
            print(f"{wl.name}: views.gc_s is {share:.0%} of views.tick_s; "
                  f"GC {'dominates' if share > 0.5 else 'does not dominate'}"
                  f" tick")
        if wl.name == "dsms-recovery":
            share = metrics["chaos.checkpoint_share"]
            print(f"{wl.name}: chaos.checkpoint_s is {share:.0%} of "
                  f"dsms.drain_s; checkpoints "
                  f"{'dominate' if share > 0.5 else 'do not dominate'} "
                  f"drain")
    for m in reported:
        print(f"{wl.name} {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(f"{wl.name} failed_share = {failed / attempted!r} "
          f"({failed} of {attempted} operations failed; {checked} outputs "
          f"checked)")
    for name, value in probe.items():
        print(f"{wl.name} known defect, late commits: {name} = {value!r}")
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
