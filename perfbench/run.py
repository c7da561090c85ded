"""Distributed GMDJ benchmark: one command, one workload, one seeded run.

    python3 perfbench/run.py --workload tpcr-lowcard --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` sets the workload up three times, each from its own seed
derived from ``--seed`` (``setup_s`` is the median), runs one closed-loop
client for a third of ``--seconds`` after each set-up, and prints the
end-to-end metrics. ``--trace 1`` sets up once and alternates untraced and
traced cycles (spans from :mod:`ledger`), printing the per-layer metrics.
Every answer is checked between cycles, outside the timed operations. The
last line of stdout is the result object; the line before it carries
details (resolved configuration, tail percentile, failures).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, "perfbench", "_work")

#: Environment variables that would override the pinned configuration in
#: this process or in the site servers it starts.
OVERRIDING_ENV = (
    "REPRO_EXECUTOR",
    "REPRO_ENGINE",
    "REPRO_CODEC",
    "REPRO_SITE_CLOCK_OFFSET_S",
)

SETUP_REPS = 3
#: A traced run alternates untraced and traced cycles; it needs this many
#: of each for the overhead.
MIN_CYCLES_EACH = 3
#: Hard stop on measured time, so a run on a slow machine still ends
#: within three minutes.
MAX_LOOP_S = 100.0

#: The CPUs this process may run on. A busy thread stays on one CPU for
#: tens of seconds, and on a shared host each CPU's speed drifts on its own
#: (fast, or ~1.8x slower, for seconds to minutes at a time); so each cycle
#: runs pinned to the next CPU in turn, and every run samples all of them.
CPUS = sorted(os.sched_getaffinity(0))

#: Layers reported by self time per query (``<layer>_ms``).
SELF_LAYERS = (
    "site.base",
    "site.evaluate_self",
    "gmdj.accumulate",
    "gmdj.merge_sub",
    "coordinator.session_init",
    "coordinator.absorb",
    "coordinator.finish",
    "coordinator.assemble",
    "coordinator.sync_base",
    "coordinator.fragment",
    "codec.encode",
    "codec.decode",
    "codec.row_equiv",
    "executor.fanout",
    "socket.ask",
    "socket.send",
    "optimizer.plan",
    "service.parse",
    "service.lookup",
    "service.refresh",
    "service.canonical_order",
)
#: Layers whose call count per query is reported (``<layer>.calls``).
COUNTED_LAYERS = (
    "gmdj.accumulate",
    "coordinator.absorb",
    "codec.encode",
    "codec.decode",
    "executor.leg",
)
#: Share groups: self time of every layer under the prefix over query wall.
SHARE_GROUPS = (
    "site", "gmdj", "coordinator", "codec", "executor", "socket",
    "optimizer", "service",
)
#: Spans of appends, outside any query.
APPEND_LAYERS = ("service.append", "warehouse.append")


def _strip_environment() -> list:
    return [name for name in OVERRIDING_ENV if os.environ.pop(name, None) is not None]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail(latencies, percentile: float) -> tuple:
    """``(value, samples beyond, mean beyond)`` of the nearest-rank
    ``percentile``; the mean is over the samples beyond it.

    The percentile is fixed per workload, so runs of a faster and a slower
    commit report the same statistic; each workload's ``min_cycles`` leaves
    at least 10 samples beyond it.
    """
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0))
    return ordered[rank - 1], len(ordered) - rank, statistics.fmean(ordered[rank:])


def _input_seed(seed: int, rep: int) -> int:
    """The seed of the inputs of one set-up of a run."""
    return seed * SETUP_REPS + rep


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _done(measured_s: float, seconds: float, cycles: int, min_cycles: int) -> bool:
    limit = MAX_LOOP_S / SETUP_REPS
    return measured_s >= limit or (measured_s >= seconds and cycles >= min_cycles)


@contextmanager
def _pinned(turn: int):
    """Run the block on CPU ``turn`` (mod the CPU count), then unpin.

    Threads the block starts (the socket legs) inherit the pin; the site
    servers, started during set-up, do not.
    """
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def _measured_cycle(workload, failures: list, ledger=None, targets=(), turn=0) -> tuple:
    """Run and time one cycle (traced when given a ledger) on the CPU of
    ``turn``, then check its answers and drop them."""
    if ledger is not None:
        ledger.install(targets)
    try:
        with _pinned(turn):
            started = time.perf_counter()
            ops = workload.cycle()
            cycle_s = time.perf_counter() - started
    finally:
        if ledger is not None:
            ledger.uninstall()
    failures.extend(workload.check(ops))
    for op in ops:
        op.answer = None
    return cycle_s, ops


def _queries(ops) -> list:
    return [op for op in ops if op.kind == "query"]


def _close(workload, leaks: list) -> None:
    leaks.extend(workload.close())


def run_untraced(workloads, name: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of one run.

    Returns ``(ops, failures, leaks, metrics, details)``: ``failures`` has
    one message per failed operation, ``leaks`` one per site server or port
    that outlived its teardown.

    The run sets the workload up ``SETUP_REPS`` times, each from its own
    seed derived from ``seed``, and measures a share of ``seconds`` after
    each set-up. The measured queries are spread over the whole run rather
    than bunched at its end, and over three inputs, so where the garbage
    collector's full passes land in one input does not set the result.
    """
    setup_s = []
    failures: list = []
    leaks: list = []
    ops = []
    loop_s = 0.0
    for rep in range(SETUP_REPS):
        workload = workloads.WORKLOADS[name]()
        try:
            started = time.perf_counter()
            workload.setup(_input_seed(seed, rep), WORK_DIR)
            setup_s.append(time.perf_counter() - started)
            workload.prepare_checks()
            gc.collect()
            # Each workload names the cycles that leave 10 samples beyond
            # its tail percentile.
            min_cycles = -(-workload.min_cycles // SETUP_REPS)
            segment_s = 0.0
            cycles = 0
            while not _done(segment_s, seconds / SETUP_REPS, cycles, min_cycles):
                cycle_s, cycle_ops = _measured_cycle(
                    workload, failures, turn=rep + cycles
                )
                segment_s += cycle_s
                ops.extend(cycle_ops)
                cycles += 1
            loop_s += segment_s
        finally:
            _close(workload, leaks)
            gc.collect()

    queries = _queries(ops)
    latencies = [op.latency_s for op in queries]
    executed = [op for op in queries if op.stats is not None]
    tail_s, beyond, tail_mean_s = _tail(latencies, workload.tail_percentile)
    completed = sum(1 for op in queries if not op.error)
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "query_mean_ms": _metric(statistics.fmean(latencies) * 1000.0, "ms"),
        "query_tail_mean_ms": _metric(tail_mean_s * 1000.0, "ms"),
        "throughput_qps": _metric(completed / loop_s, "1/s"),
        "bytes_per_query": _metric(
            statistics.fmean(op.stats.bytes_total for op in executed), "bytes"
        ),
        "correct_frac": _metric(1.0 - len(failures) / len(ops), "frac"),
        "coordinator_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    refreshes = [op.latency_s for op in queries if op.source == "refresh"]
    appends = [op.latency_s for op in ops if op.kind == "append"]
    details = {
        "setup_reps_s": setup_s,
        # Reported, not gated: on a shared host these quantiles jump
        # between the host's fast and slow phases (see the README).
        "query_p50_ms": _metric(statistics.median(latencies) * 1000.0, "ms"),
        "query_tail": {
            "percentile": workload.tail_percentile,
            "value_ms": tail_s * 1000.0,
            "samples_beyond": beyond,
            "samples": len(latencies),
        },
        "throughput": {"queries": completed, "loop_s": loop_s, "input_rows": workload.input_rows},
        "answers_checked": completed,
        "error_frac": len(failures) / len(ops),
        "resolved_config": workload.resolved_config(),
    }
    if appends:
        details["refresh_p50_ms"] = statistics.median(refreshes) * 1000.0
        details["append_p50_ms"] = statistics.median(appends) * 1000.0
        details["sources"] = {
            source: sum(op.source == source for op in queries)
            for source in ("fresh", "hit", "refresh")
        }
    return ops, failures, leaks, metrics, details


def run_traced(workloads, name: str, seed: int, seconds: float) -> tuple:
    """Per-layer metrics of one run; returns what :func:`run_untraced` does."""
    from ledger import Ledger, layer_targets

    failures: list = []
    leaks: list = []
    workload = workloads.WORKLOADS[name]()
    ledger = Ledger()
    cycles = {False: [], True: []}
    try:
        setup_started = time.perf_counter()
        setup = workload.setup(_input_seed(seed, 0), WORK_DIR)
        setup["bench.setup_s"] = time.perf_counter() - setup_started
        workload.prepare_checks()
        targets = layer_targets()
        gc.collect()
        measured_s = 0.0
        while measured_s < MAX_LOOP_S and (
            measured_s < seconds
            or min(len(cycles[False]), len(cycles[True])) < MIN_CYCLES_EACH
        ):
            traced = len(cycles[False]) > len(cycles[True])
            cycle_s, ops = _measured_cycle(
                workload, failures, ledger if traced else None, targets,
                turn=len(cycles[traced]),
            )
            measured_s += cycle_s
            cycles[traced].append((cycle_s, ops))
        all_ops = [op for kind in (False, True) for _wall, ops in cycles[kind] for op in ops]
    finally:
        _close(workload, leaks)

    traced_ops = [op for _wall, ops in cycles[True] for op in ops]
    metrics = _layer_metrics(workload, ledger, traced_ops, all_ops, setup)
    untraced_s = statistics.median(wall for wall, _ops in cycles[False])
    traced_s = statistics.median(wall for wall, _ops in cycles[True])
    metrics["bench.trace_overhead_frac"] = _metric(traced_s / untraced_s - 1.0, "frac")
    details = {
        "cycles": {"untraced": len(cycles[False]), "traced": len(cycles[True])},
        "resolved_config": workload.resolved_config(),
    }
    return all_ops, failures, leaks, metrics, details


def _layer_metrics(workload, ledger, traced_ops, all_ops, setup) -> dict:
    queries = _queries(traced_ops)
    count = len(queries)
    executed = [op for op in queries if op.stats is not None]
    per_executed = max(len(executed), 1)
    appends = [op for op in traced_ops if op.kind == "append"]

    def per_query_ms(seconds):
        return seconds * 1000.0 / count

    metrics = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}_ms"] = _metric(per_query_ms(ledger.self_s[layer]), "ms")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = _metric(ledger.calls[layer] / count, "count")
    for counter, unit in (
        ("gmdj.detail_rows", "count"),
        ("coordinator.absorb_rows", "count"),
        ("codec.encoded_bytes", "bytes"),
    ):
        metrics[counter] = _metric(ledger.counters[counter] / count, unit)

    query_wall_s = sum(ledger.roots[workload.root_layer])
    unattributed_s = ledger.client_self_s[workload.root_layer]
    all_roots_s = sum(sum(walls) for walls in ledger.roots.values())
    metrics["evaluator.execute_ms"] = _metric(
        per_query_ms(ledger.inclusive_s["evaluator.execute"]), "ms"
    )
    metrics["bench.query_ms"] = _metric(per_query_ms(query_wall_s), "ms")
    metrics["bench.unattributed_ms"] = _metric(per_query_ms(unattributed_s), "ms")
    metrics["bench.unattributed_frac"] = _metric(unattributed_s / query_wall_s, "frac")
    metrics["bench.ledger_gap_frac"] = _metric(
        abs(sum(ledger.client_self_s.values()) - all_roots_s) / all_roots_s, "frac"
    )
    for group in SHARE_GROUPS:
        busy = sum(
            seconds for layer, seconds in ledger.self_s.items()
            if layer.split(".")[0] == group and layer not in APPEND_LAYERS
            and layer != workload.root_layer
        )
        metrics[f"share.{group}"] = _metric(busy / query_wall_s, "frac")
    metrics["share.coordinator_codec"] = _metric(
        metrics["share.coordinator"]["value"] + metrics["share.codec"]["value"], "frac"
    )

    leg_s = ledger.inclusive_s["executor.leg"]
    site_s = sum(op.stats.site_compute_total_s() for op in executed)
    site_max_s = sum(op.stats.site_compute_s() for op in executed)
    metrics["executor.leg_ms"] = _metric(per_query_ms(leg_s), "ms")
    metrics["executor.leg_self_ms"] = _metric(per_query_ms(ledger.self_s["executor.leg"]), "ms")
    metrics["site.compute_ms"] = _metric(site_s * 1000.0 / per_executed, "ms")
    metrics["site.compute_max_ms"] = _metric(site_max_s * 1000.0 / per_executed, "ms")
    metrics["transport.wait_ms"] = _metric(
        (leg_s - site_s) * 1000.0 / per_executed if leg_s else 0.0, "ms"
    )
    for name, attribute, unit in (
        ("net.bytes_down", "bytes_down", "bytes"),
        ("net.bytes_up", "bytes_up", "bytes"),
        ("net.tuples_down", "tuples_down", "count"),
        ("net.tuples_up", "tuples_up", "count"),
        ("socket.framing_bytes", "socket_framing_bytes", "bytes"),
        ("socket.frames", "socket_frames", "count"),
        ("socket.reconnects", "socket_reconnects", "count"),
    ):
        total = sum(getattr(op.stats, attribute) for op in executed)
        metrics[name] = _metric(total / per_executed, unit)

    every_query = _queries(all_ops)
    run_stats = [op.stats for op in every_query if op.stats is not None]
    metrics["recovery.retries"] = _metric(sum(s.retries for s in run_stats), "count")
    metrics["recovery.speculative_legs"] = _metric(
        sum(s.speculative_legs for s in run_stats), "count"
    )
    for name, source in (("service.hit_ratio", "hit"), ("service.refresh_ratio", "refresh")):
        metrics[name] = _metric(
            sum(op.source == source for op in every_query) / len(every_query), "frac"
        )
    metrics["warehouse.append_ms"] = _metric(
        ledger.self_s["warehouse.append"] * 1000.0 / len(appends) if appends else 0.0, "ms"
    )
    traced_ids = {id(op) for op in traced_ops}
    untraced = [op for op in all_ops if id(op) not in traced_ids]
    for name, picked in (
        ("service.refresh_p50_ms", [op.latency_s for op in untraced if op.source == "refresh"]),
        ("service.append_p50_ms", [op.latency_s for op in untraced if op.kind == "append"]),
    ):
        metrics[name] = _metric(statistics.median(picked) * 1000.0 if picked else 0.0, "ms")
    for name in ("data.generate_s", "warehouse.load_s", "deployment.boot_s",
                 "bench.warmup_s", "bench.setup_s"):
        metrics[name] = _metric(setup[name], "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stripped = _strip_environment()
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    # A terminated run still tears its deployment down in ``finally``.
    signal.signal(signal.SIGTERM, lambda *_frame: sys.exit(143))
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        ops, failures, leaks, metrics, details = run(
            workloads, args.workload, args.seed, args.seconds
        )
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        stripped_env=stripped,
        nproc=os.cpu_count(),
        cycle_cpus=CPUS,
        failures=failures[:5],
        teardown_leaks=leaks,
    )
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures and not leaks,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
