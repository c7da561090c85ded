"""The four benchmark workloads over TPC-R at scale 0.02 (120k detail rows).

Each workload builds its inputs from the seed alone and runs one
closed-loop client; every answer is checked between cycles, outside the
timed operations, and then dropped, so the heap (and with it the cost of
the garbage collector's full passes) stays the same through a run.
A workload exposes:

- ``setup(seed, work_dir)``: build data, cluster and (for sockets) the
  deployment, then run the warm-up queries; returns the set-up layer times;
- ``prepare_checks()``: reference answers, computed outside any timing;
- ``cycle()``: one unit of client work, a list of timed :class:`Op`;
- ``check(ops)``: the failures among one cycle's ``ops``, one message per
  failed op (called after every cycle, outside its timing);
- ``tail_percentile`` and ``min_cycles``: the fixed percentile beyond
  which the tail mean is taken, and the cycles that leave at least 10
  samples beyond it;
- ``close()``: tear down everything ``setup`` started (idempotent).

Why these four: each gives a different layer most of the work, so a gain
in one layer moves one workload and leaves another flat (see
``layers.json`` for the measured layer shares).
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import socket
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

from repro.bench.figures import combined_query, correlated_query
from repro.data.tpcr import (
    TPCRConfig,
    generate_tpcr,
    nation_partitioner,
    register_tpcr_fds,
)
from repro.distributed import evaluator
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.deployment import DEPLOYMENT_SPEC, ProcessCluster
from repro.distributed.optimizer import OptimizationOptions
from repro.relalg.engine import use_engine
from repro.service import HIT, QueryService

#: TPC-R scale factor: 0.02 x 6M = 120k detail rows.
SCALE = 0.02
SITES = 8
#: Site servers of the socket deployment: the core count of the machine
#: the benchmark was calibrated on, pinned so every machine runs the same
#: deployment.
SOCKET_SITES = 2
#: Each append adds 0.5% of the detail rows (600 rows at scale 0.02).
DELTA_SCALE = SCALE / 200
#: A timed operation still running after this long is interrupted and
#: counted as failed (timed out).
QUERY_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One timed client operation and what is needed to check it."""

    kind: str  # "query" | "append"
    latency_s: float
    source: str = "fresh"  # fresh | hit | refresh (service queries)
    stats: object = None
    answer: object = None
    check_key: object = None
    error: str = ""


def _failure(error: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(error), error)).strip()


class OpTimeout(Exception):
    """Raised into a timed operation that ran past ``QUERY_TIMEOUT_S``."""


@contextmanager
def _watchdog():
    """Interrupt the enclosed operation after ``QUERY_TIMEOUT_S`` seconds.

    Uses ``SIGALRM``, so it works on the main thread only (where the client
    runs); a hung socket wait or blocked lock raises :class:`OpTimeout`
    into the operation, which its caller records as a failure.
    """

    def expire(_signum, _frame):
        raise OpTimeout(f"operation exceeded {QUERY_TIMEOUT_S:g}s (timeout)")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _load(tpcr, sites: int) -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(sites))
    register_tpcr_fds(cluster.catalog)
    return cluster


def _execution_config(executor: str) -> evaluator.ExecutionConfig:
    # Every knob that reads an environment variable is pinned here.
    return evaluator.ExecutionConfig(
        executor=executor, engine="columnar", wire_codec="column"
    )


class QueryWorkload:
    """One GMDJ expression executed over and over through ``execute_query``."""

    root_layer = "evaluator.execute"

    def __init__(self, expression, options, executor, sites, tail_percentile=80.0):
        #: One query per cycle: ``min_cycles`` queries leave at least 10
        #: samples beyond the tail percentile.
        self.tail_percentile = tail_percentile
        self.min_cycles = math.ceil(1000.0 / (100.0 - tail_percentile))
        self.expression = expression
        self.options = options
        self.config = _execution_config(executor)
        self.sites = sites
        self.simulated = None
        self.cluster = None
        self.reference = None
        self.input_rows = 0
        self._store = None
        #: ``(pid, port)`` of every site server this workload started.
        self.site_servers = []

    @property
    def deployed(self) -> bool:
        return self.config.executor == "sockets"

    def setup(self, seed: int, work_dir: str) -> dict:
        timings = {}
        started = time.perf_counter()
        tpcr = generate_tpcr(TPCRConfig(scale=SCALE, seed=seed))
        timings["data.generate_s"] = time.perf_counter() - started
        self.input_rows = len(tpcr)

        started = time.perf_counter()
        self.simulated = _load(tpcr, self.sites)
        timings["warehouse.load_s"] = time.perf_counter() - started

        started = time.perf_counter()
        if self.deployed:
            self._store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
            self.cluster = ProcessCluster.from_simulated(self.simulated, self._store)
            with open(os.path.join(self._store, DEPLOYMENT_SPEC), encoding="utf-8") as handle:
                spec = json.load(handle)
            self.site_servers = [
                (entry["pid"], entry["port"]) for entry in spec["sites"].values()
            ]
        else:
            self.cluster = self.simulated
        timings["deployment.boot_s"] = time.perf_counter() - started

        started = time.perf_counter()
        warm = self._query()
        if warm.error:
            raise RuntimeError(f"warm-up query failed: {warm.error}")
        timings["bench.warmup_s"] = time.perf_counter() - started
        return timings

    def prepare_checks(self) -> None:
        self.reference = self.expression.evaluate_centralized(
            self.simulated.conceptual_tables()
        )

    def _query(self) -> Op:
        self.cluster.reset_network()
        started = time.perf_counter()
        try:
            with _watchdog():
                result = evaluator.execute_query(
                    self.cluster, self.expression, self.options, config=self.config
                )
        except Exception as error:  # noqa: BLE001 - counted, run continues
            return Op("query", time.perf_counter() - started, error=_failure(error))
        return Op(
            "query",
            time.perf_counter() - started,
            stats=result.stats,
            answer=result.relation,
        )

    def cycle(self) -> list:
        return [self._query()]

    def check(self, ops) -> list:
        failures = []
        for op in ops:
            if op.error:
                failures.append(op.error)
            elif not self.reference.same_rows_any_order_of_columns(op.answer):
                failures.append("answer differs from centralized evaluation")
            elif not op.stats.socket_parity():
                failures.append(
                    "socket byte parity broken: measured "
                    f"({op.stats.socket_bytes_down}, {op.stats.socket_bytes_up}) "
                    f"vs modeled ({op.stats.bytes_down}, {op.stats.bytes_up})"
                )
        return failures

    def resolved_config(self) -> dict:
        return {
            "executor": self.config.executor,
            "engine": self.config.engine,
            "wire_codec": self.config.wire_codec,
            "sites": self.sites,
            "expression_key": list(self.expression.key),
        }

    def close(self) -> list:
        """Tear down; returns the site servers or ports that outlived it."""
        leaks = []
        try:
            if self.cluster is not None and self.cluster is not self.simulated:
                self.cluster.close()
        finally:
            self.cluster = None
            if self._store is not None:
                shutil.rmtree(self._store, ignore_errors=True)
                self._store = None
            for pid, port in self.site_servers:
                leaks.extend(_reap_leak(pid, port))
            self.site_servers = []
        return leaks


def _reap_leak(pid: int, port: int) -> list:
    """Kill a site server that outlived teardown; report it and its port."""
    leaks = []
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        leaks.append(f"site server pid {pid} still running")
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        if probe.connect_ex(("127.0.0.1", port)) == 0:
            leaks.append(f"port {port} still listening")
    return leaks


# ---------------------------------------------------------------------------
# service-append
# ---------------------------------------------------------------------------

#: ``(sql, key attrs, [(alias, aggregate, column)])`` — single-GMDJ group-bys,
#: so every cached entry is refreshable.
TEMPLATES = (
    (
        "SELECT SuppKey, COUNT(*) AS cnt, SUM(Price) AS revenue "
        "FROM TPCR GROUP BY SuppKey",
        ("SuppKey",),
        (("cnt", "count", None), ("revenue", "sum", "Price")),
    ),
    (
        "SELECT CustName, COUNT(*) AS cnt, SUM(Price) AS revenue, "
        "AVG(Discount) AS avg_disc FROM TPCR GROUP BY CustName",
        ("CustName",),
        (
            ("cnt", "count", None),
            ("revenue", "sum", "Price"),
            ("avg_disc", "avg", "Discount"),
        ),
    ),
    (
        "SELECT NationKey, OrderYear, COUNT(*) AS cnt, AVG(Price) AS avg_price "
        "FROM TPCR GROUP BY NationKey, OrderYear",
        ("NationKey", "OrderYear"),
        (("cnt", "count", None), ("avg_price", "avg", "Price")),
    ),
)


class GroupByOracle:
    """Definition 1 for the single-GMDJ group-by templates, kept per version.

    With a distinct-projection base and key-equality condition, the GMDJ
    groups are the distinct keys of the detail relation and each aggregate
    ranges over the rows sharing the key. The oracle maintains count and
    column sums per group, independently of the program, and absorbs each
    appended delta as the data version advances. Sums fold in another order
    than the program's, so floats compare to a relative 1e-9.
    """

    def __init__(self, schema, templates=TEMPLATES):
        self._templates = templates
        self._keys = [schema.positions(list(keys)) for _sql, keys, _aggs in templates]
        self._columns = [
            [schema.position(column) for _alias, _agg, column in aggs if column]
            for _sql, _keys, aggs in templates
        ]
        self._groups = [{} for _template in templates]

    def absorb(self, rows) -> None:
        for keys, columns, groups in zip(self._keys, self._columns, self._groups):
            for row in rows:
                key = tuple(row[position] for position in keys)
                state = groups.get(key)
                if state is None:
                    state = groups[key] = [0] + [0.0] * len(columns)
                state[0] += 1
                for slot, position in enumerate(columns, start=1):
                    state[slot] += row[position]

    def mismatch(self, template_index: int, answer) -> str:
        """Why ``answer`` differs from the current version, or ``""``."""
        _sql, keys, aggs = self._templates[template_index]
        groups = self._groups[template_index]
        if len(answer) != len(groups):
            return f"{len(answer)} groups, expected {len(groups)}"
        key_positions = answer.schema.positions(list(keys))
        value_positions = answer.schema.positions([alias for alias, _agg, _col in aggs])
        for row in answer.rows:
            state = groups.get(tuple(row[position] for position in key_positions))
            if state is None:
                return f"unexpected group {row}"
            column_slot = 1
            for (alias, agg, _column), position in zip(aggs, value_positions):
                if agg == "count":
                    expected = state[0]
                    if row[position] != expected:
                        return f"{alias}={row[position]!r}, expected {expected!r}"
                    continue
                expected = state[column_slot]
                column_slot += 1
                if agg == "avg":
                    expected /= state[0]
                if not math.isclose(row[position], expected, rel_tol=1e-9, abs_tol=1e-9):
                    return f"{alias}={row[position]!r}, expected {expected!r}"
        return ""


class ServiceWorkload:
    """``QueryService`` with refreshable group-bys and periodic appends.

    One cycle is, twice, an append of a seeded 0.5% delta followed by
    every template once in a seeded order (each a refresh of its cached
    entry), then one repeat of a random template (a cache hit): six
    refreshes per hit. Seven queries of four kinds (hit and three refresh
    costs) are gated by their mean and the mean of their slowest fifth,
    which move smoothly as the kinds' costs move; a quantile of such a
    mix jumps from one kind to another.

    ``setup`` and ``cycle`` run under ``use_engine``: the incremental
    refresh runs outside ``execute_plan``'s engine scope, so without it
    the refresh kernels would take the process default (the row engine).
    """

    root_layer = "service.submit"
    #: 8 cycles of 7 queries leave at least 10 samples beyond p80.
    tail_percentile = 80.0
    min_cycles = 8

    def __init__(self):
        self.config = _execution_config("serial")
        self.cluster = None
        self.service = None
        self.input_rows = 0
        self._tpcr = None
        self._rng = None
        self._deltas = []
        self._oracle = None
        self._oracle_version = 0

    def setup(self, seed: int, work_dir: str) -> dict:
        timings = {}
        started = time.perf_counter()
        self._tpcr = generate_tpcr(TPCRConfig(scale=SCALE, seed=seed))
        timings["data.generate_s"] = time.perf_counter() - started
        self.input_rows = len(self._tpcr)
        self._rng = random.Random(seed)

        started = time.perf_counter()
        self.cluster = _load(self._tpcr, SITES)
        timings["warehouse.load_s"] = time.perf_counter() - started
        timings["deployment.boot_s"] = 0.0

        started = time.perf_counter()
        self.service = QueryService(
            self.cluster, self.config, OptimizationOptions.all()
        )
        with use_engine(self.config.engine):
            for sql, _keys, _aggs in TEMPLATES:
                self.service.submit(sql)
        timings["bench.warmup_s"] = time.perf_counter() - started
        return timings

    def prepare_checks(self) -> None:
        """The oracle at version 0; :meth:`check` advances it per append."""
        self._oracle = GroupByOracle(self._tpcr.schema)
        self._oracle.absorb(self._tpcr.rows)
        self._oracle_version = 0

    def _append(self) -> Op:
        delta = generate_tpcr(
            TPCRConfig(
                scale=DELTA_SCALE,
                seed=self._rng.randrange(2**31),
                fixed_customers=TPCRConfig(scale=SCALE).customer_count,
            )
        )
        per_site = dict(
            zip(self.cluster.site_ids, nation_partitioner(SITES).split(delta))
        )
        started = time.perf_counter()
        try:
            with _watchdog():
                self.service.append("TPCR", per_site)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            return Op("append", time.perf_counter() - started, error=_failure(error))
        self._deltas.append(delta)
        return Op("append", time.perf_counter() - started)

    def _submit(self, template_index: int) -> Op:
        version = len(self._deltas)
        started = time.perf_counter()
        try:
            with _watchdog():
                result = self.service.submit(TEMPLATES[template_index][0])
        except Exception as error:  # noqa: BLE001 - counted, run continues
            return Op("query", time.perf_counter() - started, error=_failure(error))
        return Op(
            "query",
            time.perf_counter() - started,
            source=result.source,
            stats=None if result.source == HIT else result.stats,
            answer=result.relation,
            check_key=(version, template_index),
        )

    def cycle(self) -> list:
        ops = []
        with use_engine(self.config.engine):
            for _append in range(2):
                ops.append(self._append())
                order = list(range(len(TEMPLATES)))
                self._rng.shuffle(order)
                ops.extend(self._submit(index) for index in order)
            ops.append(self._submit(self._rng.randrange(len(TEMPLATES))))
        return ops

    def check(self, ops) -> list:
        """Check a cycle's answers; cycles arrive in data-version order."""
        failures = []
        for op in ops:
            if op.error:
                failures.append(op.error)
                continue
            if op.kind != "query":
                continue
            version, template_index = op.check_key
            while self._oracle_version < version:
                self._oracle.absorb(self._deltas[self._oracle_version].rows)
                self._oracle_version += 1
            reason = self._oracle.mismatch(template_index, op.answer)
            if reason:
                failures.append(
                    f"template {template_index} at version {version}: {reason}"
                )
        return failures

    def resolved_config(self) -> dict:
        return {
            "executor": self.config.executor,
            "engine": self.config.engine,
            "wire_codec": self.config.wire_codec,
            "sites": SITES,
            # Pinned by use_engine around setup and cycle.
            "refresh_engine": self.config.engine,
            "templates": [sql for sql, _keys, _aggs in TEMPLATES],
        }

    def close(self) -> list:
        if self.service is not None:
            self.service.close()
            self.service = None
        return []


#: Workload name -> factory. The why of each is in ``BENCHMARK.json``.
WORKLOADS = {
    "tpcr-lowcard": lambda: QueryWorkload(
        combined_query(["NationKey"]), OptimizationOptions.all(), "serial", SITES
    ),
    # Runnable and traced, and used by the attribution self-check, but not
    # in BENCHMARK.json: its ten-seed spread on the calibration machine
    # (0.27 on query_p50_ms) exceeded the largest allowed bound, 0.25. At
    # ~0.6 queries/s its tail is the median, so a run needs 20 queries.
    "tpcr-highcard": lambda: QueryWorkload(
        correlated_query(["SuppKey"]), OptimizationOptions.all(), "serial", SITES,
        tail_percentile=50.0,
    ),
    "sockets-unopt": lambda: QueryWorkload(
        correlated_query(["CustName"]), OptimizationOptions.none(), "sockets",
        SOCKET_SITES,
    ),
    "service-append": ServiceWorkload,
}
