"""Self-checks of the benchmark: span ledger, answer oracle, attribution, hygiene.

Run from the root of a checkout (the attribution and socket checks take
a few minutes, since they run the real workloads):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, layer_targets as ledger_targets  # noqa: E402
from repro.data.tpcr import TPCRConfig, generate_tpcr  # noqa: E402
from repro.gmdj import operator  # noqa: E402
from repro.queries.sql import parse_olap_statement  # noqa: E402
from repro.relalg.engine import active_engine  # noqa: E402
from repro.relalg.relation import Relation  # noqa: E402


@pytest.fixture(autouse=True)
def _work_dir():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    yield
    os.rmdir(run.WORK_DIR)  # fails the test if a store was left behind


# -- ledger ------------------------------------------------------------------


class _Layers:
    """Stand-in entry points: an outer call spending time in two children."""

    @staticmethod
    def leaf(seconds):
        time.sleep(seconds)

    @staticmethod
    def measure(seconds):
        _Layers.leaf(seconds)  # nested inside an opaque span: not its own span

    @staticmethod
    def outer():
        time.sleep(0.02)
        _Layers.leaf(0.03)
        _Layers.measure(0.01)


def _targets():
    return [
        (_Layers, "outer", "bench.root", (), False),
        (_Layers, "leaf", "layer.leaf", (("layer.count", lambda args, _r: 1),), False),
        (_Layers, "measure", "layer.opaque", (), True),
    ]


def test_ledger_self_times_add_up_to_the_root():
    original = vars(_Layers)["outer"]
    ledger = Ledger()
    ledger.install(_targets())
    try:
        _Layers.outer()
    finally:
        ledger.uninstall()
    assert vars(_Layers)["outer"] is original

    (root_s,) = ledger.roots["bench.root"]
    assert sum(ledger.client_self_s.values()) == pytest.approx(root_s, rel=1e-9)
    assert ledger.self_s["layer.leaf"] == pytest.approx(0.03, abs=0.015)
    assert ledger.self_s["layer.opaque"] == pytest.approx(0.01, abs=0.015)
    assert ledger.self_s["bench.root"] == pytest.approx(0.02, abs=0.015)
    assert ledger.calls["layer.leaf"] == 1  # the opaque span swallowed the second
    assert ledger.counters["layer.count"] == 1


# -- service-append oracle -----------------------------------------------------


def test_group_by_oracle_matches_centralized_evaluation():
    tpcr = generate_tpcr(TPCRConfig(scale=0.0005, seed=5))
    delta = generate_tpcr(TPCRConfig(scale=0.0001, seed=6, fixed_customers=50))
    grown = tpcr.union_all(delta)
    oracle = workloads.GroupByOracle(tpcr.schema)
    oracle.absorb(tpcr.rows)
    for data, absorb_next in ((tpcr, delta), (grown, None)):
        for index, (sql, _keys, _aggs) in enumerate(workloads.TEMPLATES):
            expected = parse_olap_statement(sql).expression.evaluate_centralized(
                {"TPCR": data}
            )
            assert oracle.mismatch(index, expected) == "", sql
            wrong = Relation(expected.schema, expected.rows[1:])
            assert oracle.mismatch(index, wrong) != ""
        if absorb_next is not None:
            oracle.absorb(absorb_next.rows)


# -- pinned engine and watchdog ----------------------------------------------------


def test_service_refreshes_run_on_the_pinned_columnar_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "row")
    engines = []
    original = operator.evaluate_sub

    def recording_evaluate_sub(*args, **kwargs):
        engines.append(active_engine())
        return original(*args, **kwargs)

    workload = workloads.WORKLOADS["service-append"]()
    try:
        workload.setup(3, run.WORK_DIR)
        workload.prepare_checks()
        monkeypatch.setattr(operator, "evaluate_sub", recording_evaluate_sub)
        ops = workload.cycle()
        assert workload.check(ops) == []
    finally:
        workload.close()
    assert sum(op.source == "refresh" for op in ops) == 6
    assert engines and set(engines) == {"columnar"}


class _StubCluster:
    def reset_network(self):
        pass


def test_a_hung_query_is_interrupted_and_counted_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "QUERY_TIMEOUT_S", 0.2)
    monkeypatch.setattr(
        workloads.evaluator, "execute_query", lambda *_args, **_kwargs: time.sleep(30)
    )
    workload = workloads.WORKLOADS["tpcr-lowcard"]()
    workload.cluster = _StubCluster()
    op = workload._query()
    assert op.latency_s < 5.0
    assert "timeout" in op.error
    assert workload.check([op]) == [op.error]


# -- attribution self-check ------------------------------------------------------

#: Added per absorbed row to every ``SyncSession.absorb`` call, as a
#: slower absorb kernel would: tpcr-highcard absorbs ~31k sub-result rows
#: a query (~0.9 s added, well above its query-to-query noise of about a
#: quarter of a 1.6 s query), tpcr-lowcard 25 rows in one call.
ABSORB_DELAY_PER_ROW_S = 30e-6


def _busy_wait(seconds: float) -> None:
    """Spend ``seconds`` on the CPU, as a slower absorb would."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _arms(monkeypatch, name: str, cycles: int) -> dict:
    """Cycles of one set-up, alternating (injected, traced) in all four ways.

    Alternating inside one process keeps the arms under the same machine
    load, so the comparison does not depend on when each ran.
    """
    original = operator.SyncSession.absorb

    def slow_absorb(self, h, source=""):
        _busy_wait(len(h) * ABSORB_DELAY_PER_ROW_S)
        return original(self, h, source)

    arms = {(injected, traced): [] for injected in (False, True) for traced in (False, True)}
    ledgers = {injected: Ledger() for injected in (False, True)}
    targets = ledger_targets()
    workload = workloads.WORKLOADS[name]()
    try:
        workload.setup(3, run.WORK_DIR)
        workload.prepare_checks()
        for _round in range(cycles):
            for injected, traced in arms:
                failures = []
                with monkeypatch.context() as patch:
                    if injected:
                        patch.setattr(operator.SyncSession, "absorb", slow_absorb)
                    _cycle_s, ops = run._measured_cycle(
                        workload, failures, ledgers[injected] if traced else None, targets
                    )
                assert failures == []
                arms[injected, traced].extend(ops)
    finally:
        workload.close()
    setup = dict.fromkeys(
        ("data.generate_s", "warehouse.load_s", "deployment.boot_s",
         "bench.warmup_s", "bench.setup_s"), 0.0
    )
    return {
        injected: {
            "query_mean_ms": 1000.0 * statistics.fmean(
                op.latency_s for op in arms[injected, False]
            ),
            **{
                key: metric["value"]
                for key, metric in run._layer_metrics(
                    workload, ledgers[injected], arms[injected, True],
                    arms[injected, True], setup,
                ).items()
            },
        }
        for injected in (False, True)
    }


def test_absorb_slowdown_shows_in_its_layer_and_workload_only(monkeypatch):
    high = _arms(monkeypatch, "tpcr-highcard", cycles=5)
    assert high[True]["coordinator.absorb.calls"] == 9
    added_ms = high[True]["coordinator.absorb_rows"] * ABSORB_DELAY_PER_ROW_S * 1000.0
    absorb_gain = high[True]["coordinator.absorb_ms"] - high[False]["coordinator.absorb_ms"]
    assert absorb_gain == pytest.approx(added_ms, rel=0.25)
    assert high[True]["query_mean_ms"] - high[False]["query_mean_ms"] >= 0.5 * added_ms

    low = _arms(monkeypatch, "tpcr-lowcard", cycles=10)
    assert low[True]["coordinator.absorb.calls"] == 1
    ratio = low[True]["query_mean_ms"] / low[False]["query_mean_ms"]
    assert ratio - 1.0 <= _bound("query_mean_ms")


# -- socket hygiene ---------------------------------------------------------------


def test_socket_deployment_is_torn_down_after_a_failed_check():
    workload = workloads.WORKLOADS["sockets-unopt"]()
    try:
        workload.setup(3, run.WORK_DIR)
        servers = list(workload.site_servers)
        workload.prepare_checks()
        workload.reference = Relation(workload.reference.schema, [])
        failures = workload.check(workload.cycle())
        assert failures == ["answer differs from centralized evaluation"]
    finally:
        leaks = workload.close()
    assert leaks == [] and servers
    for pid, port in servers:
        assert workloads._reap_leak(pid, port) == []


def test_socket_run_reports_the_resolved_config_and_leaves_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "row")
    monkeypatch.setenv("REPRO_EXECUTOR", "threads")
    assert run._strip_environment() == ["REPRO_EXECUTOR", "REPRO_ENGINE"]
    ops, failures, leaks, _metrics, details = run.run_untraced(
        workloads, "sockets-unopt", 4, 1.0
    )
    assert failures == [] and leaks == [] and ops
    assert details["resolved_config"]["executor"] == "sockets"
    assert details["resolved_config"]["engine"] == "columnar"
    assert details["resolved_config"]["wire_codec"] == "column"
