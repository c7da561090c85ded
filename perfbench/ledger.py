"""Per-layer timing spans, installed around each layer's public entry points.

The benchmark never edits the program: for a traced run it replaces the
entry points listed in :func:`layer_targets` with thin wrappers, and
restores the originals afterwards. Each wrapper records one span:

- its *inclusive* time (the whole call), and
- its *self* time (inclusive minus the inclusive time of the spans it
  called), which is what a layer costs on its own.

Spans nest per thread. On the thread that runs the query (the benchmark's
client thread) the self times of every span under a root add up to the
root's wall time by construction, so the root's own self time is the part
of the query no layer claims ("unattributed"). Spans opened on other
threads (the socket engine's leg threads) run concurrently with the
client thread's fan-out wait; they are reported as busy time per layer
and kept out of the client-thread ledger.

``opaque`` spans swallow the spans they call: ``serialize.wire_size``
re-encodes a block only to measure what the row codec would ship, so its
nested encode is charged to it rather than to ``codec.encode``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Ledger:
    """Span bookkeeping plus the patch/unpatch of traced entry points."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        #: Self seconds of spans on the client thread only.
        self.client_self_s = defaultdict(float)
        #: Client-thread root spans: layer -> list of wall seconds.
        self.roots = defaultdict(list)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, layer: str, count=(), opaque: bool = False):
        """``func`` recording a ``layer`` span per call.

        ``count`` is a sequence of ``(counter, fn(args, result) -> int)``
        pairs added up per call.
        """
        ledger = self
        perf_counter = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = ledger._stack()
            if stack and stack[-1][2]:
                return func(*args, **kwargs)
            frame = [layer, 0.0, opaque]
            stack.append(frame)
            started = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                ledger._close(frame, elapsed, stack)
            for counter, measure in count:
                amount = measure(args, result)
                with ledger._lock:
                    ledger.counters[counter] += amount
            return result

        return traced

    def _close(self, frame, elapsed: float, stack: list) -> None:
        layer, child_s, _opaque = frame
        own = elapsed - child_s
        on_client = threading.current_thread() is threading.main_thread()
        with self._lock:
            self.self_s[layer] += own
            self.inclusive_s[layer] += elapsed
            self.calls[layer] += 1
            if on_client:
                self.client_self_s[layer] += own
                if not stack:
                    self.roots[layer].append(elapsed)
        if stack:
            stack[-1][1] += elapsed

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, count=(), opaque=False) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, layer, count, opaque))
        else:
            new = self.wrap(raw, layer, count, opaque)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self, targets) -> None:
        for owner, attr, layer, count, opaque in targets:
            self.patch(owner, attr, layer, count, opaque)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _rows(position: int):
    return lambda args, _result: len(args[position])


def layer_targets() -> list:
    """``(owner, attribute, layer, counters, opaque)`` for every traced entry.

    Imported lazily: the benchmark puts the checkout's ``src`` on the path
    before anything from the program is loaded.
    """
    from repro.distributed import evaluator, executor, incremental, site
    from repro.distributed.coordinator import Coordinator
    from repro.gmdj import operator
    from repro.net import serialize
    from repro.net.socket_channel import SocketChannel
    from repro.service import cache, service, signature
    from repro.warehouse.storage import LocalWarehouse

    return [
        (evaluator, "execute_query", "evaluator.execute", (), False),
        (service, "execute_plan", "evaluator.execute", (), False),
        (evaluator, "plan_query", "optimizer.plan", (), False),
        (service, "plan_query", "optimizer.plan", (), False),
        (site.SkallaSite, "compute_base", "site.base", (), False),
        (site.SkallaSite, "evaluate_round", "site.evaluate_self", (), False),
        (operator, "evaluate_sub", "gmdj.accumulate",
         (("gmdj.detail_rows", _rows(1)),), False),
        (operator, "evaluate_both", "gmdj.accumulate",
         (("gmdj.detail_rows", _rows(1)),), False),
        (operator, "merge_sub_results", "gmdj.merge_sub", (), False),
        (operator.SyncSession, "__init__", "coordinator.session_init", (), False),
        (operator.SyncSession, "absorb", "coordinator.absorb",
         (("coordinator.absorb_rows", _rows(1)),), False),
        (operator.SyncSession, "finish", "coordinator.finish", (), False),
        (Coordinator, "sync_base", "coordinator.sync_base", (), False),
        (Coordinator, "assemble_from_chain", "coordinator.assemble", (), False),
        (Coordinator, "fragment_for_site", "coordinator.fragment", (), False),
        (serialize, "encode_relation", "codec.encode",
         (("codec.encoded_bytes", lambda _args, result: len(result)),), False),
        (serialize, "decode_relation", "codec.decode", (), False),
        (serialize, "wire_size", "codec.row_equiv", (), True),
        (executor.SerialEngine, "evaluate", "executor.leg", (), False),
        (executor.SocketEngine, "evaluate", "executor.leg", (), False),
        (executor.SocketEngine, "run_legs", "executor.fanout", (), False),
        (SocketChannel, "ask", "socket.ask", (), False),
        (SocketChannel, "send_to_site", "socket.send", (), False),
        (service.QueryService, "submit", "service.submit", (), False),
        (service.QueryService, "append", "service.append", (), False),
        (service, "parse_olap_statement", "service.parse", (), False),
        (service, "canonical_order", "service.canonical_order", (), False),
        (signature.PlanSignature, "compute", "service.lookup", (), False),
        (cache.ResultCache, "get", "service.lookup", (), False),
        (cache.ResultCache, "upgrade_candidate", "service.lookup", (), False),
        (incremental.IncrementalView, "refresh", "service.refresh", (), False),
        (LocalWarehouse, "append", "warehouse.append", (), False),
    ]
