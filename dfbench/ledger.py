"""Per-layer cost ledger for the traced run.

The ledger times every layer of the program from outside, at calls into
that layer's public functions, and changes nothing the simulation does:

* **scheduler** — :attr:`Scheduler.profiler` reports every fired event
  with its wall time, and the instance's ``run`` is wrapped to time the
  event loop itself. Scheduler self time is loop time not spent inside
  an event (heap work), less the ledger's own hook.
* **network** — the instance's ``send`` is wrapped (send self time).
* **protocol layers** — each node's message handlers are re-registered,
  through ``Node.unregister_handler`` / ``register_handler``, wrapped in
  a span of the layer that owns them. Which handler serves which message
  on which class comes from the static protocol graph
  (``repro protocol graph``), so there is no hand-kept message table; a
  message two classes handle (``PutAck``: client and anti-entropy) is
  charged by the receiving node's own services.
* **timers** — a periodic tick is charged to the service whose callback
  ``Node.every`` registered, so ticks are split by service instead of
  landing in one ``PeriodicTask._fire`` bucket.
* **node** — the remainder of a delivery event outside its handler span
  is network delivery bookkeeping plus ``Node.deliver`` dispatch.
* **store**, **client**, **workload** — store methods, client
  ``put``/``get`` and the completion callbacks the workload engines hang
  on a pending op are wrapped per instance.

A layer's self time is its span time minus the spans nested in it, so
the per-layer self times of one event sum to that event's wall time.
Spans are aggregated in memory, one per (layer, kind), plus the client
ops, and written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.core.messages import PutRequest
from repro.sim.node import PeriodicTask

__all__ = [
    "LAYERS",
    "UNATTRIBUTED",
    "HandleEdge",
    "Ledger",
    "handle_edges",
    "layer_of_module",
]

LAYERS = (
    "scheduler",
    "network",
    "node",
    "pss",
    "slicing",
    "sliceview",
    "handler",
    "replication",
    "store",
    "client",
    "workload",
    "faults",
)
UNATTRIBUTED = "unattributed"
# The ledger's own per-event hook: known cost, charged to no layer.
TRACE = "trace"

# Which layer each module of the program belongs to.
MODULE_LAYERS = (
    ("repro.sim.scheduler", "scheduler"),
    ("repro.sim.network", "network"),
    ("repro.sim.node", "node"),
    ("repro.pss", "pss"),
    ("repro.slicing", "slicing"),
    ("repro.core.sliceview", "sliceview"),
    ("repro.core.handler", "handler"),
    ("repro.core.replication", "replication"),
    ("repro.core.store", "store"),
    ("repro.core.client", "client"),
    ("repro.core.loadbalancer", "client"),
    ("repro.workload", "workload"),
    ("repro.faults", "faults"),
    ("repro.churn", "faults"),
)

STORE_METHODS = ("put", "get", "digest")


def layer_of_module(module: str) -> str:
    """The layer a module belongs to, or ``unattributed``."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


@dataclass(frozen=True)
class HandleEdge:
    """One static handle edge: ``endpoint`` (a class name) handles
    ``message`` with its method ``handler``; charged to ``layer``."""

    endpoint: str
    message: type
    handler: str
    layer: str


def _module_name(path: str, package_dir: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), os.path.dirname(package_dir))
    return os.path.splitext(rel)[0].replace(os.sep, ".")


def handle_edges() -> List[HandleEdge]:
    """The handle edges of the protocol graph of the installed package."""
    import repro
    from repro.lint import LintConfig, build_protocol_graph

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    graph = build_protocol_graph([package_dir], LintConfig())
    edges = []
    for reg in graph.registrations:
        if not reg.handler:
            continue
        message = graph.messages[reg.message]
        cls = getattr(
            importlib.import_module(_module_name(message.path, package_dir)),
            reg.message,
        )
        layer = layer_of_module(_module_name(reg.path, package_dir))
        edges.append(HandleEdge(reg.endpoint, cls, reg.handler, layer))
    return edges


class Ledger:
    """Aggregated spans of one traced run; see the module docstring."""

    def __init__(self, edges: List[HandleEdge]) -> None:
        self._edges: Dict[str, List[HandleEdge]] = {}
        for edge in edges:
            self._edges.setdefault(edge.endpoint, []).append(edge)
        # (layer, kind) -> self seconds / span count.
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        # Inclusive time of the direct children of each open span; the
        # bottom slot collects the children of the current event.
        self._child: List[float] = [0.0]
        self._event_kind: Dict[Any, Tuple[str, str]] = {}
        self.loop_s = 0.0
        self.event_s = 0.0
        self.hook_s = 0.0
        # Self seconds of spans opened outside the event loop (a
        # closed-loop client call between polls), kept apart from the
        # loop's account; spans write to whichever dict is the sink.
        self.outside_self_s: Dict[Tuple[str, str], float] = {}
        self._sink = self.outside_self_s
        self.pending_peak = 0
        self.migrations = 0
        self.put_client = 0
        self.put_rehome = 0
        self.server_ids: set = set()
        self._message_kinds: set = set()
        self.ops: List[Any] = []
        self._scheduler = None
        self._network = None

    # ------------------------------------------------------------- spans

    def span(self, layer: str, kind: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``(layer, kind)``."""
        key = (layer, kind)
        self.self_s.setdefault(key, 0.0)
        self.calls.setdefault(key, 0)
        child = self._child
        calls = self.calls
        ledger = self

        def wrapped(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = child.pop()
                sink = ledger._sink
                sink[key] = sink.get(key, 0.0) + elapsed - inner
                calls[key] += 1
                child[-1] += elapsed

        return wrapped

    # ---------------------------------------------------------- attaching

    def attach(self, sim, backend) -> None:
        """Hook the scheduler, network and every server of ``backend``."""
        scheduler = sim.scheduler
        self._scheduler = scheduler
        self._network = sim.network
        scheduler.profiler = self
        loop = scheduler.run
        child = self._child

        def run(until=None, max_events=None):
            child[0] = 0.0
            self._sink = self.self_s
            t0 = perf_counter()
            try:
                loop(until=until, max_events=max_events)
            finally:
                self.loop_s += perf_counter() - t0
                self._sink = self.outside_self_s

        scheduler.run = run
        sim.network.send = self.span("network", "send", sim.network.send)
        self.server_ids.update(s.id for s in backend.servers)
        for server in backend.servers:
            self._attach_server(server)

    def _attach_server(self, node) -> None:
        store = node.store
        for method in STORE_METHODS:
            setattr(store, method, self.span("store", method, getattr(store, method)))
        self._wrap_handlers(node)
        start = node.start

        def restart() -> None:
            start()
            # Services re-register their own handlers on start.
            self._wrap_handlers(node)

        node.start = restart

        def migrated(old, new) -> None:
            self.migrations += 1

        node.slicing.on_slice_change(migrated)

    def attach_client(self, client) -> None:
        """Hook one client node: its handlers, ``put``/``get`` and the
        completion callbacks registered on the ops they return."""
        self._wrap_handlers(client)
        for name in ("put", "get"):
            issue = self.span("client", name, getattr(client, name))

            def call(*args, _issue=issue, **kwargs):
                pending = _issue(*args, **kwargs)
                self.ops.append(pending)
                on_complete = pending.on_complete
                pending.on_complete = lambda cb, _reg=on_complete: _reg(
                    self.span("workload", "on_complete", cb)
                )
                return pending

            setattr(client, name, call)

    def _wrap_handlers(self, node) -> None:
        if not node.alive:
            return
        done = set()
        for owner in [node] + node.services:
            for cls in type(owner).__mro__:
                for edge in self._edges.get(cls.__name__, ()):
                    if edge.message in done:
                        continue
                    done.add(edge.message)
                    handler = self._handler_span(edge, getattr(owner, edge.handler))
                    node.unregister_handler(edge.message)
                    node.register_handler(edge.message, handler)

    def _handler_span(self, edge: HandleEdge, fn: Callable) -> Callable:
        self._message_kinds.add(edge.message.__name__)
        span = self.span(edge.layer, edge.message.__name__, fn)
        if edge.message is not PutRequest:
            return span
        servers = self.server_ids

        def on_put(msg, src):
            # A put whose ack goes to a server is an anti-entropy re-home;
            # one whose ack goes to a client node is a client put.
            if msg.client_id in servers:
                self.put_rehome += 1
            else:
                self.put_client += 1
            return span(msg, src)

        return on_put

    # ------------------------------------------------------ scheduler hook

    def record(self, fn: Callable, args: tuple, elapsed: float) -> None:
        """:attr:`Scheduler.profiler` hook: charge one fired event."""
        t_in = perf_counter()
        child = self._child
        inner = child[0]
        child[0] = 0.0
        key = self._kind_of_event(fn)
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - inner
        self.calls[key] = self.calls.get(key, 0) + 1
        self.event_s += elapsed
        pending = self._scheduler.pending
        if pending > self.pending_peak:
            self.pending_peak = pending
        self.hook_s += perf_counter() - t_in

    def _kind_of_event(self, fn: Callable) -> Tuple[str, str]:
        owner = getattr(fn, "__self__", None)
        if owner is self._network:
            # A delivery; the handler's own span is a child of this event.
            return ("node", "dispatch")
        if isinstance(owner, PeriodicTask):
            # The callback Node.every registered for this timer.
            fn = owner._fn
            owner = getattr(fn, "__self__", None)
        elif owner is None and getattr(fn, "__closure__", None):
            # A Node.after one-shot: the guarded closure wraps the callback.
            for cell in fn.__closure__:
                target = cell.cell_contents
                if callable(target) and not isinstance(target, type):
                    fn = target
                    owner = getattr(fn, "__self__", None)
                    break
        name = getattr(fn, "__name__", "?")
        cache_key = (type(owner) if owner is not None else getattr(fn, "__code__", fn), name)
        kind = self._event_kind.get(cache_key)
        if kind is None:
            if owner is not None:
                module = type(owner).__module__
                name = f"{type(owner).__name__}.{name}"
            else:
                module = getattr(fn, "__module__", None) or ""
                name = getattr(fn, "__qualname__", name)
            kind = (layer_of_module(module), name)
            self._event_kind[cache_key] = kind
        return kind

    def freeze(self) -> None:
        """Close the account: spans still firing later (end-of-run
        checks reading the stores) count into a discarded copy."""
        self.calls = dict(self.calls)
        # The simulation is done with; do not keep it alive.
        self._scheduler = self._network = None

    # ------------------------------------------------------------ reading

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer inside the event loop, including the
        scheduler's own share, ``trace`` (the hook) and ``unattributed``."""
        totals = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED, TRACE)}
        for (layer, _kind), seconds in self.self_s.items():
            totals[layer] += seconds
        totals["scheduler"] += self.loop_s - self.event_s - self.hook_s
        totals[TRACE] += self.hook_s
        return totals

    def count(self, layer: str, *kinds: str) -> int:
        """Spans of ``layer`` with any of ``kinds`` (message types for
        deliveries, method names for calls)."""
        return sum(self.calls.get((layer, kind), 0) for kind in kinds)

    def deliveries(self, layer: str) -> int:
        """Handled deliveries charged to ``layer``."""
        return sum(
            n
            for (l, kind), n in self.calls.items()
            if l == layer and kind in self._message_kinds
        )

    def spans(self) -> List[Dict[str, Any]]:
        """The aggregated spans, one per (layer, kind), sorted."""
        return [
            {
                "layer": layer,
                "kind": kind,
                "count": self.calls.get((layer, kind), 0),
                "self_s": seconds,
            }
            for (layer, kind), seconds in sorted(self.self_s.items())
        ]

    def op_spans(self) -> List[Dict[str, Any]]:
        """One span per client op, in issue order (sim time)."""
        return [
            {
                "kind": op.kind,
                "key": op.key,
                "req_id": list(op.req_id),
                "start": op.started_at,
                "end": op.completed_at,
                "status": op.status,
                "attempts": op.attempts,
                "replies": op.replies,
            }
            for op in self.ops
        ]
