"""Simulated message-passing network.

Delivers messages between registered nodes with configurable latency,
random loss and network partitions. Every send/delivery is accounted in
the :class:`~repro.sim.metrics.MetricsRegistry`, both globally
(``msg.sent`` / ``msg.received``) and per message type
(``msg.sent.<Type>``), because per-node message load is the metric the
paper's evaluation reports. Drops are likewise accounted per cause and
per message type (``msg.dropped.partition.<Type>`` /
``msg.dropped.loss.<Type>``).

Semantics (matching the fault model of epidemic protocols):

* messages to dead or unknown nodes are silently dropped (gossip protocols
  must tolerate this; there is no connection abstraction),
* loss is Bernoulli per message; the effective per-message loss combines
  the global ``loss_rate`` with every open burst-loss window and every
  condition layer touching the link as independent drop chances
  (``1 - prod(1 - p_i)``),
* partitions are directed :meth:`block` rules: messages from a source
  set to a destination set are dropped, so one rule is an *asymmetric*
  partition (A cannot reach B while B still reaches A) and a pair of
  rules a symmetric one,
* latency is drawn per message from a pluggable :class:`LatencyModel`,
  plus the extra latency of every condition layer touching the link
  ("slow node" conditions).

Every fault mechanism is token-based — :meth:`block` / :meth:`unblock`,
:meth:`add_conditions` / :meth:`remove_conditions`,
:meth:`add_burst_loss` / :meth:`remove_burst_loss` — so overlapping
faults compose and each heal reverts only its own fault.

Determinism: loss is sampled from the network's dedicated RNG stream
(``rng_registry.stream("network")`` — seeded from the scenario's master
seed), **never** from the global :mod:`random` module state, so fault
schedules replay byte-identically for a given spec + seed. The rule and
layer tables are plain dicts keyed by token, mutated only through the
methods below; iteration order never influences behaviour.

Hot path: :meth:`Network.send` runs once per simulated message, so it
avoids all per-call allocation — counter keys per message type are
interned once into ``_type_cache`` (no f-string per send) and the
always-hit counters update cached inner dicts directly. When no fault
machinery is active (``_fault_free``, maintained by every block /
condition / burst mutator) the partition and condition lookups are
skipped entirely. The fast path consumes the RNG stream identically to
the slow path — loss is sampled iff the effective loss is positive, and
a run with only zero-impact fault layers makes exactly the same
drop/latency decisions as one with none (see DESIGN.md, "Performance").
Observer hooks and the causal context cost one check each while unused.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "Network",
]

class LatencyModel:
    """Strategy object producing one-way message latencies (seconds)."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Latency for one message from ``src`` to ``dst``."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant latency for every message."""

    def __init__(self, latency: float = 0.01) -> None:
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self.latency = latency

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.005, high: float = 0.05) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError("require 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency, the classic WAN approximation.

    ``median`` is the median latency; ``sigma`` controls tail weight.
    """

    def __init__(self, median: float = 0.02, sigma: float = 0.5, cap: float = 2.0) -> None:
        if median <= 0 or sigma < 0 or cap <= 0:
            raise ConfigurationError("median/cap must be positive and sigma non-negative")
        import math

        self._mu = math.log(median)
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return min(rng.lognormvariate(self._mu, self.sigma), self.cap)


class Network:
    """Message router between simulated nodes.

    Nodes register a delivery callback; :meth:`send` schedules delivery
    through the shared :class:`~repro.sim.scheduler.Scheduler`.

    :attr:`hooks` is the one way tools observe the message path. A hook
    has ``on_send(src, dst, msg, cause)``, with ``cause`` ``None`` on
    the wire and ``"partition"`` / ``"loss"`` on a drop, and
    ``on_deliver(src, dst, msg, context, sent_at)``, called before the
    destination's callback runs and also when the destination is dead.
    A send made while the causal :attr:`context` is set carries it and
    the send time to that call; otherwise both are ``None``. Hooks only
    observe, so a hooked run keeps the plain trajectory.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        metrics: MetricsRegistry,
        latency_model: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        self.scheduler = scheduler
        self.rng = rng
        self.metrics = metrics
        self.latency_model = latency_model or FixedLatency()
        self.loss_rate = loss_rate
        self._delivery: Dict[int, Callable[[Any, int], None]] = {}
        # Directed blackhole rules: rule id -> (src set, dst set).
        self._blocks: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        self._next_block_id = 0
        # Token-based layers, so overlapping faults compose instead of
        # clobbering each other: token -> (node set, loss, extra latency)
        # and token -> burst rate.
        self._condition_layers: Dict[int, Tuple[FrozenSet[int], float, float]] = {}
        self._burst_layers: Dict[int, float] = {}
        self._next_token = 0
        # True while no block/condition/burst machinery is active; every mutator below recomputes it via _refresh_fast_path.
        self._fault_free = True
        # Interned per-message-type counter state:
        # type -> (sent slots, received slots, partition-drop key,
        # loss-drop key). Built once per type, reused for every send.
        self._type_cache: Dict[type, Tuple[Dict, Dict, str, str]] = {}
        self._sent_slots = metrics.counter("msg.sent")
        self._recv_slots = metrics.counter("msg.received")
        # Observers (see the class docstring) and the causal context
        # (an op-trace id), which _deliver re-activates around the
        # receiving handler so cascaded sends inherit it.
        self.hooks: List[Any] = []
        self.context: Any = None

    def _intern_type(self, msg_type: type) -> Tuple[Dict, Dict, str, str]:
        kind = msg_type.__name__
        entry = (
            self.metrics.counter(f"msg.sent.{kind}"),
            self.metrics.counter(f"msg.received.{kind}"),
            f"msg.dropped.partition.{kind}",
            f"msg.dropped.loss.{kind}",
        )
        self._type_cache[msg_type] = entry
        return entry

    def _refresh_fast_path(self) -> None:
        self._fault_free = not (self._blocks or self._condition_layers or self._burst_layers)

    # ---------------------------------------------------------- membership

    def register(self, node_id: int, deliver: Callable[[Any, int], None]) -> None:
        """Attach a node's delivery callback. Re-registering replaces it."""
        self._delivery[node_id] = deliver

    def unregister(self, node_id: int) -> None:
        """Detach a node; in-flight messages to it will be dropped."""
        self._delivery.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._delivery

    @property
    def registered_ids(self) -> List[int]:
        return list(self._delivery)

    # ---------------------------------------------------------- partitions

    def block(self, src_ids: Iterable[int], dst_ids: Iterable[int]) -> int:
        """Add a directed blackhole: messages from ``src_ids`` to
        ``dst_ids`` are dropped (counted as partition drops).

        Returns a rule id for :meth:`unblock`. Rules compose — an
        asymmetric partition is one rule, a symmetric one is two.
        """
        rule_id = self._next_block_id
        self._next_block_id += 1
        self._blocks[rule_id] = (frozenset(src_ids), frozenset(dst_ids))
        self._refresh_fast_path()
        return rule_id

    def unblock(self, rule_id: int) -> None:
        """Remove one directed blackhole rule (idempotent)."""
        self._blocks.pop(rule_id, None)
        self._refresh_fast_path()

    def _crosses_partition(self, src: int, dst: int) -> bool:
        for src_ids, dst_ids in self._blocks.values():
            if src in src_ids and dst in dst_ids:
                return True
        return False

    # ----------------------------------------------------------- conditions

    def add_conditions(
        self, node_ids: Iterable[int], loss: float = 0.0, extra_latency: float = 0.0
    ) -> int:
        """Add one degradation *layer* over a node set: every link
        touching a member gets the extra drop chance / latency.

        Layers stack as independent conditions and are removed by the
        returned token, so overlapping faults whose victim sets intersect
        compose instead of clobbering each other. ``loss`` may be 1.0 (a
        blackholed node), unlike the global ``loss_rate``.
        """
        if not 0.0 <= loss <= 1.0:
            raise ConfigurationError("condition loss must be in [0, 1]")
        if extra_latency < 0:
            raise ConfigurationError("extra latency must be non-negative")
        token = self._next_token
        self._next_token += 1
        self._condition_layers[token] = (frozenset(node_ids), loss, extra_latency)
        self._refresh_fast_path()
        return token

    def remove_conditions(self, token: int) -> None:
        """Remove one degradation layer (idempotent)."""
        self._condition_layers.pop(token, None)
        self._refresh_fast_path()

    def add_burst_loss(self, rate: float) -> int:
        """Open a burst-loss window: a global extra drop chance combined
        independently with ``loss_rate`` and every other condition.
        Returns a token for :meth:`remove_burst_loss`; concurrent windows
        stack."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("burst loss rate must be in [0, 1]")
        token = self._next_token
        self._next_token += 1
        self._burst_layers[token] = rate
        self._refresh_fast_path()
        return token

    def remove_burst_loss(self, token: int) -> None:
        """Close one burst-loss window (idempotent)."""
        self._burst_layers.pop(token, None)
        self._refresh_fast_path()

    def _loss_for(self, src: int, dst: int) -> float:
        """Effective drop probability for one message on ``src -> dst``:
        every active condition is an independent Bernoulli drop.

        Composed in place (``keep *= 1 - p_i``) — no intermediate list,
        this runs per message whenever any fault machinery is active.
        When every active condition is zero-impact, ``keep`` stays exactly
        1.0 and the base ``loss_rate`` is returned bit-for-bit, so the
        slow path's drop threshold equals the fast path's (the
        fast/slow-equivalence contract)."""
        keep = 1.0
        if self._burst_layers:
            for rate in self._burst_layers.values():
                keep *= 1.0 - rate
        if self._condition_layers:
            for members, layer_loss, _ in self._condition_layers.values():
                if src in members or dst in members:
                    keep *= 1.0 - layer_loss
        if keep == 1.0:
            return self.loss_rate
        return 1.0 - (1.0 - self.loss_rate) * keep

    def _extra_latency_for(self, src: int, dst: int) -> float:
        extra = 0.0
        if self._condition_layers:
            for members, _, layer_latency in self._condition_layers.values():
                if src in members or dst in members:
                    extra += layer_latency
        return extra

    # -------------------------------------------------------------- sending

    def send(self, src: int, dst: int, msg: Any) -> bool:
        """Send ``msg`` from ``src`` to ``dst``.

        Returns ``True`` if the message was put on the wire (it may still be
        lost or find the destination dead on arrival); ``False`` if it was
        dropped immediately (self-send of network messages is allowed and
        delivered with normal latency).

        Ownership contract: once ``send`` accepts a message, the payload
        belongs to the network until delivery — the sender must not
        mutate it (messages are frozen dataclasses by convention, and
        payload fields should be snapshotted tuples). The ``repro lint``
        I-rules check this statically and
        :class:`~repro.lint.isolation.IsolationChecker`
        (``scenarios run --isolation-check``) enforces it at run time as
        a hook that digests the payload here and re-verifies it at
        delivery.
        """
        entry = self._type_cache.get(type(msg))
        if entry is None:
            entry = self._intern_type(type(msg))
        sent = self._sent_slots
        sent[src] = sent.get(src, 0.0) + 1.0
        sent_kind = entry[0]
        sent_kind[None] = sent_kind.get(None, 0.0) + 1.0
        if self._fault_free:
            loss = self.loss_rate
        else:
            if self._crosses_partition(src, dst):
                self.metrics.inc("msg.dropped.partition")
                self.metrics.inc(entry[2])
                for hook in self.hooks:
                    hook.on_send(src, dst, msg, "partition")
                return False
            loss = self._loss_for(src, dst)
        if loss > 0.0 and self.rng.random() < loss:
            self.metrics.inc("msg.dropped.loss")
            self.metrics.inc(entry[3])
            for hook in self.hooks:
                hook.on_send(src, dst, msg, "loss")
            return False
        latency = self.latency_model.sample(self.rng, src, dst)
        if not self._fault_free:
            latency += self._extra_latency_for(src, dst)
        context = self.context
        if context is None:
            self.scheduler.schedule(latency, self._deliver, src, dst, msg, entry[1])
        else:
            self.scheduler.schedule(
                latency, self._deliver, src, dst, msg, entry[1],
                context, self.scheduler.now,
            )
        if self.hooks:
            for hook in self.hooks:
                hook.on_send(src, dst, msg, None)
        return True

    def _deliver(
        self, src: int, dst: int, msg: Any, received_kind: Dict,
        context: Any = None, sent_at: Optional[float] = None,
    ) -> None:
        # ``received_kind`` is the per-type received-counter slots dict from
        # the sender's interned entry — passed through the event so delivery
        # pays no type lookup.
        if self.hooks:
            for hook in self.hooks:
                hook.on_deliver(src, dst, msg, context, sent_at)
        deliver = self._delivery.get(dst)
        if deliver is None:
            # Destination died (or never existed) while the message was in
            # flight — epidemic protocols tolerate this silently.
            self.metrics.inc("msg.dropped.dead")
            return
        received = self._recv_slots
        received[dst] = received.get(dst, 0.0) + 1.0
        received_kind[None] = received_kind.get(None, 0.0) + 1.0
        if context is None:
            deliver(msg, src)
            return
        previous = self.context
        self.context = context
        try:
            deliver(msg, src)
        finally:
            self.context = previous
