"""The storage-stack base class: one deployment per stack.

A :class:`StoreBackend` is a deployment of one storage stack inside a
:class:`~repro.sim.simulator.Simulation`, and everything the experiment
pipeline — the scenario runner, the workload runner, the nemesis heal
probe and the benches — needs from it:

* **provisioning** — :meth:`StoreBackend.deploy` builds the stack inside
  an existing simulation from a
  :class:`~repro.scenarios.spec.ScenarioSpec`,
* **driving** — :meth:`new_client`, :meth:`run_op`, :meth:`put_sync`,
  :meth:`get_sync` (clients must speak the
  :class:`~repro.core.client.PendingOp` protocol),
* **convergence** — :meth:`converge` runs the stack's warm-up routine
  once at deploy time; :meth:`converged` is the cheap "does the overlay
  look whole right now?" predicate the heal probe polls after faults,
* **membership** — :meth:`churn_controller` and :meth:`directory`, so
  churn models and fault injectors work on any stack,
* **observation** — :meth:`replication_level`,
  :meth:`server_message_load`, and the :meth:`collect_metrics` hook
  where each stack contributes its own metric blocks (slice health for
  DATAFLASKS, ring health for the DHT) instead of the runner
  special-casing stacks.

The base class holds the code every stack shares; a stack class —
:class:`~repro.core.cluster.DataFlasksCluster`,
:class:`~repro.dht.cluster.DhtCluster`,
:class:`~repro.backends.oracle.OracleCluster` — adds node construction
(:meth:`_make_server`, which builds deploy-time servers and churn
joiners alike), :meth:`deploy`, :meth:`converge`, :meth:`converged` and
its own helpers. Stacks register under their ``spec.stack`` name with
:func:`~repro.backends.registry.register_backend`; see
:mod:`repro.backends.registry` for lookup and DESIGN.md ("Backend
architecture") for how to add one.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.errors import ConfigurationError, OperationTimeoutError
from repro.sim.metrics import mean
from repro.sim.node import Node, SimContext
from repro.sim.simulator import Simulation

if TYPE_CHECKING:
    from repro.core.client import PendingOp

__all__ = ["StoreBackend", "REPLICATION_SAMPLE", "round_metric"]

# How many of the loaded keys the replication metric samples; sweeping
# every key on a 5k-node run would dominate the collection cost.
REPLICATION_SAMPLE = 25


def round_metric(value: float) -> float:
    """Round for stable, readable summaries (determinism does not depend
    on this, but 17-digit floats make tables unreadable)."""
    return round(float(value), 6)


class StoreBackend(abc.ABC):
    """A storage-stack deployment behind the experiment pipeline.

    :param n: number of server nodes; must be positive.
    :param sim: the simulation to deploy into (created from ``seed`` if
        omitted).
    :cvar name: the registry key ``spec.stack`` resolves
        (set by :func:`~repro.backends.registry.register_backend`).
    :cvar description: one line for ``repro backends list``.
    """

    name: str = ""
    description: str = ""

    def __init__(self, n: int, sim: Optional[Simulation] = None, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigurationError("cluster size must be positive")
        self.sim = sim if sim is not None else Simulation(seed=seed)
        #: All server nodes ever deployed (alive and crashed); fault
        #: injectors and churn scope their victims to these.
        self.servers: List[Any] = []
        self.clients: List[Any] = []

    @property
    def cluster(self) -> "StoreBackend":
        """This deployment itself; read-only, kept only for callers that
        still reach the deployment through ``backend.cluster``."""
        return self

    # --------------------------------------------------------- provisioning

    @classmethod
    @abc.abstractmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "StoreBackend":
        """Build the stack described by ``spec`` inside ``sim``."""

    @abc.abstractmethod
    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        """Build one server node and append it to :attr:`servers`; the
        node factory for deploy-time servers and churn joiners alike."""

    # ---------------------------------------------------------- convergence

    @abc.abstractmethod
    def converge(self, spec: Any) -> bool:
        """Run the stack's warm-up/stabilisation routine; ``True`` when
        the deployment reached its ready state within the spec's
        ``warmup``/``convergence_timeout`` budget."""

    @abc.abstractmethod
    def converged(self) -> bool:
        """Cheap instantaneous predicate: does the overlay look whole
        right now? Polled by the nemesis heal probe after every heal."""

    # ----------------------------------------------------------- membership

    def alive_servers(self) -> List[Any]:
        return [s for s in self.servers if s.alive]

    def directory(self) -> List[int]:
        """Alive server ids — what a load-balancer/tracker would expose."""
        return [s.id for s in self.servers if s.alive]

    def churn_controller(self, **kwargs: Any):
        """A :class:`~repro.churn.controller.ChurnController` scoped to
        this stack's servers: co-simulated clients model the measurement
        harness, never churn victims."""
        from repro.churn.controller import ChurnController

        return ChurnController(self.sim, self._make_server, eligible=self.alive_servers, **kwargs)

    # -------------------------------------------------------------- clients

    @abc.abstractmethod
    def new_client(self, **kwargs: Any):
        """Create and start a client node speaking ``PendingOp``."""

    def _add_client(self, factory: Callable[[int, SimContext], Node]):
        client = self.sim.add_node(factory)
        client.start()
        self.clients.append(client)
        return client

    def run_op(self, op: PendingOp, timeout: float = 30.0) -> PendingOp:
        """Advance virtual time until ``op`` completes."""
        self.sim.run_until_condition(lambda: op.done, timeout, check_interval=0.1)
        if not op.done:
            raise OperationTimeoutError(op.kind, op.key, timeout)
        return op

    def put_sync(
        self,
        client,
        key: str,
        value: Any,
        version: int,
        acks_required: int = 1,
        timeout: float = 30.0,
    ) -> PendingOp:
        return self.run_op(client.put(key, value, version, acks_required), timeout)

    def get_sync(
        self, client, key: str, version: Optional[int] = None, timeout: float = 30.0
    ) -> PendingOp:
        return self.run_op(client.get(key, version), timeout)

    # ---------------------------------------------------------- observation

    def replication_level(self, key: str, version: Optional[int] = None) -> int:
        """How many alive servers hold the object right now."""
        return sum(1 for s in self.servers if s.alive and s.holds(key, version))

    def server_message_load(self) -> Dict[str, float]:
        """Mean messages sent/received per *server* node — the paper's
        Figures 3/4 metric (clients excluded)."""
        return self.sim.metrics.message_load(population=[s.id for s in self.servers])

    def collect_metrics(self, groups: Set[str], workload: Any, metrics: Dict[str, float]) -> None:
        """Contribute stack-specific metric blocks to a scenario result.

        ``groups`` is the spec's requested metric-group set; ``workload``
        is the built :class:`~repro.workload.ycsb.CoreWorkload` (its
        ``key_for``/``record_count`` drive key sampling). Implementations
        add ``name -> float`` entries to ``metrics``; groups a stack has
        no equivalent for are skipped silently. The default contributes
        the cross-stack ``replication`` block.
        """
        self.collect_replication(groups, workload, metrics)

    def collect_replication(
        self, groups: Set[str], workload: Any, metrics: Dict[str, float]
    ) -> None:
        """The ``replication`` metric block, shared by every stack."""
        if "replication" not in groups:
            return
        sample = [
            workload.key_for(i)
            for i in range(min(workload.record_count, REPLICATION_SAMPLE))
        ]
        levels = [self.replication_level(key) for key in sample]
        metrics["replication_mean"] = round_metric(mean(levels))
        metrics["replication_min"] = float(min(levels)) if levels else 0.0
        metrics["replication_lost"] = float(sum(1 for l in levels if l == 0))
