"""Deployment facade for the Chord baseline: the ``dht`` stack."""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.backends.base import StoreBackend
from repro.backends.registry import register_backend
from repro.dht.client import DhtClient
from repro.dht.node import ChordNode
from repro.sim.node import Node, SimContext
from repro.sim.simulator import Simulation

__all__ = ["DhtCluster"]


@register_backend("dht")
class DhtCluster(StoreBackend):
    """A Chord ring plus clients, with the same driving helpers as
    :class:`~repro.core.cluster.DataFlasksCluster` so benches can swap
    the two systems behind one workload loop (the paper's
    structured-overlay control group)."""

    description = "Chord-style DHT with R-successor replication (baseline)"

    def __init__(
        self,
        n: int,
        replication: int = 3,
        sim: Optional[Simulation] = None,
        seed: int = 0,
        successor_list_len: int = 8,
    ) -> None:
        super().__init__(n, sim, seed)
        self.replication = replication
        self.successor_list_len = successor_list_len
        self.sim.add_nodes(self._make_server, n)
        for node in self.servers:
            node.start()
        self._provision_ring()

    @classmethod
    def deploy(cls, spec: Any, sim: Simulation) -> "DhtCluster":
        return cls(n=spec.nodes, replication=spec.replication, sim=sim)

    def _make_server(self, node_id: int, ctx: SimContext) -> Node:
        """A ring member; a churn joiner (built while other servers are
        alive) joins through the first alive one. Deploy-time servers
        are not started yet, so they wait for :meth:`_provision_ring`."""
        node = ChordNode(
            node_id,
            ctx,
            replication=self.replication,
            successor_list_len=self.successor_list_len,
        )
        alive = self.alive_servers()
        self.servers.append(node)
        if alive:
            node.after(0.1, node.join, alive[0].id)
        return node

    def _provision_ring(self) -> None:
        """Initial ring pointers from the deployment manifest.

        A provisioned DHT starts from correct successor/predecessor
        pointers (operators boot it from a known member list); dynamic
        :meth:`ChordNode.join` is reserved for churn-time joiners. This
        also puts the baseline at its best — the paper's argument is that
        structured overlays degrade *under churn*, not at boot.
        """
        ring = sorted(self.servers, key=lambda s: s.pos)
        n = len(ring)
        for index, node in enumerate(ring):
            chain = [ring[(index + j) % n] for j in range(1, n)]
            node.successors = [
                peer.ref() for peer in chain[: node.successor_list_len]
            ] or [node.ref()]
            node.predecessor = ring[(index - 1) % n].ref()

    # -------------------------------------------------------------- helpers

    def new_client(self, timeout: float = 5.0, retries: int = 2) -> DhtClient:
        return self._add_client(
            lambda node_id, ctx: DhtClient(
                node_id, ctx, self.directory, timeout=timeout, retries=retries
            )
        )

    def stabilize(self, duration: float = 20.0) -> None:
        """Let stabilisation and finger repair settle the ring."""
        self.sim.run_for(duration)

    def converge(self, spec: Any) -> bool:
        self.stabilize(spec.warmup)
        return self.ring_is_consistent()

    def converged(self) -> bool:
        """Successor pointers form one cycle over all alive nodes."""
        return self.ring_is_consistent()

    def ring_is_consistent(self) -> bool:
        """Do successor pointers form one cycle over all alive nodes?"""
        alive = {s.id: s for s in self.servers if s.alive}
        if not alive:
            return False
        start = min(alive)
        seen = set()
        current = start
        while current not in seen:
            seen.add(current)
            node = alive.get(current)
            if node is None:
                return False
            current = node.successor[1]
        return current == start and seen == set(alive)

    def collect_metrics(self, groups: Set[str], workload: Any, metrics: Dict[str, float]) -> None:
        if "population" in groups:
            # Ring health: the structured-overlay analogue of slice health.
            metrics["ring_consistent"] = float(self.ring_is_consistent())
        self.collect_replication(groups, workload, metrics)
