"""Pluggable storage backends — the stack-neutral experiment surface.

* :mod:`repro.backends.base` — :class:`StoreBackend`, the deployment
  base class every stack subclasses (deploy, converge, clients, churn,
  metrics hook)
* :mod:`repro.backends.registry` — :class:`BackendRegistry`,
  :func:`register_backend`, :func:`get_backend`, :func:`list_backends`

One class per stack, registered under its ``spec.stack`` name:

* ``core`` — :class:`~repro.core.cluster.DataFlasksCluster`, DATAFLASKS
* ``dht`` — :class:`~repro.dht.cluster.DhtCluster`, the Chord baseline
* ``oracle`` — :class:`~repro.backends.oracle.OracleCluster`, an
  idealized centralized replicated store, the ground-truth consistency
  baseline

Quickstart::

    from repro.backends import get_backend
    from repro.scenarios import load_bundled
    from repro.sim import Simulation

    spec = load_bundled("baseline").scaled(nodes=40)
    backend = get_backend(spec.stack).deploy(spec, Simulation(seed=7))
    backend.converge(spec)
    client = backend.new_client()
    backend.put_sync(client, "user:1", b"alice", version=1)

Importing this package registers the three built-in stacks; third
parties register theirs with :func:`register_backend` (see DESIGN.md,
"Backend architecture").
"""

from repro.backends.base import REPLICATION_SAMPLE, StoreBackend, round_metric
from repro.backends.registry import (
    REGISTRY,
    BackendRegistry,
    get_backend,
    list_backends,
    register_backend,
)

# Importing the stack modules registers them. They are imported as
# modules: repro.core.cluster itself imports this package's base and
# registry, and a module import resolves that cycle from every entry point.
import repro.core.cluster
import repro.dht.cluster
from repro.backends.oracle import OracleClient, OracleCluster, OracleNode

__all__ = [
    "REGISTRY",
    "REPLICATION_SAMPLE",
    "BackendRegistry",
    "OracleClient",
    "OracleCluster",
    "OracleNode",
    "StoreBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "round_metric",
]
