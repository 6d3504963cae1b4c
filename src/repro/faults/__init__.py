"""Fault injection ("nemesis") subsystem.

Composable, clock-scheduled fault injectors with deterministic victim
selection, plus the engine that drives them and the declarative spec
entries scenarios use:

* :mod:`repro.faults.injectors` — partitions (partial/asymmetric, with
  scheduled healing), per-link degradation (slow nodes, lossy links),
  burst-loss windows and crash-recover churn
* :mod:`repro.faults.nemesis` — :class:`Nemesis`, which schedules
  inject/heal actions on the simulation clock and keeps the accounting
  the consistency/availability metrics read
* :mod:`repro.faults.spec` — :class:`FaultSpec`, the ``[[faults]]``
  schedule entry of a :class:`~repro.scenarios.spec.ScenarioSpec`

Quickstart::

    from repro import DataFlasksCluster
    from repro.faults import Nemesis, PartitionFault

    cluster = DataFlasksCluster(n=40, seed=7)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=90)
    nemesis = Nemesis(cluster.sim, cluster=cluster,
                      controller=cluster.churn_controller())
    nemesis.schedule([PartitionFault(start=1.0, duration=10.0,
                                     fraction=0.3, symmetric=False)])
    cluster.sim.run_for(15)   # fault injects at +1s, heals at +11s
"""

from repro.faults.injectors import (
    BurstLossFault,
    CrashRecoverFault,
    DegradeFault,
    FaultContext,
    FaultInjector,
    PartitionFault,
)
from repro.faults.nemesis import Nemesis
from repro.faults.spec import FAULT_KINDS, FaultSpec

__all__ = [
    "BurstLossFault",
    "CrashRecoverFault",
    "DegradeFault",
    "FAULT_KINDS",
    "FaultContext",
    "FaultInjector",
    "FaultSpec",
    "Nemesis",
    "PartitionFault",
]
