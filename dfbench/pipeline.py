"""One repetition of a workload: deploy, converge, drive, check.

The program is driven only through its public functions: ``Simulation``,
the backend registry's ``deploy`` / ``converge``, the workload runners,
``Simulation.run_for`` / ``run_until``, the nemesis and churn controller
the scenario runner arms faults with, and ``MetricsRegistry`` totals.

Phases after setup mirror the scenario runner: load -> settle -> arm
faults -> transactions -> run out the fault schedule -> cooldown.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.consistency import count_write_losses
from repro.backends import get_backend
from repro.faults.nemesis import Nemesis
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import derive_seed
from repro.sim.simulator import Simulation, relaxed_gc
from repro.workload.openloop import OpenLoopRunner
from repro.workload.runner import RunStats, WorkloadRunner, server_message_total
from repro.workload.ycsb import INSERT, READ, RMW, SCAN, UPDATE

__all__ = ["Rep", "run_rep"]

READ_KINDS = (READ, SCAN)
WRITE_KINDS = (INSERT, UPDATE, RMW)


@dataclass
class Rep:
    """What one repetition measured. Wall times are seconds; everything
    else is deterministic per (workload, seed)."""

    setup_s: float = 0.0
    wall_s: float = 0.0  # every phase after setup
    client_wall_s: float = 0.0  # load + transaction phases
    sim_s: float = 0.0
    events: int = 0  # after setup
    handled: float = 0.0  # server messages sent + received, after setup
    alive_servers: int = 0
    client_deliveries: float = 0.0  # deliveries during the client phases
    attempted: int = 0
    completed: int = 0
    failed: int = 0  # failed + timed out + shed
    shed: int = 0
    reads: int = 0
    stale_reads: int = 0
    writes_completed: int = 0
    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    in_flight_peak: int = 0
    faults_injected: int = 0
    nodes_crashed: int = 0
    lost_writes: int = 0
    replicas_per_object: float = 0.0
    placement_checks: int = 0
    placement_failures: int = 0
    counters: Dict[str, float] = field(default_factory=dict)  # deltas after setup
    fingerprint: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.fingerprint, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _fingerprint(sim: Simulation) -> Dict[str, object]:
    totals = sim.metrics.totals()
    prefix = "msg.received."
    return {
        "events": sim.scheduler.events_processed,
        "sends": totals.get("msg.sent", 0.0),
        "deliveries": {
            name[len(prefix):]: value
            for name, value in sorted(totals.items())
            if name.startswith(prefix)
        },
        "rehome_floods": totals.get("df.ae.rehomed", 0.0),
    }


def _arm_faults(spec: ScenarioSpec, backend):
    """The scenario runner's fault arming: one churn controller shared
    by the nemesis, so crashes and recoveries land in its accounting."""
    if not spec.faults:
        return None, None
    controller = backend.churn_controller()
    nemesis = Nemesis(backend.sim, cluster=backend, controller=controller)
    nemesis.schedule([f.build() for f in spec.faults])
    return nemesis, controller


def run_rep(spec: ScenarioSpec, clients: bool, ledger=None) -> Rep:
    """Run ``spec`` once at ``spec.seed``. With a ``ledger``, every layer
    is traced from the end of setup to the end of the last phase."""
    with relaxed_gc():
        return _run(spec, clients, ledger)


def _run(spec: ScenarioSpec, clients: bool, ledger) -> Rep:
    rep = Rep()
    seed = spec.seed
    t0 = perf_counter()
    sim = Simulation(seed=seed, latency_model=spec.latency.build(), loss_rate=spec.loss_rate)
    backend = get_backend(spec.stack).deploy(spec, sim)
    converged = backend.converge(spec)
    rep.setup_s = perf_counter() - t0
    if not (converged and backend.converged()):
        rep.failures.append(
            "overlay not converged, or a slice is empty, when measurement starts"
        )

    if ledger is not None:
        ledger.attach(sim, backend)
    before = sim.metrics.totals()
    events0 = sim.scheduler.events_processed
    sim0 = sim.now
    handled0 = server_message_total(backend)
    t_measure = perf_counter()

    runner: Optional[WorkloadRunner] = None
    stats: List[RunStats] = []
    engine: Optional[OpenLoopRunner] = None
    if clients:
        workload = spec.workload.build()
        runner = WorkloadRunner(
            backend,
            workload,
            seed=seed,
            op_timeout=spec.workload.op_timeout,
            acks_required=spec.workload.acks_required,
        )
        if ledger is not None:
            ledger.attach_client(runner.client)
        stats.append(_client_phase(sim, rep, runner.run_load_phase))
    sim.run_for(spec.settle)
    nemesis, controller = _arm_faults(spec, backend)
    # Every workload's transaction phase is open loop.
    count = spec.workload.operation_count if clients else 0
    if count:
        engine = OpenLoopRunner(
            backend,
            workload,
            clients=spec.workload.clients,
            rate=spec.workload.rate,
            arrival=spec.workload.arrival,
            warmup=spec.workload.warmup,
            window=spec.workload.window,
            max_in_flight=spec.workload.max_in_flight,
            seed=derive_seed(seed, "workload.open"),
            op_timeout=spec.workload.op_timeout,
            acks_required=spec.workload.acks_required,
            observer=runner.observer,
        )
        if ledger is not None:
            for client in engine.clients:
                ledger.attach_client(client)
        stats.append(_client_phase(sim, rep, lambda: engine.run_transactions(count)))
    if nemesis is not None and sim.now < nemesis.end_time:
        sim.run_until(nemesis.end_time)
    sim.run_for(spec.cooldown)
    rep.wall_s = perf_counter() - t_measure
    if ledger is not None:
        ledger.freeze()

    after = sim.metrics.totals()
    rep.counters = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value != before.get(name, 0.0)
    }
    rep.events = sim.scheduler.events_processed - events0
    rep.sim_s = sim.now - sim0
    rep.handled = server_message_total(backend) - handled0
    rep.alive_servers = sum(1 for s in backend.servers if s.alive)
    for run in stats:
        rep.attempted += run.offered
        rep.completed += run.succeeded
        rep.failed += run.failed + run.not_issued
        rep.shed += run.not_issued
        rep.stale_reads += run.stale_reads
        for kind, latencies in run.latencies.items():
            if kind in READ_KINDS:
                rep.read_latencies.extend(latencies)
            elif kind in WRITE_KINDS:
                rep.write_latencies.extend(latencies)
        rep.reads += sum(n for kind, n in run.by_kind.items() if kind in READ_KINDS)
        rep.writes_completed += sum(
            len(v) for kind, v in run.latencies.items() if kind in WRITE_KINDS
        )
    if engine is not None:
        rep.in_flight_peak = engine.max_observed_in_flight
    elif stats:
        rep.in_flight_peak = 1
    if nemesis is not None:
        rep.faults_injected = nemesis.injected
        rep.nodes_crashed = controller.leaves
    rep.fingerprint = _fingerprint(sim)
    _check(backend, runner, rep)
    return rep


def _client_phase(sim: Simulation, rep: Rep, phase) -> RunStats:
    delivered = sim.metrics.total("msg.received")
    t0 = perf_counter()
    result = phase()
    rep.client_wall_s += perf_counter() - t0
    rep.client_deliveries += sim.metrics.total("msg.received") - delivered
    return result


def _check(backend, runner: Optional[WorkloadRunner], rep: Rep) -> None:
    """End-of-run outcome checks (outside every timed window)."""
    alive = backend.cluster.alive_servers()
    rep.placement_checks = len(alive)
    rep.placement_failures = sum(1 for s in alive if s.my_slice() is None)
    if runner is None:
        return
    acked = runner.observer.acked_versions
    # Every acked key, not a sample.
    losses = count_write_losses(backend, acked)
    rep.lost_writes = int(losses["lost_objects"] + losses["lost_updates"])
    if rep.lost_writes:
        rep.failures.append(
            f"{rep.lost_writes} of {len(acked)} acked writes have no live holder"
        )
    if acked:
        holders = sum(backend.replication_level(k, v) for k, v in acked.items())
        rep.replicas_per_object = holders / len(acked)
