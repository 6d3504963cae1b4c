"""The runtime protocol-coverage accountant: per-(node class, message
type) delivered/handled edge counts, the static-vs-runtime edge diff,
sweep merging (serial and parallel), and the trajectory-neutrality
contract — a covered scenario run is byte-identical to a plain one."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cli import main
from repro.lint import CoverageAccountant, build_protocol_graph
from repro.scenarios.registry import load_bundled
from repro.scenarios.runner import run_scenario, run_sweep
from repro.sim.node import Node
from repro.sim.simulator import Simulation

SMALL = dict(
    nodes=20,
    warmup=8.0,
    settle=6.0,
    cooldown=0.0,
    record_count=5,
    operation_count=8,
)


def small_spec(name: str = "baseline"):
    spec = load_bundled(name)
    overrides = dict(SMALL)
    if spec.stack == "core":
        overrides["num_slices"] = 3
    return spec.scaled(**overrides)


# ----------------------------------------------------------- guard fixtures


@dataclass(frozen=True)
class Ping:
    body: str


@dataclass(frozen=True)
class Stray:
    body: str


class Chatty(Node):
    """Sends one handled type and one dead-letter type."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        self.send(1, Ping("hi"))
        self.send(1, Stray("lost"))


class Sink(Node):
    def on_start(self) -> None:
        self.register_handler(Ping, self._on_ping)

    def _on_ping(self, msg, src) -> None:
        self.last = msg.body


def _sim() -> Simulation:
    sim = Simulation(seed=7)
    sender = sim.add_node(Chatty, 0)
    sink = sim.add_node(Sink, 1)
    sender.start()
    sink.start()
    return sim


def _graph():
    import os

    import repro

    return build_protocol_graph([os.path.dirname(os.path.abspath(repro.__file__))])


# ------------------------------------------------------------------- guard


class TestCoverageGuard:
    def test_inactive_by_default(self):
        assert Simulation(seed=7).network.hooks == []
        assert CoverageAccountant().delivered == {}

    def test_delivered_and_handled_are_keyed_by_class_and_type(self):
        sim = _sim()
        coverage = CoverageAccountant()
        coverage.attach(sim.network)
        sim.run_for(1.0)
        assert coverage.delivered == {("Sink", "Ping"): 1, ("Sink", "Stray"): 1}
        assert coverage.handled == {("Sink", "Ping"): 1}

    def test_dead_destination_is_not_counted(self):
        sim = Simulation(seed=7)
        sender = sim.add_node(Chatty, 0)
        sink = sim.add_node(Sink, 1)
        sender.start()
        sink.start()
        sink.stop()
        coverage = CoverageAccountant()
        coverage.attach(sim.network)
        sim.run_for(1.0)
        # Unregistered destination: the network drops the message before
        # any node class can be attributed.
        assert coverage.delivered == {} and coverage.handled == {}

    def test_detach_keeps_counters_and_drops_the_network(self):
        sim = _sim()
        coverage = CoverageAccountant()
        coverage.attach(sim.network)
        sim.run_for(1.0)
        coverage.detach()
        assert sim.network.hooks == []
        assert coverage.network is None
        assert coverage.handled == {("Sink", "Ping"): 1}


# ------------------------------------------------- static-vs-runtime diff


class TestEdgeDiff:
    def test_scenario_exercises_core_edges(self):
        result = run_scenario(small_spec(), seed=11, protocol_coverage=True)
        missing = result.coverage.unexercised_edges(_graph())
        missing_keys = {(endpoint, message) for endpoint, message, _ in missing}
        # The baseline core stack drives the put/get protocol…
        assert ("RequestHandler", "PutRequest") not in missing_keys
        assert ("RequestHandler", "GetRequest") not in missing_keys
        # …and never touches the oracle stack's wiring.
        assert ("OracleNode", "OraclePut") in missing_keys

    def test_all_edges_missing_without_a_covered_run(self):
        graph = _graph()
        missing = CoverageAccountant().unexercised_edges(graph)
        assert len(missing) == len(graph.handle_edges())


# ------------------------------------------------------------------- sweeps


class TestSweepCoverage:
    def test_serial_sweep_sums_its_single_runs(self):
        spec = small_spec()
        sweep = run_sweep(spec, seeds=[0, 1, 2], protocol_coverage=True)
        singles = [
            run_scenario(spec, seed=s, protocol_coverage=True).coverage
            for s in (0, 1, 2)
        ]
        assert sum(sweep.coverage.handled.values()) == sum(
            sum(c.handled.values()) for c in singles
        )
        assert [r.coverage.handled for r in sweep.results] == [
            c.handled for c in singles
        ]

    def test_parallel_report_equals_serial_report(self, capsys):
        args = [
            "scenarios", "sweep", "baseline", "--seeds", "0", "1",
            "--nodes", "20", "--records", "5", "--ops", "8",
            "--protocol-coverage", "--summary",
        ]
        reports = []
        for jobs in ("1", "2"):
            assert main(args + ["--jobs", jobs]) == 0
            reports.append(capsys.readouterr().err)
        assert reports[0].startswith("protocol coverage: ")
        assert reports[0] == reports[1]


# ---------------------------------------------------- trajectory neutrality


class TestTrajectoryNeutrality:
    def test_covered_run_is_byte_identical(self):
        spec = small_spec()
        plain = run_scenario(spec, seed=11)
        covered = run_scenario(spec, seed=11, protocol_coverage=True)
        assert covered.summary_json() == plain.summary_json()
        assert covered.coverage.handled
        assert plain.coverage is None

    def test_covered_fault_spec_is_byte_identical(self):
        spec = small_spec("asymmetric-partition")
        plain = run_scenario(spec, seed=3)
        covered = run_scenario(spec, seed=3, protocol_coverage=True)
        assert covered.summary_json() == plain.summary_json()

    def test_covered_sweep_is_byte_identical(self):
        spec = small_spec()
        plain = run_sweep(spec, seeds=[0, 1])
        covered = run_sweep(spec, seeds=[0, 1], protocol_coverage=True)
        assert covered.summary_json() == plain.summary_json()

    def test_stacks_with_sanitizer_and_isolation_checker(self):
        # scenarios run --sanitize --isolation-check --protocol-coverage:
        # the determinism guard plus both hooks on one network.
        spec = small_spec("dht-crash-recover")
        result = run_scenario(
            spec,
            seed=5,
            sanitize=True,
            isolation_check=True,
            protocol_coverage=True,
        )
        assert result.metrics["events_processed"] > 0
        assert result.coverage.handled
