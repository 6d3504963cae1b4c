"""The runtime isolation checker: structural payload digests, the
copy-on-send hook (mutation-in-flight detection with full sender /
receiver / type / sim-time context), fan-out refcounting, scoping to
one simulation's network, and the trajectory-neutrality contract — a
checked scenario run is byte-identical to a plain one."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import IsolationError
from repro.lint import CoverageAccountant, IsolationChecker, payload_digest
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


# ------------------------------------------------------------------ digest


@dataclass
class Record:
    key: str
    versions: list


class TestPayloadDigest:
    def test_equal_structure_equal_digest(self):
        assert payload_digest([1, "a", (2.5, None)]) == payload_digest(
            [1, "a", (2.5, None)]
        )

    def test_mutation_changes_digest(self):
        payload = [1, 2]
        before = payload_digest(payload)
        payload.append(3)
        assert payload_digest(payload) != before

    def test_dict_insertion_order_is_irrelevant(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_set_digest_ignores_iteration_order(self):
        # Mixed-type sets have no stable sort; digests sort by sub-digest.
        assert payload_digest({1, "one", (2,)}) == payload_digest(
            {(2,), 1, "one"}
        )

    def test_container_kinds_are_distinguished(self):
        assert payload_digest([1, 2]) != payload_digest((1, 2))
        assert payload_digest("12") != payload_digest(b"12")

    def test_dataclass_fields_feed_in_declaration_order(self):
        a = Record("k", [1])
        b = Record("k", [1])
        assert payload_digest(a) == payload_digest(b)
        b.versions.append(2)
        assert payload_digest(a) != payload_digest(b)

    def test_cycles_terminate(self):
        payload = [1]
        payload.append(payload)
        assert isinstance(payload_digest(payload), str)

    def test_nested_structures(self):
        deep = {"rows": [{"k": {1, 2}}, (Record("x", []),)]}
        same = {"rows": [{"k": {2, 1}}, (Record("x", []),)]}
        assert payload_digest(deep) == payload_digest(same)


# ---------------------------------------------------------- guard fixtures


@dataclass
class Evil:
    payload: list


class Mutator(Node):
    """Sends a message, keeps the reference, mutates it in flight."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        self.send(1, m)
        # Delivery latency is 0.01s; this lands while the copy is on
        # the wire — exactly the bug the guard exists to catch.
        self.after(0.005, m.payload.append, 99)


class Polite(Node):
    """Sends and lets go — the ownership contract, followed."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        self.send(1, m)


class FanOut(Node):
    """One immutable message object, many receivers (replication style)."""

    def on_start(self) -> None:
        self.after(0.1, self._fire)

    def _fire(self) -> None:
        m = Evil([1, 2])
        for dst in (1, 2, 3):
            self.send(dst, m)


class Sink(Node):
    pass


def _sim(sender, sinks: int) -> Simulation:
    sim = Simulation(seed=7)
    nodes = [sim.add_node(sender, 0)]
    for node_id in range(1, sinks + 1):
        nodes.append(sim.add_node(Sink, node_id))
    for node in nodes:
        node.start()
    return sim


def _checked(sim: Simulation) -> Simulation:
    IsolationChecker().attach(sim.network)
    return sim


# ------------------------------------------------------------------- guard


class TestIsolationGuard:
    def test_inactive_by_default(self):
        assert Simulation(seed=7).network.hooks == []

    def test_mutation_in_flight_raises_with_context(self):
        sim = _checked(_sim(Mutator, 1))
        with pytest.raises(IsolationError) as excinfo:
            sim.run_for(1.0)
        err = excinfo.value
        assert err.src == 0
        assert err.dst == 1
        assert err.kind == "Evil"
        assert err.sent_at == pytest.approx(0.1)
        assert err.now > err.sent_at
        message = str(err)
        assert "Evil" in message
        assert "node 0" in message and "node 1" in message
        assert "t=0.1" in message

    def test_unguarded_mutation_passes_silently(self):
        # The checker is opt-in: without it the buggy run completes (and
        # the receiver sees the mutated payload — the bug it would hide).
        sim = _sim(Mutator, 1)
        sim.run_for(1.0)

    def test_clean_sender_passes(self):
        sim = _checked(_sim(Polite, 1))
        sim.run_for(1.0)

    def test_fan_out_of_one_object_passes(self):
        # Refcounted registry: the same unmutated object may be in
        # flight to several destinations at once.
        sim = _checked(_sim(FanOut, 3))
        sim.run_for(1.0)

    def test_send_to_dead_node_still_checked_then_released(self):
        sim = Simulation(seed=7)
        sender = sim.add_node(Polite, 0)
        sink = sim.add_node(Sink, 1)
        sender.start()
        sink.start()
        sink.stop()
        checker = IsolationChecker()
        checker.attach(sim.network)
        sim.run_for(1.0)
        assert checker._inflight == {}


class TestScoping:
    def test_hooks_are_scoped_to_one_simulation(self):
        # Two simulations in one process; only `checked` carries the
        # isolation checker and a coverage accountant.
        plain = _sim(Mutator, 1)
        checked = _sim(Mutator, 1)
        coverage = CoverageAccountant()
        coverage.attach(checked.network)
        IsolationChecker().attach(checked.network)
        plain.run_for(1.0)  # the same mutation passes unchecked here…
        assert coverage.delivered == {}  # …and is not counted
        with pytest.raises(IsolationError):
            checked.run_for(1.0)
        assert plain.network.hooks == []
        assert coverage.delivered == {("Sink", "Evil"): 1}
        # A second covered simulation starts from zero and leaves the
        # first accountant alone.
        other = _sim(Polite, 1)
        second = CoverageAccountant()
        second.attach(other.network)
        other.run_for(1.0)
        assert second.delivered == {("Sink", "Evil"): 1}
        assert coverage.delivered == {("Sink", "Evil"): 1}


# ---------------------------------------------------- trajectory neutrality


class TestTrajectoryNeutrality:
    def test_checked_run_is_byte_identical(self):
        spec = small_spec()
        plain = run_scenario(spec, seed=11)
        checked = run_scenario(spec, seed=11, isolation_check=True)
        assert checked.summary_json() == plain.summary_json()

    def test_checked_fault_spec_is_byte_identical(self):
        spec = small_spec("asymmetric-partition")
        plain = run_scenario(spec, seed=3)
        checked = run_scenario(spec, seed=3, isolation_check=True)
        assert checked.summary_json() == plain.summary_json()

    def test_checked_sweep_is_byte_identical(self):
        spec = small_spec()
        plain = run_sweep(spec, seeds=[0, 1])
        checked = run_sweep(spec, seeds=[0, 1], isolation_check=True)
        assert checked.summary_json() == plain.summary_json()

    def test_stacks_with_sanitizer_and_checker(self):
        # scenarios run --sanitize --isolation-check: both guards armed.
        spec = small_spec("dht-crash-recover")
        result = run_scenario(spec, seed=5, sanitize=True, isolation_check=True)
        assert result.metrics["events_processed"] > 0
