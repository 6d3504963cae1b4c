"""The benchmark's named workloads.

Each workload is a :class:`~repro.scenarios.spec.ScenarioSpec` generated
from the ``--seed`` argument plus a size (``bench`` for measurement,
``tiny`` for the benchmark's own tests, which run the identical code
path in a second or two). The program under test receives only the
generated spec; the seed is threaded into the spec and into the
workload runners' derived seeds.

Mixes follow YCSB (Cooper et al., SoCC'10), as the paper's do. All
workloads use the ``core`` (DATAFLASKS) backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.faults.spec import FaultSpec
from repro.scenarios.spec import LatencySpec, ScenarioSpec, WorkloadSpec

__all__ = ["Workload", "WORKLOADS", "SCALES", "build"]

SCALES = ("bench", "tiny")

# Open-loop in-flight window: wide enough that no arrival is ever shed
# on these workloads (a shed op would count as failed).
MAX_IN_FLIGHT = 256


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and how to build its spec."""

    name: str
    why: str  # one line, at most 200 characters: shape and reason
    make: Callable[[int, bool], ScenarioSpec]
    # How many sub-seeds one run measures (see run.py).
    subseeds: int = 4
    # False for a workload with no client ops at all (overlay only).
    clients: bool = True


def _write_storm(seed: int, tiny: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="write-storm-300",
        stack="core",
        nodes=40 if tiny else 300,
        num_slices=4 if tiny else 30,
        seed=seed,
        warmup=10.0,
        settle=5.0 if tiny else 15.0,
        latency=LatencySpec(kind="fixed", latency=0.01),
        config={"view_size": 12 if tiny else 25},
        workload=WorkloadSpec(preset="write-only", record_count=6 if tiny else 15),
    )


def _read_mix(seed: int, tiny: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="read-mix-100",
        stack="core",
        nodes=30 if tiny else 100,
        num_slices=3 if tiny else 5,
        seed=seed,
        warmup=10.0,
        settle=5.0,
        latency=LatencySpec(kind="lognormal", median=0.02),
        workload=WorkloadSpec(
            preset="ycsb-b",
            request_distribution="zipfian",
            record_count=20 if tiny else 100,
            operation_count=60 if tiny else 1000,
            mode="open",
            clients=3,
            rate=60.0,
            arrival="poisson",
            max_in_flight=MAX_IN_FLIGHT,
        ),
    )


def _overlay(seed: int, tiny: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="overlay-1k",
        stack="core",
        nodes=40 if tiny else 1000,
        num_slices=4 if tiny else 10,
        seed=seed,
        warmup=5.0,
        settle=5.0 if tiny else 10.0,
        latency=LatencySpec(kind="fixed", latency=0.01),
    )


def _crash_wave(seed: int, tiny: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="crash-wave-100",
        stack="core",
        nodes=30 if tiny else 100,
        num_slices=3 if tiny else 5,
        seed=seed,
        warmup=10.0,
        settle=5.0,
        cooldown=5.0,
        latency=LatencySpec(kind="fixed", latency=0.01),
        faults=[
            FaultSpec(kind="crash_recover", fraction=0.3, start=2.0, duration=15.0),
            FaultSpec(
                kind="degrade",
                fraction=0.25,
                loss=0.1,
                extra_latency=0.05,
                start=5.0,
                duration=25.0,
            ),
        ],
        workload=WorkloadSpec(
            preset="ycsb-a",
            record_count=20 if tiny else 100,
            operation_count=120 if tiny else 1200,
            mode="open",
            clients=3,
            rate=40.0,
            arrival="poisson",
            max_in_flight=MAX_IN_FLIGHT,
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="write-storm-300",
            why="300 servers, 30 slices, 15 inserts then 15 sim-s settle: put "
            "flooding and the anti-entropy re-homes it triggers do most of the "
            "work; no reads, no faults",
            make=_write_storm,
            subseeds=6,
        ),
        Workload(
            name="read-mix-100",
            why="100 servers, 5 slices, YCSB-B zipfian open loop at 60 ops/s: the "
            "read path dominates, and reads beside writes show a put speed-up "
            "paid for by reads",
            make=_read_mix,
        ),
        Workload(
            name="overlay-1k",
            why="1,000 servers, 10 slices, no client ops: Cyclon, DSlead and slice "
            "views do nearly all the work, so a request-path change must leave "
            "it unchanged",
            make=_overlay,
            subseeds=5,
            clients=False,
        ),
        Workload(
            name="crash-wave-100",
            why="100 servers, YCSB-A at 40 ops/s while 30% crash and recover and "
            "25% degrade: the only workload on the fault path, client retries "
            "and anti-entropy repair",
            make=_crash_wave,
            subseeds=5,
        ),
    )
}


def build(name: str, seed: int, scale: str = "bench") -> ScenarioSpec:
    """The spec of workload ``name`` for ``seed`` at ``scale``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return WORKLOADS[name].make(seed, scale == "tiny")
