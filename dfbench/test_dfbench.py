"""The benchmark's own tests: every workload at a tiny size, through the
same code path the measured runs take.

Run with ``PYTHONPATH=src python -m pytest dfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
from ledger import Ledger, handle_edges
from metrics import END_TO_END, PER_LAYER
from pipeline import run_rep
from workloads import WORKLOADS, build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def edges():
    return handle_edges()


def _args(name: str, trace: int, seed: int = 3):
    return bench.parse_args(
        ["--workload", name, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"]
    )


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "dfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, failures, _lines = bench.run(_args(name, trace))
    assert failures == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_fingerprint_repeats_for_a_seed_and_changes_with_it(name, edges):
    clients = WORKLOADS[name].clients
    first = run_rep(build(name, 5, "tiny"), clients)
    again = run_rep(build(name, 5, "tiny"), clients)
    traced = run_rep(build(name, 5, "tiny"), clients, Ledger(edges))
    other = run_rep(build(name, 6, "tiny"), clients)
    assert first.digest == again.digest == traced.digest
    assert other.digest != first.digest


def test_traced_run_splits_puts_and_timer_ticks(edges):
    ledger = Ledger(edges)
    rep = run_rep(build("write-storm-300", 4, "tiny"), True, ledger)
    assert ledger.put_client > 0 and ledger.put_rehome > 0
    assert ledger.put_client + ledger.put_rehome == rep.counters["msg.received.PutRequest"]
    # Timer ticks land on the service that registered them.
    assert ("pss", "CyclonService._shuffle") in ledger.calls
    assert ("slicing", "RankProbe") in ledger.calls


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "dfbench"), tmp_path / "dfbench")
    proc = subprocess.run(
        [sys.executable, "dfbench/run.py", "--workload", "overlay-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
