"""Tests for the package's public surface."""

import os
import subprocess
import sys

import pytest

import repro

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def test_version_string():
    assert repro.__version__ == "1.10.0"


def test_every_module_all_resolves():
    # The runtime counterpart of the D401/D402 lint rules: every
    # __all__ entry in every submodule resolves and none repeats.
    import importlib
    import pkgutil

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        assert len(names) == len(set(names)), f"{info.name}.__all__ has duplicates"
        for name in names:
            assert hasattr(module, name), f"{info.name}.{name} missing"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_subpackage_exports_resolve():
    import repro.analysis
    import repro.churn
    import repro.core
    import repro.dht
    import repro.faults
    import repro.gossip
    import repro.pss
    import repro.scenarios
    import repro.sim
    import repro.slicing
    import repro.workload

    for module in (
        repro.analysis,
        repro.churn,
        repro.core,
        repro.dht,
        repro.faults,
        repro.gossip,
        repro.pss,
        repro.scenarios,
        repro.sim,
        repro.slicing,
        repro.workload,
    ):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_quickstart_snippet_from_module_docstring():
    # The code shown in the package docstring must actually work.
    from repro import DataFlasksCluster

    cluster = DataFlasksCluster(n=25, seed=42)
    cluster.warm_up(10)
    cluster.wait_for_slices(timeout=90)
    client = cluster.new_client()
    cluster.put_sync(client, "user:1", b"alice", version=1)
    result = cluster.get_sync(client, "user:1")
    assert result.value == b"alice"


def test_errors_hierarchy():
    from repro import errors

    for cls in (
        errors.SimulationError,
        errors.ConfigurationError,
        errors.StoreError,
        errors.ClientError,
    ):
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.CapacityExceededError, errors.StoreError)
    assert issubclass(errors.OperationTimeoutError, errors.ClientError)
    assert issubclass(errors.NodeDownError, errors.SimulationError)
    assert issubclass(errors.DeterminismError, errors.SimulationError)

    timeout = errors.OperationTimeoutError("get", "key", 5.0)
    assert "get" in str(timeout) and "key" in str(timeout)
    down = errors.NodeDownError(7)
    assert down.node_id == 7


def test_examples_compile():
    # Every example must at least be valid Python importable as source.
    import py_compile

    files = [f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")]
    assert len(files) >= 3  # the deliverable: three or more examples
    for name in files:
        py_compile.compile(os.path.join(EXAMPLES_DIR, name), doraise=True)


@pytest.mark.parametrize(
    "name", ["quickstart", "backend_quickstart", "persistent_store", "stratus_stack"]
)
def test_facade_example_runs(name):
    # The examples that drive the stack classes directly run end to end
    # (about a second each), so a facade change that breaks them fails here.
    src = os.path.join(os.path.dirname(repro.__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
