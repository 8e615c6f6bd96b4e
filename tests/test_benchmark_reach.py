"""The names of the package that the benchmark reaches stay reachable.

benchmark/tracing.py patches functions and methods by name, and
benchmark/workloads.py calls the `ExperimentConfig` accessors, so a cleanup
that deletes one of them breaks the benchmark.  These tests import both
modules the way benchmark/run.py does, through sys.path, and fail first.
"""

import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmark")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workloads
    return tracing, workloads


def test_tracer_installs_and_restores_every_patch(bench):
    tracing, _ = bench
    tracer = tracing.Tracer()
    patched = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patches()]
    with tracer.installed():
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


@pytest.mark.parametrize("name", ["martingale", "limit"])
def test_workload_sets_up_at_its_quick_sizes(bench, tmp_path, name):
    """Set-up only: it calls the accessors and builds the models, and runs nothing."""
    _, workloads = bench
    workload = workloads.WORKLOADS[name]
    workload(0, workload.quick_sizes, str(tmp_path))
