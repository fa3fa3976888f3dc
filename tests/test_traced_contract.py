"""The traced benchmark's contract with the program, checked in tier-1.

bench/run.py --trace 1 joins each traced call to the network's nodes by
kernel name and call order; a source change that renames a traced
function, or adds or drops a kernel call, fails that join.  These tests run
one traced operation of two workloads, so such a change fails here too,
without running the benchmark.
"""

from pathlib import Path

import pytest


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py, imported with bench/ on sys.path as the benchmark runs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import run

    return run


def traced_report(bench, name, directory):
    """One traced operation of workload name, set up in directory."""
    workload = bench.workloads.WORKLOADS[name](bench.workloads.DEFAULT_SEED)
    workload.prepare(directory)
    workload.warm_up()
    report, attempted, failures = bench.traced(workload, 0.0)
    assert attempted == 2
    assert failures == []
    assert report.check() == []
    return report


def test_detect_sparse_makes_the_traced_kernel_calls(bench, tmp_path):
    """The reference network's kernel calls per detect: 89 1x1 and 2 3x3
    convs, 29 depthwise convs, 89 activations and 16 residual adds."""
    metrics = traced_report(bench, "detect-sparse", tmp_path).metrics()
    calls = {
        name: metrics[f"tensor_core.{name}.calls"]
        for name in ("conv2d.k1", "conv2d.k3", "depthwise_conv2d", "leaky_relu", "add")
    }
    assert calls == {
        "conv2d.k1": 89, "conv2d.k3": 2, "depthwise_conv2d": 29, "leaky_relu": 89, "add": 16,
    }


def test_explore_search_records_every_span(bench, tmp_path):
    traced_report(bench, "explore-search", tmp_path)
