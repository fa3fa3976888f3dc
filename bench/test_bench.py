"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys

import pytest

import calibrate
import perlayer
import run
import workloads
from tracing import Tracer

workloads.ensure_package()


def corrupt_odd_ops(workload, corrupt):
    """Make every odd-numbered operation's output wrong after it ran."""
    real_run = workload.run

    def run_op(i):
        rc = real_run(i)
        if i % 2:
            corrupt(i)
        return rc

    workload.run = run_op


def test_corrupted_explore_output_is_counted(tmp_path):
    workload = workloads.ExploreSearch(seed=5, budget=16)
    workload.prepare(tmp_path)
    workload.warm_up()
    assert not workload.warmup_errors

    def corrupt(i):
        _best, log = workload.paths(i)
        log.write_text(log.read_text().replace("# gen", "#  gen", 1))

    corrupt_odd_ops(workload, corrupt)
    timed, attempted, failures = run.measure(workload, 0.3)
    assert attempted >= 2
    assert len(failures) == attempted // 2
    assert len(timed) == attempted - len(failures)
    assert all("differs from the warm-up output" in f for f in failures)


def flip_last_digit(text):
    """Change the last digit of the first box height: still well formed."""
    end = text.index("\n") - 1
    return text[:end] + ("1" if text[end] != "1" else "2") + text[end + 1:]


def test_output_off_the_pinned_digest_fails_every_op(tmp_path):
    # Seed 0 is pinned for --budget 1024, so a 16-point search cannot match.
    workload = workloads.ExploreSearch(seed=workloads.DEFAULT_SEED, budget=16)
    workload.prepare(tmp_path)
    workload.warm_up()
    assert all("pinned" in why for why in workload.warmup_errors.values())
    _timed, attempted, failures = run.measure(workload, 0.1)
    assert len(failures) == attempted


def test_set_ups_that_disagree_fail_every_op(tmp_path):
    budgets = iter((16, 17, 16))  # the middle set-up writes a longer log
    workload, seconds = run.set_up(
        lambda: workloads.ExploreSearch(seed=5, budget=next(budgets)), tmp_path, ("python",)
    )
    assert len(seconds) == run.SETUP_REPEATS == 3
    _timed, attempted, failures = run.measure(workload, 0.1)
    assert len(failures) == attempted
    assert all("differs between set-ups" in f for f in failures)


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (flip_last_digit, "differs from the warm-up output"),
        (lambda text: text.replace(text.split()[2], "nan", 1), "outside"),
        (lambda text: text + "frame0 1 0.5\n", "unparsable"),
    ],
)
def test_corrupted_detect_output_is_counted(tmp_path, corrupt, reason):
    workload = workloads.SparseDetect(seed=0)
    workload.prepare(tmp_path)
    workload.warm_up()
    assert not workload.warmup_errors and workload.detections(0) > 0

    def corrupt_file(i):
        path = workload.out_path(i)
        path.write_text(corrupt(path.read_text()))

    corrupt_odd_ops(workload, corrupt_file)
    timed, attempted, failures = run.measure(workload, 1.0)
    assert attempted >= 2
    assert len(failures) == attempted // 2
    assert all(reason in f for f in failures)


def fail_traced_runs(workload, monkeypatch, module, name, which):
    """Make the traced run of op i raise inside module.name when which(i)."""
    real_run = workload.run
    runs = []

    def boom(*args, **kwargs):
        raise FloatingPointError("injected fault")

    def run_op(i):
        runs.append(i)
        traced_run = runs.count(i) % 2 == 0  # traced() runs op i untraced, then traced
        with monkeypatch.context() as patch:
            if traced_run and which(i):
                patch.setattr(module, name, boom)
            return real_run(i)

    workload.run = run_op


def test_exception_in_traced_explore_is_counted(tmp_path, monkeypatch):
    from compactdet import explorer

    workload = workloads.ExploreSearch(seed=5, budget=16)
    workload.prepare(tmp_path)
    workload.warm_up()
    fail_traced_runs(workload, monkeypatch, explorer, "evaluate", lambda i: i % 2)
    report, attempted, failures = run.traced(workload, 0.5)
    assert attempted >= 4
    assert len(failures) == attempted // 4
    assert all(f.startswith("traced op ") and "exit code 1" in f for f in failures)
    assert report.ops == attempted // 2 - len(failures)
    assert not report.check()


def test_exception_in_traced_execute_is_counted(tmp_path, monkeypatch):
    from compactdet import arch_graph

    workload = workloads.SparseDetect(seed=0)
    workload.prepare(tmp_path)
    workload.warm_up()
    fail_traced_runs(workload, monkeypatch, arch_graph, "leaky_relu", lambda i: True)
    report, attempted, failures = run.traced(workload, 0.0)
    assert (attempted, report.ops) == (2, 0)
    assert failures == ["traced op 0: exit code 1"]
    assert report.check() == ["no traced operation succeeded"]


def test_tracer_restores_every_binding():
    from compactdet import arch_graph, cli, nn_modules, tensor_core

    before = (cli.main, arch_graph.conv2d, nn_modules.conv2d, tensor_core.conv2d,
              vars(arch_graph.WeightStore)["zeros"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not before[0]
        assert arch_graph.conv2d is not before[1] and nn_modules.conv2d is not before[2]
        assert tensor_core.conv2d is before[3]  # kernels' own calls stay untraced
    finally:
        tracer.uninstall()
    after = (cli.main, arch_graph.conv2d, nn_modules.conv2d, tensor_core.conv2d,
             vars(arch_graph.WeightStore)["zeros"])
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_the_package(tmp_path):
    shutil.copytree(workloads.REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.REPO / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "explore-search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_lists_match_benchmark_json():
    spec = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in perlayer.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_calibration_factor_is_the_geometric_mean_over_kinds():
    ref = calibrate.REFERENCE_S
    assert calibrate.factor(("python",), (ref["python"],)) == pytest.approx(1.0)
    # Slices at twice the reference time before and equal to it after: the
    # host ran at 2/3 of the reference speed around the work.
    assert calibrate.factor(("numpy",), (2 * ref["numpy"],), (ref["numpy"],)) == pytest.approx(2 / 3)
    both = calibrate.factor(("python", "numpy"), (ref["python"] / 4, 4 * ref["numpy"]))
    assert both == pytest.approx(1.0)
