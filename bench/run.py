"""compactdet benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload detect-dense --seed 0 --seconds 25 --trace 0

Workloads: detect-dense, detect-sparse, explore-search (see README.md);
``--workload all`` runs the three one after another, each in its own process.
With --trace 0 it times operations with the program unmodified and prints
the end-to-end metrics, their times scaled to reference seconds by the host
speed that calibrate.py measures next to every operation; with --trace 1 it
alternates untraced and traced operations and prints the per-layer metrics.
Either way every output is checked, and the last line of stdout is one JSON
object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit codes: 0 result printed; 2 the checkout has no compactdet package or
bad arguments; 3 a regime guard or trace-completeness check failed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
SETUP_REPEATS = 3


def environment(seed: int) -> dict:
    """What a result must be stored with to be comparable later."""
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_runtime": workloads.blas_runtime(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": _commit(),
        "seed": seed,
        "model_seed": workloads.MODEL_SEED,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    git = workloads.REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def set_up(make, root, kinds: tuple) -> tuple:
    """Set the workload up SETUP_REPEATS times from scratch; keep the last.

    Each repeat makes a fresh workload, prepares its inputs in a directory
    of its own and warms up.  Its time, less that of the calibrate slices
    timed inside it, is scaled to reference seconds by the slices of
    ``kinds`` timed just before it, after its inputs are made and after each
    warm-up operation.  Returns (the last workload, [(host seconds,
    reference seconds)] of each repeat).  The warm-up is part of set-up so
    that work a later change moves into a first call shows in ``setup_s``.
    A key whose warm-up output differs between repeats has no valid
    reference, so every operation on it fails.
    """
    timed, differ = [], set()
    before = calibrate.take(kinds)
    for rep in range(SETUP_REPEATS):
        takes = [before]
        start = time.perf_counter()
        workload = make()
        workload.prepare(root / f"rep{rep}")
        takes.append(calibrate.take(kinds))
        workload.warm_up(between=lambda: takes.append(calibrate.take(kinds)))
        seconds = time.perf_counter() - start - sum(map(sum, takes[1:]))
        timed.append((seconds, seconds * calibrate.factor(kinds, *takes)))
        before = takes[-1]
        if rep == 0:
            first = workload.reference
        differ |= {key for key, digest in first.items() if workload.reference.get(key) != digest}
    for key in differ:
        workload.warmup_errors[key] = "warm-up output differs between set-ups"
        workload.reference[key] = None
    return workload, timed


def measure(workload, seconds: float) -> tuple:
    """Closed loop: returns ([(host s, reference s)] of correct ops, attempted, failures).

    A calibrate slice is timed before the first operation and after each
    one; an operation's reference seconds use the slices on both sides.
    """
    kinds = workload.calibration
    timed, failures = [], []
    attempted = 0
    begin = time.perf_counter()
    before = calibrate.take(kinds)
    while attempted == 0 or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        rc = workload.run(attempted)
        elapsed = time.perf_counter() - start
        after = calibrate.take(kinds)
        why = workload.check(attempted, rc)
        if why:
            failures.append(f"op {attempted} ({workload.key(attempted)}): {why}")
        else:
            timed.append((elapsed, elapsed * calibrate.factor(kinds, before, after)))
        before = after
        attempted += 1
    return timed, attempted, failures


def reference_grids(workload):
    """Digest of execute's grids per frame, and execute's traced peak memory."""
    import tracemalloc

    from compactdet import arch_graph, cli, complexity, detection

    from perlayer import grids_digest

    spec = arch_graph.parse_network_spec(workload.config.read_text())
    store, _bits = complexity.load_weights(workload.weights, spec)
    digests, peak = {}, 0
    for i, frame in enumerate(workload.frames):
        tensor, _ = detection.letterbox_image(cli.read_ppm(frame), spec.input_shape[1:])
        if i == 0:
            tracemalloc.start()
        grids = arch_graph.execute(spec, store, tensor)
        if i == 0:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        digests[workload.key(i)] = grids_digest(grids)
    return digests, peak / 2**20


def traced(workload, seconds: float):
    """Alternate untraced and traced runs of each op; returns the report."""
    from compactdet import arch_graph, complexity

    import perlayer
    from tracing import Tracer

    report_args = {}
    grids = {}
    if workload.name.startswith("detect"):
        spec = arch_graph.parse_network_spec(workload.config.read_text())
        table = arch_graph.infer_shapes(spec)
        heads = arch_graph.linear_conv_ids(spec)
        node_ops = {
            n.id: complexity.count_node(
                n, table.of(n.input_id), table.of(n.id), linear=n.id in heads
            ).ops
            for n in spec.nodes
        }
        report_args = {"spec": spec, "node_ops": node_ops, "heads": heads}
        grids, peak_mb = reference_grids(workload)
    report = perlayer.LayerReport(workload.name, **report_args)
    if grids:
        report.peak_mb = peak_mb
    tracer = Tracer()
    failures = []
    attempted = 0
    begin = time.perf_counter()
    while attempted == 0 or time.perf_counter() - begin < seconds:
        i = attempted // 2
        start = time.perf_counter()
        rc = workload.run(i)
        untraced_s = time.perf_counter() - start
        why = workload.check(i, rc)
        if why:
            failures.append(f"untraced op {i}: {why}")
        rc, spans, traced_s = tracer.call(workload.run, i)
        why = workload.check(i, rc)
        if not why:  # a failed op's spans are cut short; keep them out of the report
            digests = len(report.grid_digests)
            report.add(spans, traced_s, untraced_s)
            if grids and report.grid_digests[digests:] != [grids[workload.key(i)]]:
                why = "traced execute grids differ from the untraced grids"
        if why:
            failures.append(f"traced op {i}: {why}")
        attempted += 2
    return report, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        workloads.ensure_package()
    except workloads.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401
    import compactdet.cli  # noqa: F401
    import_s = time.perf_counter() - PROCESS_START
    kinds = workloads.WORKLOADS[args.workload].calibration
    after_imports = calibrate.take(kinds)

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    work = workloads.REPO / ".bench_work"
    work.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        make = functools.partial(workloads.WORKLOADS[args.workload], args.seed)
        workload, setups = set_up(make, root, kinds)
        pinned = "checked" if workload.pinned() else "not checked (other seed or BLAS runtime)"
        print(f"# pinned output digests: {pinned}")
        regime = "" if workload.warmup_errors else workload.regime_error()
        if regime:
            print(f"error: regime guard: {regime}", file=sys.stderr)
            return 3
        if args.trace:
            return report_traced(workload, args.seconds)
        timed, attempted, failures = measure(workload, args.seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for line in failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    metrics = {
        # reference seconds: host seconds scaled by the calibrate slices
        "setup_s": import_s * calibrate.factor(kinds, after_imports)
        + statistics.median(ref for _host, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    host = {"setup_s": import_s + statistics.median(h for h, _ref in setups)}
    for which, col in ((metrics, 1), (host, 0)):
        seconds = [t[col] for t in timed]
        which["throughput"] = len(seconds) * workload.ops_per_call / sum(seconds) if seconds else 0.0
        which["latency_p50_ms"] = statistics.median(seconds) * 1e3 if seconds else 0.0
    counts = {"throughput": len(timed), "latency_p50_ms": len(timed),
              "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]:.6g} {unit} n={counts[name]}")
    print(f"error_rate {len(failures) / attempted:.6g} ratio n={attempted}")
    print("# host time, not scaled: " + ", ".join(
        f"{name} {host[name]:.6g}" for name in ("throughput", "latency_p50_ms", "setup_s")))
    if len(timed) >= 2:
        ms = sorted(ref * 1e3 for _h, ref in timed)
        q1, _q2, q3 = statistics.quantiles(ms, n=4)
        print(f"# latency_ms (reference) min {ms[0]:.1f} q1 {q1:.1f} q3 {q3:.1f} max {ms[-1]:.1f}")
        factors = [ref / h for h, ref in timed]
        print(f"# {'+'.join(kinds)} calibration factor min {min(factors):.3f} "
              f"median {statistics.median(factors):.3f} max {max(factors):.3f}")
    print(f"# setup: imports {import_s:.3f} s, then inputs and warm-up "
          + ", ".join(f"{h:.3f}" for h, _ref in setups) + " s (host time)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or child.returncode
    return status


def report_traced(workload, seconds: float) -> int:
    import perlayer

    try:
        report, attempted, failures = traced(workload, seconds)
        errors = report.check()
    except perlayer.TraceError as exc:
        errors, failures = [str(exc)], []
    for line in failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    if errors:
        for line in errors:
            print(f"error: trace check: {line}", file=sys.stderr)
        return 3
    for line in report.warnings():
        print(f"# REGIME WARNING {line}", file=sys.stderr)
        print(f"# REGIME WARNING {line}")
    values = report.metrics()
    units = {name: unit for name, unit, _ in perlayer.PER_LAYER}
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {units.get(name, '-')} n={report.ops}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _ in perlayer.PER_LAYER
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
