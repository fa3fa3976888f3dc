"""Per-layer metrics from traced operations, plus regime and completeness checks.

``.ms`` metrics are self time (span minus its traced children) per
operation, except the ones ``INCLUSIVE`` lists, which are whole-span time.
``.calls`` and counts are per operation.  GOP/s joins time with op counts
under ``complexity``'s convention (2 ops per multiply-accumulate, 1 per
activation output); ``ops_per_byte`` divides those ops by the bytes of the
kernel's input, weights, bias and output, computed from tensor sizes, not
measured.  No peak-rate ratio is given: neither the host's peak compute rate
nor its memory bandwidth is measured here.
"""

from __future__ import annotations

import hashlib
import math

from tracing import children, self_times

KERNELS = (
    "conv2d.k1", "conv2d.k3", "depthwise_conv2d", "leaky_relu", "sigmoid", "max_pool2d",
    "upsample_nearest", "concat_channels", "add", "channel_scale", "global_avg_pool", "dense",
)
ROOFLINE_KERNELS = ("conv2d.k1", "conv2d.k3", "depthwise_conv2d", "leaky_relu")
NODE_KINDS = ("conv", "pep", "ep", "fca", "maxpool", "upsample", "concat")
# What arch_graph.execute calls, directly, for one node of each kind.
NODE_CALLS = {
    "pep": "nn_modules.pep_forward",
    "ep": "nn_modules.ep_forward",
    "fca": "nn_modules.fca_forward",
    "maxpool": "tensor_core.max_pool2d",
    "upsample": "tensor_core.upsample_nearest",
    "concat": "tensor_core.concat_channels",
}
CONV_CALLS = ("tensor_core.conv2d.k1", "tensor_core.conv2d.k3", "tensor_core.conv2d.grouped")
NODE_CALL_NAMES = frozenset(NODE_CALLS.values()) | set(CONV_CALLS) | {"tensor_core.leaky_relu"}
INCLUSIVE = frozenset({"arch_graph.execute", "arch_graph.WeightStore.validate_against"})
ENTRY = frozenset({"cli.main", "cli.cmd_detect", "cli.cmd_explore"})

# Span names each workload must record, so that a refactor that rebinds a
# name (and would read zero) stops the traced run instead.
DETECT_SPANS = (
    "cli.main", "cli.cmd_detect", "cli.read_ppm", "arch_graph.parse_network_spec",
    "complexity.load_weights", "detection.letterbox_image", "detection.detect",
    "arch_graph.execute", "arch_graph.WeightStore.validate_against", "arch_graph.infer_shapes",
    "detection.decode_predictions", "detection.nms", "detection.format_detection_line",
    "nn_modules.pep_forward", "nn_modules.ep_forward", "nn_modules.fca_forward",
) + tuple(f"tensor_core.{k}" for k in KERNELS if k != "max_pool2d")
EXPECTED_SPANS = {
    "detect-dense": DETECT_SPANS,
    "detect-sparse": DETECT_SPANS,
    "explore-search": (
        "cli.main", "cli.cmd_explore", "arch_graph.parse_network_spec",
        "explorer.parse_design_space", "explorer.explore", "explorer.expand_point",
        "explorer.sample_point", "explorer.evaluate", "complexity.count_network",
        "complexity.count_node", "arch_graph.infer_shapes", "explorer.format_history_line",
    ),
}

PER_LAYER = (
    ("detection.nms.ms", "ms", "lower"),
    ("detection.nms.kept", "count", "higher"),
    ("detection.nms.keep_ratio", "ratio", "higher"),
    ("detection.decode_predictions.ms", "ms", "lower"),
    ("detection.decode_predictions.candidates", "count", "higher"),
    ("detection.letterbox_image.ms", "ms", "lower"),
    ("detection.format_detection_line.ms", "ms", "lower"),
    ("cli.read_ppm.ms", "ms", "lower"),
    ("complexity.load_weights.ms", "ms", "lower"),
    ("arch_graph.parse_network_spec.ms", "ms", "lower"),
    ("arch_graph.execute.ms", "ms", "lower"),
    ("arch_graph.execute.gops", "GOP/s", "higher"),
    ("arch_graph.execute.peak_mb", "MiB", "lower"),
    ("arch_graph.WeightStore.validate_against.ms", "ms", "lower"),
) + tuple(
    (f"arch_graph.node.{kind}.{what}", unit, better)
    for kind in NODE_KINDS if kind != "maxpool"
    for what, unit, better in (("ms", "ms", "lower"), ("gops", "GOP/s", "higher"))
    if (kind, what) != ("concat", "gops")
) + (
    ("nn_modules.pep_forward.ms", "ms", "lower"),
    ("nn_modules.ep_forward.ms", "ms", "lower"),
    ("nn_modules.fca_forward.ms", "ms", "lower"),
) + tuple(
    (f"tensor_core.{k}.{what}", unit, "lower")
    for k in KERNELS if k != "max_pool2d"
    for what, unit in (("ms", "ms"), ("calls", "count"))
) + tuple(
    (f"tensor_core.{k}.{what}", unit, "higher")
    for k in ROOFLINE_KERNELS
    for what, unit in (("gops", "GOP/s"), ("ops_per_byte", "op/B-computed"))
) + (
    ("complexity.count_network.ms", "ms", "lower"),
    ("complexity.count_network.calls", "count", "lower"),
    ("arch_graph.infer_shapes.ms", "ms", "lower"),
    ("arch_graph.infer_shapes.calls", "count", "lower"),
    ("explorer.expand_point.ms", "ms", "lower"),
    ("explorer.sample_point.ms", "ms", "lower"),
    ("explorer.evaluate.ms", "ms", "lower"),
    ("explorer.evaluations", "count", "higher"),
    ("explorer.feasible_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
)
# max_pool2d and the maxpool node kind are traced and printed, but neither
# config the workloads run has a maxpool node, so they always read zero and
# are left out of the metric list; so is concat's GOP/s, which is zero by the
# counting convention (concatenation is free).


class TraceError(RuntimeError):
    """The trace is incomplete or a workload left its regime."""


def grids_digest(grids) -> str:
    h = hashlib.sha256()
    for grid in grids:
        h.update(grid.tobytes())
    return h.hexdigest()


def kernel_work(name: str, info) -> tuple:
    """(ops, computed bytes) of one roofline-kernel call."""
    if name == "tensor_core.leaky_relu":
        elements = math.prod(info)
        return elements, 8 * elements
    x_shape, k_shape, out_shape = info
    c_out, c_in_per_group, k, _ = k_shape
    macs = math.prod(out_shape) * c_in_per_group * k * k
    moved = math.prod(x_shape) + math.prod(k_shape) + c_out + math.prod(out_shape)
    return 2 * macs, 4 * moved


class LayerReport:
    """Accumulates traced operations of one workload."""

    def __init__(self, workload: str, spec=None, node_ops=None, heads=frozenset()):
        self.workload = workload
        self.spec = spec
        self.node_ops = node_ops or {}  # node id -> ops (complexity.count_node)
        self.heads = heads
        self.ops = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.covered_s = 0.0
        self.own = {}  # name -> [seconds, calls]
        self.inclusive = {}  # name -> seconds
        self.kept = self.candidates = 0
        self.op_candidates = []
        self.node_s = {kind: 0.0 for kind in NODE_KINDS}
        self.node_work = {kind: 0 for kind in NODE_KINDS}
        self.kernel_work = {k: [0, 0] for k in ROOFLINE_KERNELS}
        self.evaluations = self.feasible = 0
        self.execute_s = 0.0
        self.execute_ops = 0
        self.grid_digests = []
        self.peak_mb = 0.0

    def add(self, spans: list, traced_s: float, untraced_s: float):
        self.ops += 1
        self.traced_s += traced_s
        self.untraced_s += untraced_s
        for name, (seconds, calls) in self_times(spans).items():
            entry = self.own.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        candidates = 0
        for span in spans:
            self.inclusive[span.name] = self.inclusive.get(span.name, 0.0) + span.duration
            if span.parent is not None and span.parent.name in ENTRY and span.name not in ENTRY:
                self.covered_s += span.duration
            if span.info is None:  # the call raised, or its hook keeps nothing
                continue
            if span.name == "detection.nms":
                self.candidates += span.info[0]
                self.kept += span.info[1]
            elif span.name == "detection.decode_predictions":
                candidates += span.info
            elif span.name == "arch_graph.execute":
                self._execute(spans, span)
            elif span.name == "explorer.explore":
                self.evaluations += span.info.evaluations
                self.feasible += sum(1 for h in span.info.history if h.feasible)
            short = span.name.removeprefix("tensor_core.")
            if short in self.kernel_work:
                ops, moved = kernel_work(span.name, span.info)
                self.kernel_work[short][0] += ops
                self.kernel_work[short][1] += moved
        self.op_candidates.append(candidates)

    def _execute(self, spans: list, span):
        self.grid_digests.append(grids_digest(span.info))
        span.info = None
        self.execute_s += span.duration
        self.execute_ops += sum(self.node_ops.values())
        calls = [s for s in children(spans, span) if s.name in NODE_CALL_NAMES]
        pos = 0

        def take(names) -> float:
            nonlocal pos
            if pos >= len(calls) or calls[pos].name not in names:
                found = calls[pos].name if pos < len(calls) else "nothing"
                raise TraceError(f"execute called {found} where node {node.id} ({node.kind}) expects {names}")
            pos += 1
            return calls[pos - 1].duration

        for node in self.spec.nodes:
            kind = node.kind
            if kind == "detect":
                continue
            if kind == "conv":
                seconds = take(CONV_CALLS)
                if node.id not in self.heads:
                    seconds += take(("tensor_core.leaky_relu",))
            else:
                seconds = take((NODE_CALLS[kind],))
            self.node_s[kind] += seconds
            self.node_work[kind] += self.node_ops[node.id]
        if pos != len(calls):
            raise TraceError(f"execute made {len(calls) - pos} node calls beyond the spec's nodes")

    def _ms(self, name: str) -> float:
        if name in INCLUSIVE:
            return self.inclusive.get(name, 0.0) * 1e3 / self.ops
        return self.own.get(name, [0.0, 0])[0] * 1e3 / self.ops

    def _calls(self, name: str) -> float:
        return self.own.get(name, [0.0, 0])[1] / self.ops

    def metrics(self) -> dict:
        ops = self.ops
        out = {
            "detection.nms.kept": self.kept / ops,
            "detection.nms.keep_ratio": self.kept / self.candidates if self.candidates else 0.0,
            "detection.decode_predictions.candidates": sum(self.op_candidates) / ops,
            "arch_graph.execute.gops": _rate(self.execute_ops, self.execute_s),
            "arch_graph.execute.peak_mb": self.peak_mb,
            "explorer.evaluations": self.evaluations / ops,
            "explorer.feasible_ratio": self.feasible / self.evaluations if self.evaluations else 0.0,
            "trace.overhead_pct": 100.0 * (self.traced_s - self.untraced_s) / self.untraced_s,
            "trace.unattributed_pct": 100.0 * (self.traced_s - self.covered_s) / self.traced_s,
        }
        for kind in NODE_KINDS:
            out[f"arch_graph.node.{kind}.ms"] = self.node_s[kind] * 1e3 / ops
            out[f"arch_graph.node.{kind}.gops"] = _rate(self.node_work[kind], self.node_s[kind])
        for k in KERNELS:
            out[f"tensor_core.{k}.ms"] = self._ms(f"tensor_core.{k}")
            out[f"tensor_core.{k}.calls"] = self._calls(f"tensor_core.{k}")
        for k, (work, moved) in self.kernel_work.items():
            out[f"tensor_core.{k}.gops"] = _rate(work, self.own.get(f"tensor_core.{k}", [0.0])[0])
            out[f"tensor_core.{k}.ops_per_byte"] = work / moved if moved else 0.0
        for name, unit, _better in PER_LAYER:
            if name not in out:
                stem, what = name.rsplit(".", 1)
                out[name] = self._calls(stem) if what == "calls" else self._ms(stem)
        return out

    def share(self, name: str, inclusive: bool = False) -> float:
        seconds = self.inclusive.get(name, 0.0) if inclusive else self.own.get(name, [0.0])[0]
        return seconds / self.traced_s

    def check(self) -> list:
        """Hard failures: missing spans and workloads out of their regime."""
        if not self.ops:
            return ["no traced operation succeeded"]
        errors = [
            f"span {name} recorded no calls"
            for name in EXPECTED_SPANS[self.workload]
            if self.own.get(name, [0.0, 0])[1] == 0
        ]
        if self.workload == "detect-dense" and min(self.op_candidates) < 1000:
            errors.append(f"dense frame with {min(self.op_candidates)} candidates (< 1000)")
        if self.workload == "detect-sparse" and max(self.op_candidates) > 200:
            errors.append(f"sparse frame with {max(self.op_candidates)} candidates (> 200)")
        if self.workload == "explore-search":
            kernel_calls = sum(self._calls(f"tensor_core.{k}") for k in KERNELS)
            if kernel_calls:
                errors.append(f"explore made {kernel_calls} tensor_core kernel calls per op")
        return errors

    def warnings(self) -> list:
        """Time-share guards: printed, not fatal (see README.md)."""
        out = []
        if self.workload == "detect-dense" and self.share("detection.nms") < 0.5:
            out.append(f"nms is {self.share('detection.nms'):.0%} of traced time (< 50%)")
        if self.workload == "detect-sparse" and self.share("arch_graph.execute", True) < 0.7:
            out.append(
                f"execute is {self.share('arch_graph.execute', True):.0%} of traced time (< 70%)"
            )
        return out


def _rate(ops: int, seconds: float) -> float:
    return ops / seconds / 1e9 if seconds > 0 else 0.0
