"""Command-line front end.

Subcommands: describe, detect, evaluate, quantize, explore, bench.  Exit
codes: 0 success, 2 config/parse problems (and a network whose tensors are
too big to allocate: the config's dims set their sizes), 3 I/O or
file-format problems (and weights whose network output is not finite),
4 exploration found no feasible candidate.

Images come in as binary PPM (P6, 8-bit RGB, maxval 255); reports are
plain text with stable columns, detections use the interchange line format
`<image_id> <class_id> <score> <cx> <cy> <w> <h>` in normalized
coordinates of the original image.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import arch_graph, complexity, detection, explorer
from .arch_graph import NonFiniteOutputError, ParseError, _decimal
from .complexity import WeightFormatError
from .detection import DetectionFormatError
from .nn_modules import param_tensors
from .tensor_core import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4


class PpmError(ValueError):
    """A PPM file is not a binary 8-bit RGB image."""


def read_ppm(path) -> np.ndarray:
    """Read a P6 PPM with maxval 255 into an (h, w, 3) uint8 array."""
    data = Path(path).read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PpmError("truncated header")
        return data[start:pos]

    if next_token() != b"P6":
        raise PpmError("not a binary PPM (P6) file")
    fields = [next_token() for _ in range(3)]
    try:
        width, height, maxval = map(_decimal, fields)
    except ValueError:
        raise PpmError("non-numeric header field") from None
    if width < 1 or height < 1:
        raise PpmError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PpmError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    expected = width * height * 3
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise PpmError(f"raster has {len(raster)} bytes, expected {expected}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(path, image: np.ndarray):
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise PpmError(f"expected (h, w, 3) image, got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(image.tobytes())


def _load_spec(path) -> arch_graph.NetworkSpec:
    return arch_graph.parse_network_spec(Path(path).read_text())


def _shape_table(spec) -> str:
    table = arch_graph.infer_shapes(spec)
    lines = ["node_id\tkind\tchannels\theight\twidth"]
    for node in spec.nodes:
        c, h, w = table.of(node.id)
        lines.append(f"{node.id}\t{node.kind}\t{c}\t{h}\t{w}")
    return "\n".join(lines) + "\n"


def cmd_describe(args) -> int:
    spec = _load_spec(args.config)
    report = complexity.count_network(spec)
    c, h, w = spec.input_shape
    print(f"config: {args.config}")
    print(f"input: {c}x{h}x{w}  classes: {spec.num_classes}  anchors_per_scale: {spec.anchors_per_scale}")
    print(f"nodes: {len(spec.nodes)}")
    print()
    print(_shape_table(spec), end="")
    print()
    print(report.format_table(), end="")
    print()
    size8 = complexity.model_size_bytes(spec, 8)
    size32 = complexity.model_size_bytes(spec, 32)
    print(f"model_size_8bit: {size8} bytes ({size8 / 1e6:.3f} MB)")
    print(f"model_size_32bit: {size32} bytes ({size32 / 1e6:.3f} MB)")
    return EXIT_OK


def _check_unit_interval(flag: str, value: float):
    """Refuse a threshold outside [0, 1]; NaN fails the comparison too."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{flag} must be in [0, 1], got {value}")


def _check_out_paths(*paths):
    """Refuse, before any work, an output path whose directory does not
    exist or that names a directory; None paths are skipped."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"no directory {Path(path).parent} for {path}")
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path} is a directory, not a file")


def cmd_detect(args) -> int:
    _check_unit_interval("--conf", args.conf)
    _check_unit_interval("--nms-iou", args.nms_iou)
    _check_out_paths(args.out)
    image_id = Path(args.image).stem
    # The id leads each output line, which parse_detections splits on
    # whitespace and skips when it starts with "#".
    if image_id.startswith("#") or image_id.split() != [image_id]:
        raise ConfigError(
            f"image id {image_id!r} (the --image file stem) must be one token not starting with '#'"
        )
    spec = _load_spec(args.config)
    store, _bits = complexity.load_weights(args.weights, spec)
    _c, target_h, target_w = spec.input_shape
    tensor, transform = detection.letterbox_image(read_ppm(args.image), (target_h, target_w))
    found = detection.detect(
        tensor, spec, store, conf_threshold=args.conf, nms_iou=args.nms_iou
    )
    boxes = transform.box_to_original(found)
    columns = (boxes.class_id, boxes.score, boxes.cx, boxes.cy, boxes.w, boxes.h)
    lines = [
        detection.format_detection_line(image_id, *row)
        for row in zip(*(column.tolist() for column in columns))
    ]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{len(lines)} detection(s)", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    detections = detection.parse_detections(Path(args.detections).read_text())
    truths = detection.parse_ground_truths(Path(args.truths).read_text())
    result = detection.evaluate_map(detections, truths)
    print("class\tap")
    for class_id, ap in result.ap_by_class.items():
        print(f"{class_id}\t{ap:.6f}")
    print(f"mAP\t{result.mean_ap:.6f}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    _check_out_paths(args.out)
    spec = _load_spec(args.config)
    store, bits = complexity.load_weights(args.weights, spec)
    if bits == 8:
        raise ConfigError(f"{args.weights} is already 8-bit; quantize takes 32-bit input")
    in_size = Path(args.weights).stat().st_size  # before --out may replace it
    # The 8-bit file is written beside --out, which may name the input, and
    # replaces it only once the report is made: a failure leaves --out as it
    # was.  An existing --out keeps its mode; a new one gets open()'s.
    fd, tmp = tempfile.mkstemp(dir=Path(args.out).parent, prefix=".quantize-")
    os.close(fd)
    os.umask(umask := os.umask(0))
    os.chmod(tmp, os.stat(args.out).st_mode & 0o7777 if os.path.exists(args.out) else 0o666 & ~umask)
    try:
        complexity.save_weights(tmp, spec, store, bits=8)
        # Report the round trip from the file just written, read back one
        # node at a time, as the input is.  Biases come back exact, so the
        # worst tensor is always a quantized one.
        written, _bits = complexity.load_weights(tmp, spec)
        worst_err, worst = 0.0, None
        for after, before in zip(written.params, store.params, strict=True):
            for (_, back), (_, arr) in zip(param_tensors(after), param_tensors(before)):
                err = float(np.abs(back - arr).max()) if arr.size else 0.0
                if err > worst_err:
                    worst_err, worst = err, arr
        # The file keeps the scale as f32; the bound uses its full-precision value.
        worst_bound = complexity.quantize_tensor(worst)[1] / 2 if worst is not None else 0.0
        out_size = Path(tmp).stat().st_size
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    print(f"wrote {args.out}: {out_size} bytes (8-bit), input {in_size} bytes (32-bit)")
    print(f"max round-trip error {worst_err:.8f} (worst-tensor bound {worst_bound:.8f})")
    return EXIT_OK


def _search_summary(history: list, seconds: float) -> str:
    """One stderr line: evaluations, time, rate, and each infeasible point
    counted once, under the first check it failed (HistoryEntry.failed)."""
    count = [entry.failed for entry in history].count
    rate = len(history) / seconds if seconds > 0 else float("inf")
    return (
        f"explore: {len(history)} evaluations in {seconds:.3f} s ({rate:.0f}/s); "
        f"infeasible: {count('max_ops')} over --max-ops, {count('min_score')} under --min-score, "
        f"{count('non_finite_score')} non-finite score"
    )


def cmd_explore(args) -> int:
    if args.min_score is not None and not math.isfinite(args.min_score):
        raise ConfigError(f"--min-score must be finite, got {args.min_score}")
    if args.max_ops is not None and args.max_ops < 0:
        raise ConfigError(f"--max-ops must be >= 0, got {args.max_ops}")
    if args.out and args.log and Path(args.out).resolve() == Path(args.log).resolve():
        raise ConfigError(f"--out and --log name the same file {args.out}")
    log_path = args.log if args.log else (args.out + ".log" if args.out else None)
    _check_out_paths(args.out, log_path)
    space = explorer.parse_design_space(Path(args.space).read_text(), _load_spec(args.config))
    constraints = complexity.ConstraintSet(max_ops=args.max_ops, min_score=args.min_score)
    evaluator = explorer.synthetic_evaluator()
    start = time.perf_counter()
    result = explorer.explore(space, constraints, evaluator, budget=args.budget, seed=args.seed)
    print(_search_summary(result.history, time.perf_counter() - start), file=sys.stderr)

    log_lines = [explorer.format_log_header(space)]
    log_lines += [explorer.format_history_line(args.seed, e) for e in result.history]
    log_text = "".join(line + "\n" for line in log_lines)
    if log_path:
        Path(log_path).write_text(log_text)
    else:
        sys.stdout.write(log_text)

    if result.best is None:
        print(
            f"no feasible candidate in {len(result.history)} evaluations "
            f"over {space.size()} points",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    best = result.best
    if args.out:
        Path(args.out).write_text(arch_graph.serialize_network_spec(best.spec))
    print(
        f"best: u {best.u_value:.6f} score {best.score:.6f} ops {best.ops} "
        f"params {best.params} point {' '.join(str(v) for v in best.point)}".rstrip()
    )
    print(f"evaluated {len(result.history)} of {space.size()} points")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {args.iterations}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    spec = _load_spec(args.config)
    if args.weights:
        # Read once, so the timed loop times only the forward pass.
        store = arch_graph.WeightStore(complexity.load_weights(args.weights, spec)[0].params)
    else:
        store = arch_graph.WeightStore.random(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    x = rng.random((1, *spec.input_shape), dtype=np.float32)
    arch_graph.execute(spec, store, x)  # warm-up, not timed
    times_ms = []
    for _ in range(args.iterations):
        start = time.perf_counter()
        arch_graph.execute(spec, store, x)
        times_ms.append((time.perf_counter() - start) * 1e3)
    c, h, w = spec.input_shape
    report = complexity.count_network(spec)
    print(f"config: {args.config}  input: {c}x{h}x{w}  iterations: {args.iterations}")
    print(f"total_ops: {report.total_ops}")
    print(
        f"latency_ms mean {statistics.mean(times_ms):.2f} "
        f"median {statistics.median(times_ms):.2f} min {min(times_ms):.2f}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compactdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="shapes, ops, params, and sizes of a config")
    describe.add_argument("--config", required=True)
    describe.set_defaults(func=cmd_describe)

    det = sub.add_parser("detect", help="run detection on one PPM image")
    det.add_argument("--config", required=True)
    det.add_argument("--weights", required=True)
    det.add_argument("--image", required=True)
    det.add_argument("--out", default=None, help="detections file (default: stdout)")
    det.add_argument("--conf", type=float, default=detection.DEFAULT_CONF_THRESHOLD)
    det.add_argument("--nms-iou", type=float, default=detection.DEFAULT_NMS_IOU)
    det.set_defaults(func=cmd_detect)

    evaluate = sub.add_parser("evaluate", help="VOC2007 11-point mAP of detections against truths")
    evaluate.add_argument("--detections", required=True, help="interchange lines with scores")
    evaluate.add_argument("--truths", required=True, help="interchange lines without scores")
    evaluate.set_defaults(func=cmd_evaluate)

    quant = sub.add_parser("quantize", help="convert a 32-bit weights file to 8-bit")
    quant.add_argument("--config", required=True)
    quant.add_argument("--weights", required=True)
    quant.add_argument("--out", required=True)
    quant.set_defaults(func=cmd_quantize)

    explore = sub.add_parser("explore", help="search a design space around a prototype config")
    explore.add_argument("--config", required=True, help="prototype config")
    explore.add_argument("--space", required=True, help="design-space document")
    explore.add_argument("--out", default=None, help="where to write the best config")
    explore.add_argument("--log", default=None, help="evaluation log (default: <out>.log)")
    explore.add_argument("--budget", type=int, default=256)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--max-ops", type=int, default=None)
    explore.add_argument("--min-score", type=float, default=None)
    explore.set_defaults(func=cmd_explore)

    bench = sub.add_parser("bench", help="measure forward-pass latency")
    bench.add_argument("--config", required=True)
    bench.add_argument("--weights", default=None)
    bench.add_argument("--iterations", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, MemoryError) as exc:  # numpy's MemoryError can have no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (WeightFormatError, PpmError, NonFiniteOutputError, DetectionFormatError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
