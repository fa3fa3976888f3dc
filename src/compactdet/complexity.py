"""Cost accounting, weight quantization, and the binary weights file.

Counting conventions (batch size 1 throughout):

* A convolution or dense layer costs k*k * (c_in/groups) * c_out spatial
  output positions in multiply-accumulates (MACs); its op count is 2*MACs.
* Activations, residual adds, sigmoids, pooling, channel scaling, and
  upsampling cost 1 op per output element and contribute no MACs/params.
* Concatenation and detect markers are free.
* Parameter counts include biases.

Weight storage is per-tensor asymmetric affine quantization at 8 bits:
scale = (max - min) / 255 over a zero-anchored range, zero_point in
[0, 255].  Biases always stay at 32 bits.  Inference arithmetic elsewhere
is 32-bit regardless; quantization only changes what is stored on disk.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Optional

import numpy as np

from .arch_graph import (
    _KINDS,
    NetworkSpec,
    NodeCost,
    NodeSpec,
    WeightStore,
    infer_shapes,
    linear_conv_ids,
    node_param_shapes,
    param_tensors,
)
from .tensor_core import ConfigError

MAGIC = b"YNWF"
FORMAT_VERSION = 1


class WeightFormatError(ValueError):
    """A weights file is malformed or does not match its network spec."""


def count_node(node: NodeSpec, in_shape: tuple, out_shape: tuple, linear: bool = False) -> NodeCost:
    """Cost of one node given its input/output (c, h, w) shapes.

    `linear` marks conv nodes that emit raw logits and skip the activation.
    The rule for each kind is the cost entry of its arch_graph record.
    """
    return _KINDS[type(node.op)].cost(node.op, in_shape, out_shape, linear)


@dataclass
class OpsReport:
    rows: list = field(default_factory=list)  # (node_id, kind, NodeCost)

    @cached_property
    def total(self) -> NodeCost:
        """Row sum, computed on first read; rows are complete by then."""
        total = NodeCost()
        for _, _, cost in self.rows:
            total = total + cost
        return total

    @property
    def total_macs(self) -> int:
        return self.total.macs

    @property
    def total_ops(self) -> int:
        return self.total.ops

    @property
    def total_params(self) -> int:
        return self.total.params

    def format_table(self) -> str:
        lines = ["node_id\tkind\tmacs\tops\tparams"]
        for node_id, kind, cost in self.rows:
            lines.append(f"{node_id}\t{kind}\t{cost.macs}\t{cost.ops}\t{cost.params}")
        total = self.total
        lines.append(f"TOTAL\t-\t{total.macs}\t{total.ops}\t{total.params}")
        return "\n".join(lines) + "\n"


def count_network(spec: NetworkSpec) -> OpsReport:
    table = infer_shapes(spec)
    raw_heads = linear_conv_ids(spec)
    rows = []
    for node in spec.nodes:
        cost = count_node(
            node, table.of(node.input_id), table.of(node.id), linear=node.id in raw_heads
        )
        rows.append((node.id, node.kind, cost))
    return OpsReport(rows)


def _layout(spec: NetworkSpec, bits: int) -> list:
    """The weights-file layout of spec: per node, (node, entries), where each
    entry is (stored name, shape, stored as f32) in storage order.

    Shapes come from each kind's parameter shapes; nothing is allocated.
    Biases always stay f32; other tensors take `bits` bits per element.
    """
    return [
        (node, [
            (name, shape, bits == 32 or name.endswith("bias"))
            for (name, _), shape in zip(kind.tensors, shapes)
        ])
        for node, kind, shapes in node_param_shapes(spec)
    ]


def model_size_bytes(spec: NetworkSpec, bits_per_weight: int = 8) -> int:
    """Serialized parameter payload in bytes.

    Weight tensors take bits_per_weight bits per element; biases always take
    32 bits.  8-bit storage adds a scale (f32) and zero point (i32) per
    quantized tensor.
    """
    if bits_per_weight not in (8, 32):
        raise ConfigError(f"storable precisions are 8 and 32 bits, got {bits_per_weight}")
    return _stored_bytes(_layout(spec, bits_per_weight))


def _stored_bytes(layout: list) -> int:
    """File bytes of a layout's tensors: f32 ones take 4 per element, 8-bit
    ones 1 per element plus their scale and zero point."""
    return sum(
        4 * math.prod(shape) if as_f32 else math.prod(shape) + 8
        for _, entries in layout
        for _, shape, as_f32 in entries
    )


@dataclass
class QuantizedWeights:
    """8-bit affine-quantized tensor: real = scale * (q - zero_point)."""

    values: np.ndarray
    scale: float
    zero_point: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.uint8)
        if not (0 <= self.zero_point <= 255):
            raise ConfigError(f"zero_point {self.zero_point} outside [0, 255]")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")


def _affine_grid(w: np.ndarray, levels: int) -> tuple:
    """Map w onto the integer grid [0, levels]; returns (q, scale, zero_point)."""
    w = np.asarray(w, dtype=np.float32)
    # Pull the range through zero so the affine map can represent 0.0
    # exactly and the round-trip error stays within scale / 2; a constant
    # tensor then still spans [min(v, 0), max(v, 0)] and lands on a grid
    # end exactly.  Only the all-zero tensor leaves no range at all.
    lo = min(float(w.min()), 0.0) if w.size else 0.0
    hi = max(float(w.max()), 0.0) if w.size else 0.0
    scale = 1.0 if hi == lo else (hi - lo) / levels
    zero_point = int(np.clip(np.round(-lo / scale), 0, levels))
    q = np.clip(np.round(w.astype(np.float64) / scale) + zero_point, 0, levels)
    return q, scale, zero_point


def quantize_tensor(w: np.ndarray) -> QuantizedWeights:
    """Asymmetric per-tensor 8-bit quantization over a zero-anchored range."""
    q, scale, zero_point = _affine_grid(w, 255)
    return QuantizedWeights(values=q.astype(np.uint8), scale=scale, zero_point=zero_point)


def dequantize_tensor(q: QuantizedWeights) -> np.ndarray:
    """scale * (q - zero_point) in float32, computed in one new array."""
    real = q.values.astype(np.float32)
    real -= np.float32(q.zero_point)
    real *= np.float32(q.scale)
    return real


def fake_quantize(w: np.ndarray, bits: int) -> np.ndarray:
    """Round-trip w through a bits-wide affine grid (analysis helper)."""
    if bits < 2 or bits > 16:
        raise ConfigError(f"fake_quantize supports 2..16 bits, got {bits}")
    q, scale, zero_point = _affine_grid(w, (1 << bits) - 1)
    return (np.float32(scale) * (q.astype(np.float32) - np.float32(zero_point))).astype(np.float32)


@dataclass
class ConstraintSet:
    """Feasibility envelope for design candidates: an ops ceiling and a score floor."""

    max_ops: Optional[int] = None
    min_score: Optional[float] = None


def check_constraints(total_ops: int, map_proxy: float, constraints: ConstraintSet) -> bool:
    """Feasibility indicator over a total op count and a detection-quality proxy."""
    if constraints.max_ops is not None and total_ops > constraints.max_ops:
        return False
    if constraints.min_score is not None and not (map_proxy >= constraints.min_score):
        return False
    return True


def _read_into(fh: BinaryIO, buf):
    """Fill buf (a bytearray or array) from the file, straight from its bytes."""
    view = memoryview(buf).cast("B")
    got = fh.readinto(view)
    if got != len(view):
        raise WeightFormatError(f"truncated weights file: wanted {len(view)} bytes, got {got}")
    return buf


def save_weights(path, spec: NetworkSpec, store: WeightStore, bits: int = 32):
    """Write a weights file: magic, u16 version, u8 precision, tensor data.

    Tensors appear in node order and, within a node, in the fixed sub-layer
    order of param_tensors().  In 8-bit files each weight tensor is prefixed
    by its f32 scale and i32 zero point; biases stay raw f32.
    """
    if bits not in (8, 32):
        raise ConfigError(f"storable precisions are 8 and 32 bits, got {bits}")
    store.validate_against(spec)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HB", FORMAT_VERSION, bits))
        for node, entries in _layout(spec, bits):
            for (_, _, as_f32), (_, arr) in zip(entries, param_tensors(store.params[node.id])):
                if as_f32:
                    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
                else:
                    q = quantize_tensor(arr)
                    fh.write(struct.pack("<fi", q.scale, q.zero_point))
                    fh.write(q.values.tobytes())


def load_weights(path, spec: NetworkSpec) -> tuple:
    """Read a weights file for spec; returns (WeightStore, bits).

    Each tensor is read from the file into its own float32 array; 8-bit
    payloads are dequantized on load, and execution always runs in 32-bit
    arithmetic.  A file is refused (WeightFormatError) unless every 8-bit
    scale is positive with its zero point in [0, 255], and every tensor it
    yields is finite, which also rules out infinite scales and scales whose
    255-fold overflows.
    """
    with open(path, "rb") as fh:
        bits = _read_header(fh)
        return WeightStore(list(_read_params(fh, spec, bits))), bits


def iter_weights(path, spec: NetworkSpec):
    """Yield each node's parameters from a weights file in node order, with
    every check of load_weights, without holding the whole store."""
    with open(path, "rb") as fh:
        yield from _read_params(fh, spec, _read_header(fh))


def _read_header(fh: BinaryIO) -> int:
    """Check magic and version; returns the precision in bits."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise WeightFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, bits = struct.unpack("<HB", _read_into(fh, bytearray(3)))
    if version != FORMAT_VERSION:
        raise WeightFormatError(f"unsupported format version {version}")
    if bits not in (8, 32):
        raise WeightFormatError(f"unsupported precision flag {bits}")
    return bits


def _read_params(fh: BinaryIO, spec: NetworkSpec, bits: int):
    """Yield each node's parameter object.  The rest of the file must be
    exactly as long as the layout needs, which is checked before any tensor
    is allocated, so a short file is refused without reading it."""
    layout = _layout(spec, bits)
    want = _stored_bytes(layout)
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < want:
        raise WeightFormatError(f"truncated weights file: tensors need {want} bytes, file has {have}")
    if have > want:
        raise WeightFormatError(f"{have - want} trailing bytes after final tensor")
    for node, entries in layout:
        tensors = []
        for name, shape, as_f32 in entries:
            where = f"node {node.id} ({node.kind}) tensor {name}"
            if as_f32:
                arr = _read_into(fh, np.empty(shape, dtype="<f4"))
            else:
                scale, zero_point = struct.unpack("<fi", _read_into(fh, bytearray(8)))
                values = _read_into(fh, np.empty(shape, dtype=np.uint8))
                try:
                    q = QuantizedWeights(values=values, scale=scale, zero_point=zero_point)
                except ConfigError as exc:
                    raise WeightFormatError(f"{where}: {exc}") from None
                # An infinite or huge scale gives inf/NaN here; refused below.
                with np.errstate(over="ignore", invalid="ignore"):
                    arr = dequantize_tensor(q)
            if not np.isfinite(arr).all():
                raise WeightFormatError(f"{where}: non-finite values")
            tensors.append(arr)
        yield _KINDS[type(node.op)].build(tensors)
