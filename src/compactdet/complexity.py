"""Cost accounting, weight quantization, and the binary weights file.

Counting conventions (batch size 1 throughout):

* A layer's multiply-accumulates (MACs) are its kernel's size times its
  output positions; its op count is 2*MACs.
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
from dataclasses import dataclass
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
)
from .nn_modules import param_tensors
from .tensor_core import ConfigError

MAGIC = b"YNWF"
FORMAT_VERSION = 1


class WeightFormatError(ValueError):
    """A weights file is malformed or does not match its network spec."""


def count_node(node: NodeSpec, in_shape: tuple, out_shape: tuple, linear: bool = False) -> NodeCost:
    """Cost of one node given its input/output (c, h, w) shapes.

    `linear` marks conv nodes that emit raw logits and skip the activation.
    The rule for each kind is the cost entry of its arch_graph record, which
    reads the kind's parameter shapes.
    """
    kind = _KINDS[type(node.op)]
    return kind.cost(node.op, kind.param_shapes(node.op, in_shape[0]), in_shape, out_shape, linear)


@dataclass
class OpsReport:
    rows: list  # (node_id, kind, NodeCost)
    total: NodeCost  # the rows' sum

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
    """Per-node costs of spec, after infer_shapes checks its references and
    chains its shapes.  This is the one general rule: `describe`, `bench`
    and the explorer's check of its best point call it, and the explorer's
    per-point walk must give its totals."""
    table = infer_shapes(spec)
    raw_heads = linear_conv_ids(spec)
    rows = []
    for node in spec.nodes:
        cost = count_node(node, table.of(node.input_id), table.of(node.id), linear=node.id in raw_heads)
        rows.append((node.id, node.kind, cost))
    return OpsReport(rows, sum((cost for _, _, cost in rows), NodeCost()))


def _layout(spec: NetworkSpec, bits: int) -> list:
    """The weights-file layout of spec: per node, (node, entries), where each
    entry is (shape, stored as f32) in storage order.

    Shapes come from each kind's parameter shapes; nothing is allocated.
    Biases (the 1-D tensors) always stay f32; other tensors take `bits` bits
    per element.
    """
    return [
        (node, [(shape, bits == 32 or len(shape) == 1) for shape in shapes])
        for node, _, shapes in node_param_shapes(spec)
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
        for shape, as_f32 in entries
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
    by its f32 scale and i32 zero point; biases stay raw f32.  A store
    that load_weights opened on path itself is refused (ConfigError): path
    is truncated before its tensors would be read.
    """
    if bits not in (8, 32):
        raise ConfigError(f"storable precisions are 8 and 32 bits, got {bits}")
    store.validate_against(spec)
    source = store.params
    if isinstance(source, _FileParams) and os.path.exists(path) and os.path.samefile(source.path, path):
        raise ConfigError(f"{path} is the file this store reads: read it whole first, WeightStore(store.params)")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HB", FORMAT_VERSION, bits))
        for (_, entries), params in zip(_layout(spec, bits), store.params, strict=True):
            for (_, as_f32), (_, arr) in zip(entries, param_tensors(params)):
                if as_f32:
                    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
                else:
                    q = quantize_tensor(arr)
                    fh.write(struct.pack("<fi", q.scale, q.zero_point))
                    fh.write(q.values.tobytes())


def load_weights(path, spec: NetworkSpec) -> tuple:
    """Open a weights file for spec; returns (WeightStore, bits).

    The header and the file's exact length are checked here, so a file of
    another format, version, precision or network is refused before any
    tensor is read or allocated.  The tensors stay in the file: each pass
    over the store's params reads them node by node, when the pass reaches
    that node, each into its own float32 array; 8-bit payloads are
    dequantized then, and execution always runs in 32-bit arithmetic.  The
    store holds no node's tensors once the pass has moved on, so a forward
    pass holds one node's parameters at a time.  A node is refused when it
    is read (WeightFormatError) unless every 8-bit scale is positive with
    its zero point in [0, 255], and every tensor it yields is finite, which
    also rules out infinite scales and scales whose 255-fold overflows.
    """
    with open(path, "rb") as fh:
        bits = _read_header(fh)
        layout = _layout(spec, bits)
        _check_length(fh, layout)
        stamp = _stamp(fh)
    shapes = [tuple(shape for shape, _ in entries) for _, entries in layout]
    return WeightStore(_FileParams(os.path.abspath(path), bits, layout, stamp), shapes), bits


def _stamp(fh: BinaryIO) -> tuple:
    """The open file's device, inode, size and modification time."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _FileParams:
    """The node parameters of a weights file that load_weights checked,
    read from the file node by node on each iteration."""

    def __init__(self, path: str, bits: int, layout: list, stamp: tuple):
        self.path = path
        self.bits = bits
        self.layout = layout
        self.stamp = stamp

    def __iter__(self):
        # The file is checked again, so one rewritten since it was loaded is
        # refused rather than misread: its device, inode, size and mtime (as
        # fine as the file system's clock) must be those load_weights saw.
        with open(self.path, "rb") as fh:
            if _read_header(fh) != self.bits:
                raise WeightFormatError(f"{self.path} is no longer a {self.bits}-bit weights file")
            if _stamp(fh) != self.stamp:
                raise WeightFormatError(f"{self.path} changed since it was opened")
            for node, entries in self.layout:
                yield _read_node(fh, node, entries)


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


def _check_length(fh: BinaryIO, layout: list):
    """The rest of the file must be exactly as long as the layout needs, so
    a short file is refused from its size, without reading it."""
    want = _stored_bytes(layout)
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < want:
        raise WeightFormatError(f"truncated weights file: tensors need {want} bytes, file has {have}")
    if have > want:
        raise WeightFormatError(f"{have - want} trailing bytes after final tensor")


def _read_node(fh: BinaryIO, node: NodeSpec, entries: list):
    """Read one node's tensors, laid out as entries, and build its parameter
    object; WeightFormatError naming the node and tensor for a bad scale or
    zero point or a non-finite value."""
    tensors = []
    for position, (shape, as_f32) in enumerate(entries):
        if as_f32:
            arr = _read_into(fh, np.empty(shape, dtype="<f4"))
        else:
            scale, zero_point = struct.unpack("<fi", _read_into(fh, bytearray(8)))
            values = _read_into(fh, np.empty(shape, dtype=np.uint8))
            try:
                q = QuantizedWeights(values=values, scale=scale, zero_point=zero_point)
            except ConfigError as exc:
                raise WeightFormatError(f"node {node.id} ({node.kind}) tensor {position}: {exc}") from None
            # An infinite or huge scale gives inf/NaN here; refused below.
            with np.errstate(over="ignore", invalid="ignore"):
                arr = dequantize_tensor(q)
        tensors.append(arr)
    params = _KINDS[type(node.op)].build(tensors)
    for name, arr in param_tensors(params):
        # min and max carry NaN and the infinities through, and unlike
        # isfinite they allocate no mask the size of the tensor: a mask made
        # between two nodes' activations fragments the heap and raises the
        # process's peak RSS.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise WeightFormatError(f"node {node.id} ({node.kind}) tensor {name}: non-finite values")
    return params
