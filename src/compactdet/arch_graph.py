"""Network description graphs: a line-oriented config grammar, shape
inference, and an executor over the tensor_core kernels.

A network is a flat list of nodes in topological order.  Each node reads
the output of the previous node unless rebound with `from`, and node ids
are the implicit 0-based order of node-producing lines.  References only
point backwards, so the list is its own schedule.

Grammar (one statement per line, `#` starts a comment):

    input <channels> <height> <width>
    classes <count>
    anchors <scale_tag> <w,h> <w,h> ...
    conv <kernel> <out_channels> <stride>    # kernel k odd, padding k // 2
    pep <proj1_channels> <expansion_channels> <out_channels> <stride>
    ep <expansion_channels> <out_channels> <stride>
    fca <reduction_ratio>
    maxpool <kernel> <stride>
    upsample <factor>
    concat <node_id>
    from <node_id>
    detect <scale_tag>

`from` rebinds the input of the next node-producing line.  `detect` marks
its input as one of the prediction grids, tagged large/medium/small from
coarse to fine, which is grid order whatever the line order; a runnable
detection network has at least one.  `anchors` gives one set per detect
tag, all of one count, or none for DEFAULT_ANCHORS; `classes` defaults to
20.  Integer arguments are ASCII-decimal [0-9]+ tokens of at most MAX_INT.

Every node kind is one `_Kind` record in `_KINDS`, keyed by its op class:
grammar word, node-reference fields, explorer slot names, shape rule, cost
rule, parameter shapes, construction and forward step.  Parsing,
serialization, shape inference, weight stores and files, execution, cost
counting (`complexity`) and design-space expansion (`explorer`) all look
kinds up in that table instead of testing op classes.  The op dataclass's
fields are the grammar arguments, in order, and label them in parse
errors; the parameter dataclass's fields give its tensors' storage order
and names (`nn_modules.param_tensors`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Callable, Optional, Union

import numpy as np

from . import nn_modules
from .nn_modules import (
    EpConfig,
    FcaConfig,
    PepConfig,
    residual_active,
)
from .tensor_core import (
    ConfigError,
    ConvWeights,
    as_tensor,
    concat_channels,
    conv2d,
    conv_output_hw,
    leaky_relu,
    max_pool2d,
    upsample_nearest,
)

INPUT_ID = -1
# Largest integer a config or design-space document may hold.  Larger ones
# only reach float overflow in cost totals or allocations that cannot fit.
MAX_INT = 2**31 - 1
SCALE_TAGS = ("large", "medium", "small")

# Normalized prior box sizes (fractions of the input side), widest grid
# last.  Obtained by k-means under 1 - IoU distance on VOC-style ground
# truth boxes at 416x416; override per network with `anchors` lines.
DEFAULT_ANCHORS = {
    "large": ((0.279, 0.216), (0.375, 0.476), (0.897, 0.784)),
    "medium": ((0.072, 0.147), (0.149, 0.108), (0.142, 0.286)),
    "small": ((0.024, 0.031), (0.038, 0.072), (0.079, 0.055)),
}


class ParseError(ValueError):
    """A config document line could not be interpreted."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class NonFiniteOutputError(ValueError):
    """The network gave a non-finite value: finite weights can still
    overflow float32 on the way through it."""


class ShapeError(ValueError):
    """Shapes fail to chain through the graph."""

    def __init__(self, message: str, node_id: Optional[int] = None):
        self.node_id = node_id
        if node_id is not None:
            message = f"node {node_id}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    out_channels: int
    stride: int

    def __post_init__(self):
        if self.kernel % 2 != 1:
            raise ConfigError(f"conv kernel side must be odd, got {self.kernel}")


@dataclass(frozen=True)
class MaxPoolSpec:
    kernel: int
    stride: int


@dataclass(frozen=True)
class UpsampleSpec:
    factor: int


@dataclass(frozen=True)
class ConcatSpec:
    with_id: int


@dataclass(frozen=True)
class DetectSpec:
    scale_tag: str


NodeOp = Union[ConvSpec, PepConfig, EpConfig, FcaConfig, MaxPoolSpec, UpsampleSpec, ConcatSpec, DetectSpec]


@dataclass(frozen=True)
class NodeSpec:
    id: int
    op: NodeOp
    input_id: int

    @property
    def kind(self) -> str:
        return _KINDS[type(self.op)].word


@dataclass
class NetworkSpec:
    nodes: tuple
    input_shape: tuple  # (channels, height, width)
    num_classes: int
    anchors: dict  # scale tag -> (w, h) pairs

    @property
    def anchors_per_scale(self) -> int:
        """Every scale has the same count; _validate_references refuses specs that differ."""
        return len(next(iter(self.anchors.values())))

    def detect_nodes(self) -> list:
        """The detect nodes in grid order: SCALE_TAGS order, whatever their node order."""
        detects = (n for n in self.nodes if type(n.op) is DetectSpec)
        return sorted(detects, key=lambda n: SCALE_TAGS.index(n.op.scale_tag))

    def detect_channels(self) -> int:
        return self.anchors_per_scale * (5 + self.num_classes)


@dataclass(frozen=True)
class NodeCost:
    macs: int = 0
    ops: int = 0
    params: int = 0

    def __add__(self, other: "NodeCost") -> "NodeCost":
        return NodeCost(self.macs + other.macs, self.ops + other.ops, self.params + other.params)


# Per-kind rules.  Each one looks kernels and module functions up by global
# or module attribute when it runs, never at import, so a caller that rebinds
# those names (a tracer, a test double) reaches every node.

def _conv_shape(op, in_shape, shapes, spec) -> tuple:
    oh, ow = conv_output_hw(in_shape[1], in_shape[2], op.kernel, op.stride)
    return (op.out_channels, oh, ow)


def _block_shape(op, in_shape, shapes, spec) -> tuple:
    oh, ow = conv_output_hw(in_shape[1], in_shape[2], 3, op.stride)
    return (op.out_channels, oh, ow)


def _concat_shape(op, in_shape, shapes, spec) -> tuple:
    c, h, w = in_shape
    c2, h2, w2 = shapes[op.with_id]
    if (h, w) != (h2, w2):
        raise ConfigError(f"concat inputs {h}x{w} and {h2}x{w2} differ spatially")
    return (c + c2, h, w)


def _detect_shape(op, in_shape, shapes, spec) -> tuple:
    expected = spec.detect_channels()
    if in_shape[0] != expected:
        raise ConfigError(
            f"detect '{op.scale_tag}' input has {in_shape[0]} channels, needs "
            f"{spec.anchors_per_scale}*(5+{spec.num_classes}) = {expected}"
        )
    return in_shape


def _layer_cost(shapes, areas, activated) -> NodeCost:
    """Cost of layers given as (kernel, bias) shape pairs, one pair per
    layer: a layer's MACs are its kernel's size times the output positions
    (areas) it runs over, an activated layer adds one op per output, and
    params are the tensors' sizes."""
    macs = ops = params = 0
    for kernel, (c_out,), area, act in zip(shapes[::2], shapes[1::2], areas, activated):
        size = math.prod(kernel)
        macs += size * area
        ops += 2 * size * area + (c_out * area if act else 0)
        params += size + c_out
    return NodeCost(macs, ops, params)


def _block_cost(op, shapes, in_shape, out_shape, linear) -> NodeCost:
    """PEP and EP: the layers before the depthwise run at the input area, the
    depthwise and the linear projection at the output area, and the residual
    adds one op per output."""
    a_in, a_out = in_shape[1] * in_shape[2], out_shape[1] * out_shape[2]
    before = len(shapes) // 2 - 2
    cost = _layer_cost(shapes, (a_in,) * before + (a_out, a_out), (True,) * (before + 1) + (False,))
    return cost + NodeCost(0, op.out_channels * a_out if residual_active(op, in_shape[0]) else 0, 0)


def _fca_cost(op, shapes, in_shape, out_shape, linear) -> NodeCost:
    c, h, w = in_shape
    # Global average pool and sigmoid gate (c each), then the channel rescale.
    return _layer_cost(shapes, (1, 1), (True, False)) + NodeCost(0, 2 * c + c * h * w, 0)


def _per_output_cost(op, shapes, in_shape, out_shape, linear) -> NodeCost:
    return NodeCost(0, out_shape[0] * out_shape[1] * out_shape[2], 0)


def _conv_forward(op, x, params, outputs, linear):
    y = conv2d(x, params, op.stride)
    return y if linear else leaky_relu(y, out=y)


@dataclass(frozen=True)
class _Kind:
    """The rules of one node kind (see the module docstring)."""

    op: type  # the op dataclass; its fields are the grammar arguments in order, named in parse errors
    word: str  # grammar word, serialized form and NodeSpec.kind
    shape: Callable  # (op, in_shape, shapes by node id, spec) -> out_shape; ConfigError if they do not chain
    cost: Callable  # (op, shapes, in_shape, out_shape, linear) -> NodeCost: each layer's area, activation
    forward: Callable  # (op, x, params, outputs, linear) -> y; linear marks a head conv
    refs: tuple = ()  # fields naming earlier nodes, besides the input
    slots: dict = field(default_factory=dict)  # explorer slot spelling -> field
    param_shapes: Callable = lambda op, c_in: ()  # (op, in_channels) -> per layer, a kernel then its bias
    build: Callable = lambda tensors: None  # (tensors in param_shapes order) -> parameter object
    draws_biases: bool = False  # random init draws biases too (else zeros)


_KINDS = {
    kind.op: kind
    for kind in (
        _Kind(
            ConvSpec, "conv",
            shape=_conv_shape,
            cost=lambda op, shapes, i, o, linear: _layer_cost(shapes, (o[1] * o[2],), (not linear,)),
            forward=_conv_forward,
            slots={"out": "out_channels"},
            param_shapes=lambda op, c: ((op.out_channels, c, op.kernel, op.kernel), (op.out_channels,)),
            build=lambda t: ConvWeights(*t),
        ),
        _Kind(
            PepConfig, "pep",
            shape=_block_shape,
            cost=_block_cost,
            forward=lambda op, x, params, outputs, linear: nn_modules.pep_forward(x, op, params),
            slots={"proj1": "proj1_channels", "expansion": "expansion_channels", "out": "out_channels"},
            param_shapes=lambda op, c: nn_modules.pep_param_shapes(op, c),
            build=lambda tensors: nn_modules.build_block_params(tensors),
            draws_biases=True,
        ),
        _Kind(
            EpConfig, "ep",
            shape=_block_shape,
            cost=_block_cost,
            forward=lambda op, x, params, outputs, linear: nn_modules.ep_forward(x, op, params),
            slots={"expansion": "expansion_channels", "out": "out_channels"},
            param_shapes=lambda op, c: nn_modules.ep_param_shapes(op, c),
            build=lambda tensors: nn_modules.build_block_params(tensors),
            draws_biases=True,
        ),
        _Kind(
            FcaConfig, "fca",
            shape=lambda op, i, shapes, spec: i,
            cost=_fca_cost,
            forward=lambda op, x, params, outputs, linear: nn_modules.fca_forward(x, op, params),
            slots={"reduction": "reduction_ratio"},
            param_shapes=lambda op, c: nn_modules.fca_param_shapes(op, c),
            build=lambda tensors: nn_modules.FcaParams(*tensors),
        ),
        _Kind(
            MaxPoolSpec, "maxpool",
            shape=lambda op, i, shapes, spec: (i[0], -(-i[1] // op.stride), -(-i[2] // op.stride)),
            cost=_per_output_cost,
            forward=lambda op, x, params, outputs, linear: max_pool2d(x, op.kernel, op.stride),
        ),
        _Kind(
            UpsampleSpec, "upsample",
            shape=lambda op, i, shapes, spec: (i[0], i[1] * op.factor, i[2] * op.factor),
            cost=_per_output_cost,
            forward=lambda op, x, params, outputs, linear: upsample_nearest(x, op.factor),
        ),
        _Kind(
            ConcatSpec, "concat",
            shape=_concat_shape,
            cost=lambda op, shapes, i, o, linear: NodeCost(),
            forward=lambda op, x, params, outputs, linear: concat_channels(x, outputs[op.with_id]),
            refs=("with_id",),
        ),
        _Kind(
            DetectSpec, "detect",
            shape=_detect_shape,
            cost=lambda op, shapes, i, o, linear: NodeCost(),
            forward=lambda op, x, params, outputs, linear: x,
        ),
    )
}
_KINDS_BY_WORD = {kind.word: kind for kind in _KINDS.values()}


def _inputs(node: NodeSpec) -> list:
    """The ids whose outputs node reads: its input, then its refs fields."""
    ids = [node.input_id]
    for name in _KINDS[type(node.op)].refs:
        ids.append(getattr(node.op, name))
    return ids


def _validate_references(spec: NetworkSpec):
    if not spec.nodes:
        raise ParseError("no nodes")
    for node in spec.nodes:
        for ref in _inputs(node):
            if ref != INPUT_ID and not (0 <= ref < node.id):
                raise ParseError(
                    f"node {node.id} references node {ref}, which is not an earlier node"
                )
    tags = [n.op.scale_tag for n in spec.detect_nodes()]
    if len(tags) != len(set(tags)):
        raise ParseError(f"duplicate detect scale tags: {tags}")
    if not set(tags) <= set(spec.anchors):
        raise ParseError(f"anchors given for {sorted(spec.anchors)}, need one set per detect tag {tags}")
    if len({len(pairs) for pairs in spec.anchors.values()}) > 1:
        raise ParseError("anchor counts differ between scales")


def _decimal(token):
    """The value of an ASCII-decimal str or bytes token ([0-9]+: no sign,
    underscore, space or non-ASCII digit); ValueError otherwise."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected a decimal integer, got {token!r}")
    return int(token)


def _float(token: str) -> float:
    """float(token) for an ASCII token with no "_": Python's float() also
    reads digit-group underscores (1_0) and non-ASCII digits.  nan and inf
    still parse; callers refuse non-finite values."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return float(token)


def _int_field(token: str, what: str, line_no: int, minimum: int = 1) -> int:
    try:
        value = _decimal(token)
    except ValueError:
        raise ParseError(f"{what} must be a decimal integer, got {token!r}", line_no) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", line_no)
    if value > MAX_INT:
        raise ParseError(f"{what} must be <= {MAX_INT}", line_no)
    return value


def _scale_tag(token: str, line_no: int) -> str:
    if token not in SCALE_TAGS:
        raise ParseError(f"unknown scale tag {token!r}", line_no)
    return token


def parse_network_spec(text: str) -> NetworkSpec:
    input_shape = None
    num_classes = None
    anchors: dict = {}
    nodes: list[NodeSpec] = []
    pending_from: Optional[int] = None

    def node_ref(token: str, line_no: int) -> int:
        ref = _int_field(token, "node reference", line_no, minimum=0)
        if ref >= len(nodes):
            raise ParseError(
                f"reference to node {ref} before it is defined (have {len(nodes)} nodes)", line_no
            )
        return ref

    def node_arg(kind: _Kind, name: str, token: str, line_no: int):
        if name in kind.refs:
            return node_ref(token, line_no)
        if name == "scale_tag":
            return _scale_tag(token, line_no)
        return _int_field(token, name, line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word, args = tokens[0], tokens[1:]

        def need(count: int):
            if len(args) != count:
                raise ParseError(f"{word} takes {count} argument(s), got {len(args)}", line_no)

        try:
            if word == "input":
                need(3)
                if input_shape is not None:
                    raise ParseError("duplicate input line", line_no)
                if nodes:
                    raise ParseError("input line must precede node lines", line_no)
                input_shape = tuple(_int_field(a, "input dim", line_no) for a in args)
            elif word == "classes":
                need(1)
                if num_classes is not None:
                    raise ParseError("duplicate classes line", line_no)
                num_classes = _int_field(args[0], "class count", line_no)
            elif word == "anchors":
                if len(args) < 2:
                    raise ParseError("anchors needs a scale tag and at least one w,h pair", line_no)
                tag = _scale_tag(args[0], line_no)
                if tag in anchors:
                    raise ParseError(f"duplicate anchors for scale {tag!r}", line_no)
                pairs = []
                for token in args[1:]:
                    parts = token.split(",")
                    if len(parts) != 2:
                        raise ParseError(f"anchor {token!r} is not w,h", line_no)
                    try:
                        pair = (_float(parts[0]), _float(parts[1]))
                    except ValueError:
                        raise ParseError(f"anchor {token!r} is not numeric", line_no) from None
                    if not all(0 < v < math.inf for v in pair):
                        raise ParseError(
                            f"anchor dims must be positive and finite, got {token!r}", line_no
                        )
                    pairs.append(pair)
                anchors[tag] = tuple(pairs)
            elif word == "from":
                need(1)
                if pending_from is not None:
                    raise ParseError("two from lines in a row", line_no)
                pending_from = node_ref(args[0], line_no)
            elif word in _KINDS_BY_WORD:
                kind = _KINDS_BY_WORD[word]
                names = [f.name for f in fields(kind.op)]
                need(len(names))
                op = kind.op(*(node_arg(kind, name, token, line_no) for name, token in zip(names, args)))
                node_id = len(nodes)
                if pending_from is not None:
                    input_id, pending_from = pending_from, None
                else:
                    input_id = node_id - 1 if node_id else INPUT_ID
                nodes.append(NodeSpec(id=node_id, op=op, input_id=input_id))
            else:
                raise ParseError(f"unknown statement {word!r}", line_no)
        except ConfigError as exc:
            raise ParseError(str(exc), line_no) from None

    if input_shape is None:
        raise ParseError("missing input line")
    if pending_from is not None:
        raise ParseError("dangling from line with no following node")

    spec = NetworkSpec(
        nodes=tuple(nodes),
        input_shape=input_shape,
        num_classes=num_classes if num_classes is not None else 20,
        anchors=anchors or dict(DEFAULT_ANCHORS),
    )
    _validate_references(spec)
    return spec


def serialize_network_spec(spec: NetworkSpec) -> str:
    out = io.StringIO()
    c, h, w = spec.input_shape
    out.write(f"input {c} {h} {w}\n")
    out.write(f"classes {spec.num_classes}\n")
    for tag in SCALE_TAGS:
        if tag in spec.anchors:
            pairs = " ".join(f"{float(aw)!r},{float(ah)!r}" for aw, ah in spec.anchors[tag])
            out.write(f"anchors {tag} {pairs}\n")
    for node in spec.nodes:
        default_input = node.id - 1 if node.id else INPUT_ID
        if node.input_id != default_input:
            out.write(f"from {node.input_id}\n")
        values = " ".join(str(getattr(node.op, f.name)) for f in fields(node.op))
        out.write(f"{node.kind} {values}\n")
    return out.getvalue()


class ShapeTable(dict):
    """Output shapes as (channels, height, width) tuples keyed by node id,
    the input's under INPUT_ID."""

    of = dict.__getitem__


def _node_shape(node: NodeSpec, shapes: dict, spec: NetworkSpec) -> tuple:
    """node's output shape by its kind's rule, given the shapes of the nodes
    it reads by id; ShapeError naming node if they do not chain."""
    try:
        return _KINDS[type(node.op)].shape(node.op, shapes[node.input_id], shapes, spec)
    except ConfigError as exc:
        raise ShapeError(str(exc), node.id) from None


def infer_shapes(spec: NetworkSpec) -> ShapeTable:
    _validate_references(spec)
    shapes = ShapeTable({INPUT_ID: tuple(spec.input_shape)})
    for node in spec.nodes:
        shapes[node.id] = _node_shape(node, shapes, spec)
    return shapes


def linear_conv_ids(spec: NetworkSpec) -> frozenset:
    """Conv nodes that feed a detect node emit raw logits (no activation)."""
    return frozenset(
        n.input_id
        for n in spec.detect_nodes()
        if n.input_id != INPUT_ID and type(spec.nodes[n.input_id].op) is ConvSpec
    )


def node_param_shapes(spec: NetworkSpec):
    """Yield (node, kind record, parameter shapes in storage order) for each
    node of spec; the one walk behind store checks and weights files."""
    table = infer_shapes(spec)
    for node in spec.nodes:
        kind = _KINDS[type(node.op)]
        yield node, kind, kind.param_shapes(node.op, table.of(node.input_id)[0])


def init_params(op: NodeOp, in_channels: int, rng=None):
    """One node's parameters: its kind's shapes drawn (zeros without an rng,
    He-scaled gaussians with one, biases too where the kind draws them),
    then built."""
    kind = _KINDS[type(op)]
    return kind.build(nn_modules.draw_tensors(kind.param_shapes(op, in_channels), rng, kind.draws_biases))


class WeightStore:
    """Per-node parameters aligned with the node list of one NetworkSpec.

    `params` gives each node's parameter object in node order, on every
    iteration.  It is a list, or, for a store that complexity.load_weights
    opened, a re-iterable that reads each node's tensors from the file when
    iteration reaches that node.  Such a store also gives `shapes`, each
    node's tensor shapes in storage order, so that validate_against reads
    no tensor; a store built without them holds its params as a list.
    """

    def __init__(self, params, shapes: Optional[list] = None):
        self.params = list(params) if shapes is None else params
        self.shapes = shapes

    @classmethod
    def zeros(cls, spec: NetworkSpec) -> "WeightStore":
        return cls._init(spec, rng=None)

    @classmethod
    def random(cls, spec: NetworkSpec, seed: int = 0) -> "WeightStore":
        return cls._init(spec, rng=np.random.default_rng(seed))

    @classmethod
    def _init(cls, spec: NetworkSpec, rng) -> "WeightStore":
        table = infer_shapes(spec)
        return cls([init_params(node.op, table.of(node.input_id)[0], rng) for node in spec.nodes])

    def validate_against(self, spec: NetworkSpec):
        have = self.shapes or [tuple(arr.shape for _, arr in nn_modules.param_tensors(p)) for p in self.params]
        if len(have) != len(spec.nodes):
            raise ConfigError(f"weight store has {len(have)} entries for {len(spec.nodes)} nodes")
        for (node, _, want), shapes in zip(node_param_shapes(spec), have):
            if shapes != want:
                raise ConfigError(
                    f"node {node.id} ({node.kind}): tensor shapes {shapes} do not match expected shapes {want}"
                )


def execute(spec: NetworkSpec, weights: WeightStore, x: np.ndarray) -> tuple:
    """Run a detection network; returns one grid per detect node, in
    detect_nodes() order, C-contiguous in NCHW order (the kernels work
    channels-last, and a float32 reduction over a grid, such as its std,
    sums in memory order).  A network with no detect node is a ConfigError.

    Raises NonFiniteOutputError naming the first node whose float32
    arithmetic overflows, divides by zero or gives an invalid value.  A
    store opened from a file reads each node's tensors as that node is
    reached, and raises complexity.WeightFormatError for a bad one then.
    """
    x = as_tensor(x)
    if tuple(x.shape[1:]) != tuple(spec.input_shape):
        raise ConfigError(
            f"input shape {tuple(x.shape[1:])} does not match spec {tuple(spec.input_shape)}"
        )
    grid_ids = [n.id for n in spec.detect_nodes()]
    if not grid_ids:
        raise ConfigError("a runnable detection network needs a detect node, and this one has none")
    weights.validate_against(spec)

    raw_heads = linear_conv_ids(spec)
    outputs: dict[int, np.ndarray] = {INPUT_ID: x}
    # Each output is freed once its last reader has run (at once if nothing
    # reads it), except the detect outputs, which are the grids.
    last_read = {ref: node.id for node in spec.nodes for ref in _inputs(node)}

    def fail(err: str, _flag: int):
        raise NonFiniteOutputError(f"node {node.id} ({node.kind}): float32 {err}")

    # Stop at the first node whose float32 arithmetic overflows or turns
    # invalid, instead of warning and carrying inf/NaN on to the grids.
    with np.errstate(over="call", invalid="call", divide="call", call=fail):
        stream = iter(weights.params)
        params = next(stream)
        for node in spec.nodes:
            outputs[node.id] = _KINDS[type(node.op)].forward(
                node.op, outputs[node.input_id], params, outputs, node.id in raw_heads
            )
            # A loaded store reads the next node's tensors here: after this
            # node's are dropped, so one node's are held at a time, and
            # before the outputs that die here are freed, so the tensors do
            # not split the holes those leave for the next activations.
            params = None
            params = next(stream, None)
            for done in {node.id, *_inputs(node)}:
                if last_read.get(done, node.id) == node.id and done not in grid_ids:
                    del outputs[done]
    return tuple(np.ascontiguousarray(outputs[i]) for i in grid_ids)


def load_bundled_config(name: str) -> "NetworkSpec":
    """Parse a config shipped with the package, e.g. ``reference``."""
    if not name.endswith(".cfg"):
        name += ".cfg"
    text = resources.files("compactdet.configs").joinpath(name).read_text()
    return parse_network_spec(text)
