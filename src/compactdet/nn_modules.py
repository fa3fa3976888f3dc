"""Building blocks: residual projection-expansion-projection (PEP),
expansion-projection (EP), and channel attention (FCA).

A PEP block projects the input down to a narrow channel count, expands,
runs a 3x3 depthwise convolution, and projects back out.  EP skips the
first projection.  Both add the input back when the stride is 1 and the
channel count is preserved.  Activations (leaky ReLU) follow every layer
except the final projection, which stays linear.  PEP and EP share one
forward body and one parameter record, BlockParams, whose project_in is
None for EP.

FCA squeezes the feature map with a global average pool, runs it through a
two-layer bottleneck, and rescales each channel by a sigmoid gate.

Forward functions compose the kernels in tensor_core directly, so a module
output is bit-identical to applying the individual kernels by hand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Union

import numpy as np

from .tensor_core import (
    DTYPE,
    ConfigError,
    ConvWeights,
    add,
    channel_scale,
    conv2d,
    dense,
    depthwise_conv2d,
    global_avg_pool,
    leaky_relu,
    sigmoid,
)


def _check_positive(name: str, value: int):
    if value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value}")


def _check_stride(stride: int):
    if stride not in (1, 2):
        raise ConfigError(f"block stride must be 1 or 2, got {stride}")


@dataclass(frozen=True)
class PepConfig:
    proj1_channels: int
    expansion_channels: int
    out_channels: int
    stride: int = 1

    def __post_init__(self):
        _check_positive("proj1_channels", self.proj1_channels)
        _check_positive("expansion_channels", self.expansion_channels)
        _check_positive("out_channels", self.out_channels)
        _check_stride(self.stride)
        if self.proj1_channels > self.expansion_channels:
            raise ConfigError(
                f"proj1_channels {self.proj1_channels} exceeds "
                f"expansion_channels {self.expansion_channels}"
            )


@dataclass(frozen=True)
class EpConfig:
    expansion_channels: int
    out_channels: int
    stride: int = 1

    def __post_init__(self):
        _check_positive("expansion_channels", self.expansion_channels)
        _check_positive("out_channels", self.out_channels)
        _check_stride(self.stride)


@dataclass(frozen=True)
class FcaConfig:
    reduction_ratio: int

    def __post_init__(self):
        _check_positive("reduction_ratio", self.reduction_ratio)


def fca_bottleneck_width(channels: int, reduction_ratio: int) -> int:
    return max(1, channels // reduction_ratio)


def residual_active(cfg: Union[PepConfig, EpConfig], in_channels: int) -> bool:
    return cfg.stride == 1 and cfg.out_channels == in_channels


@dataclass
class BlockParams:
    """A PEP or EP block's layers, in storage order; EP has no project_in."""

    project_in: Optional[ConvWeights]
    expand: ConvWeights
    depthwise: ConvWeights
    project: ConvWeights


@dataclass
class FcaParams:
    reduce_weight: np.ndarray
    reduce_bias: np.ndarray
    restore_weight: np.ndarray
    restore_bias: np.ndarray


def draw_tensors(shapes, rng, biases: bool = True) -> list:
    """One float32 tensor per shape, in order; all zeros without an rng.

    With one, He-style fan-in scaling keeps activations in a sane range at
    any width: a weight is standard_normal(shape) * sqrt(2 / prod(shape[1:])).
    1-D shapes are biases, drawn with fan-in equal to their length when
    `biases` is set and left at zero (drawing nothing) otherwise.
    """
    out = []
    for shape in shapes:
        if rng is None or (len(shape) == 1 and not biases):
            out.append(np.zeros(shape, dtype=DTYPE))
        else:
            fan_in = math.prod(shape[1:]) if len(shape) > 1 else shape[0]
            out.append((rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(DTYPE))
    return out


def ep_param_shapes(cfg: Union[PepConfig, EpConfig], in_channels: int) -> tuple:
    """Expand, depthwise and project kernels, each followed by its bias."""
    e, out = cfg.expansion_channels, cfg.out_channels
    return ((e, in_channels, 1, 1), (e,), (e, 1, 3, 3), (e,), (out, e, 1, 1), (out,))


def pep_param_shapes(cfg: PepConfig, in_channels: int) -> tuple:
    """The first projection's kernel and bias, then the EP tail's tensors."""
    p = cfg.proj1_channels
    return ((p, in_channels, 1, 1), (p,)) + ep_param_shapes(cfg, p)


def fca_param_shapes(cfg: FcaConfig, channels: int) -> tuple:
    width = fca_bottleneck_width(channels, cfg.reduction_ratio)
    return ((width, channels), (width,), (channels, width), (channels,))


def build_block_params(tensors) -> BlockParams:
    """Wrap tensors in pep_param_shapes or ep_param_shapes order."""
    *head, ek, eb, dk, db, pk, pb = tensors
    return BlockParams(
        ConvWeights(*head) if head else None,
        ConvWeights(ek, eb),
        ConvWeights(dk, db, groups=len(dk)),
        ConvWeights(pk, pb),
    )


@functools.cache
def _field_names(cls) -> tuple:
    """A dataclass's field names in order; () for any other type.  Cached
    per class, because fields() dominated the cost of a parameter walk."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()


def _add_tensors(tensors: list, prefix: str, obj):
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, np.ndarray):
            tensors.append((prefix + name, value))
        else:
            _add_tensors(tensors, f"{prefix}{name}.", value)


def param_tensors(params) -> list:
    """(name, array) of every tensor of a parameter object, in field order,
    which is storage order.  A nested layer's tensors get dotted names
    (project_in.kernel), non-array fields (a conv's groups) are skipped, and
    None, the parameters of a weightless node, gives []."""
    tensors = []
    _add_tensors(tensors, "", params)
    return tensors


def _check_params(params, want: tuple, label: str):
    """The blocks' parameter shape check: the tensors of params have the
    shapes want gives, in order.  label names the block in the error."""
    have = tuple(arr.shape for _, arr in param_tensors(params))
    if have != want:
        raise ConfigError(
            f"{label}: {type(params).__name__} shapes {have} do not match expected shapes {want}"
        )


def _block_forward(x: np.ndarray, cfg, params: BlockParams) -> np.ndarray:
    """The body PEP and EP share: PEP's first projection (EP has none),
    expand 1x1, 3x3 depthwise, linear 1x1 projection, then the residual
    from the block input x when it applies.  Each kernel output is held by
    nothing else, so it is activated, and the residual added, where it
    lies; each rebinding of y frees the layer before."""
    y = x
    if params.project_in is not None:
        y = conv2d(y, params.project_in)
        y = leaky_relu(y, out=y)
    y = conv2d(y, params.expand)
    y = leaky_relu(y, out=y)
    y = depthwise_conv2d(y, params.depthwise, cfg.stride)
    y = leaky_relu(y, out=y)
    y = conv2d(y, params.project)
    if residual_active(cfg, x.shape[1]):
        y = add(y, x, out=y)
    return y


def pep_forward(x: np.ndarray, cfg: PepConfig, params: BlockParams) -> np.ndarray:
    _check_params(params, pep_param_shapes(cfg, x.shape[1]), f"{cfg} over {x.shape[1]} input channels")
    return _block_forward(x, cfg, params)


def ep_forward(x: np.ndarray, cfg: EpConfig, params: BlockParams) -> np.ndarray:
    _check_params(params, ep_param_shapes(cfg, x.shape[1]), f"{cfg} over {x.shape[1]} input channels")
    return _block_forward(x, cfg, params)


def fca_forward(x: np.ndarray, cfg: FcaConfig, params: FcaParams) -> np.ndarray:
    channels = x.shape[1]
    _check_params(params, fca_param_shapes(cfg, channels), f"{cfg} over {channels} input channels")
    pooled = global_avg_pool(x)
    gates = np.empty((x.shape[0], channels), dtype=DTYPE)
    for n in range(x.shape[0]):
        squeezed = leaky_relu(dense(pooled[n, :, 0, 0], params.reduce_weight, params.reduce_bias))
        gates[n] = sigmoid(dense(squeezed, params.restore_weight, params.restore_bias))
    return channel_scale(x, gates)
