"""Building blocks: residual projection-expansion-projection (PEP),
expansion-projection (EP), and channel attention (FCA).

A PEP block projects the input down to a narrow channel count, expands,
runs a 3x3 depthwise convolution, and projects back out.  EP skips the
first projection.  Both add the input back when the stride is 1 and the
channel count is preserved.  Activations (leaky ReLU) follow every layer
except the final projection, which stays linear.

FCA squeezes the feature map with a global average pool, runs it through a
two-layer bottleneck, and rescales each channel by a sigmoid gate.

Forward functions compose the kernels in tensor_core directly, so a module
output is bit-identical to applying the individual kernels by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Union

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
class PepParams:
    project_in: ConvWeights
    expand: ConvWeights
    depthwise: ConvWeights
    project_out: ConvWeights


@dataclass
class EpParams:
    expand: ConvWeights
    depthwise: ConvWeights
    project: ConvWeights


@dataclass
class FcaParams:
    reduce_weight: np.ndarray
    reduce_bias: np.ndarray
    restore_weight: np.ndarray
    restore_bias: np.ndarray

    def __post_init__(self):
        self.reduce_weight = np.asarray(self.reduce_weight, dtype=DTYPE)
        self.reduce_bias = np.asarray(self.reduce_bias, dtype=DTYPE)
        self.restore_weight = np.asarray(self.restore_weight, dtype=DTYPE)
        self.restore_bias = np.asarray(self.restore_bias, dtype=DTYPE)


ModuleParams = Union[PepParams, EpParams, FcaParams, ConvWeights]


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


def build_pep_params(tensors) -> PepParams:
    """Wrap tensors in pep_param_shapes order."""
    pk, pb, ek, eb, dk, db, ok, ob = tensors
    return PepParams(
        ConvWeights(pk, pb), ConvWeights(ek, eb), ConvWeights(dk, db, groups=len(dk)), ConvWeights(ok, ob)
    )


def build_ep_params(tensors) -> EpParams:
    """Wrap tensors in ep_param_shapes order."""
    ek, eb, dk, db, pk, pb = tensors
    return EpParams(ConvWeights(ek, eb), ConvWeights(dk, db, groups=len(dk)), ConvWeights(pk, pb))


def init_pep_params(cfg: PepConfig, in_channels: int, rng=None) -> PepParams:
    """Zero parameters by default, He-scaled gaussians when an rng is given."""
    return build_pep_params(draw_tensors(pep_param_shapes(cfg, in_channels), rng))


def init_ep_params(cfg: EpConfig, in_channels: int, rng=None) -> EpParams:
    return build_ep_params(draw_tensors(ep_param_shapes(cfg, in_channels), rng))


def init_fca_params(cfg: FcaConfig, channels: int, rng=None) -> FcaParams:
    return FcaParams(*draw_tensors(fca_param_shapes(cfg, channels), rng, biases=False))


def _array_shapes(params) -> tuple:
    """Shapes of the arrays in a parameter object, in field order; a conv
    layer gives its kernel's, then its bias's."""
    if is_dataclass(params):
        return tuple(s for f in fields(params) for s in _array_shapes(getattr(params, f.name)))
    return (params.shape,) if isinstance(params, np.ndarray) else ()


def _check_params(params, param_shapes, cfg, channels: int):
    """The one parameter check of each block: every tensor has the shape
    param_shapes(cfg, channels) gives it."""
    want = param_shapes(cfg, channels)
    have = _array_shapes(params)
    if have != want:
        raise ConfigError(
            f"{type(params).__name__} shapes {have} do not match {want} for {cfg} "
            f"over {channels} input channels"
        )


def _expand_project(y: np.ndarray, x: np.ndarray, cfg, expand, depthwise, project) -> np.ndarray:
    """The tail PEP and EP share: expand 1x1, 3x3 depthwise, linear 1x1
    projection, then the residual from the block input x when it applies."""
    y = leaky_relu(conv2d(y, expand))
    y = leaky_relu(depthwise_conv2d(y, depthwise, cfg.stride))
    y = conv2d(y, project)
    if residual_active(cfg, x.shape[1]):
        y = add(y, x)
    return y


def pep_forward(x: np.ndarray, cfg: PepConfig, params: PepParams) -> np.ndarray:
    _check_params(params, pep_param_shapes, cfg, x.shape[1])
    # No local name for the projection, so the tail frees it after the
    # expand; a name here would hold it through the whole tail.
    return _expand_project(
        leaky_relu(conv2d(x, params.project_in)), x, cfg, params.expand, params.depthwise, params.project_out
    )


def ep_forward(x: np.ndarray, cfg: EpConfig, params: EpParams) -> np.ndarray:
    _check_params(params, ep_param_shapes, cfg, x.shape[1])
    return _expand_project(x, x, cfg, params.expand, params.depthwise, params.project)


def fca_forward(x: np.ndarray, cfg: FcaConfig, params: FcaParams) -> np.ndarray:
    channels = x.shape[1]
    _check_params(params, fca_param_shapes, cfg, channels)
    pooled = global_avg_pool(x)
    gates = np.empty((x.shape[0], channels), dtype=DTYPE)
    for n in range(x.shape[0]):
        squeezed = leaky_relu(dense(pooled[n, :, 0, 0], params.reduce_weight, params.reduce_bias))
        gates[n] = sigmoid(dense(squeezed, params.restore_weight, params.restore_bias))
    return channel_scale(x, gates)
