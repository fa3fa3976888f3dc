"""Dense tensor kernels for small-network inference on the CPU.

All feature maps are float32 numpy arrays in NCHW layout (batch, channels,
height, width), C-contiguous.  Every kernel here is pure: inputs are never
mutated, outputs are freshly allocated, and repeated calls on identical
inputs produce bit-identical results.  Inference arithmetic stays in 32-bit
floats; reduced-precision weight storage is a serialization concern handled
elsewhere and never leaks into these routines.

A convolution's stride is an argument of each call: where a layer strides
belongs to the network, not to its weights.  Every convolution pads k // 2
zeros on each side, which is "same" padding for the odd k ConvWeights allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

# Negative-side slope shared by every activated layer in this codebase.
LEAKY_SLOPE = 0.1


class ConfigError(ValueError):
    """A tensor, weight, or module configuration is inconsistent."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a 4-D float32 NCHW array, validating rank and dtype."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 4:
        raise ConfigError(f"expected 4-D NCHW tensor, got {arr.ndim}-D shape {arr.shape}")
    return np.ascontiguousarray(arr)


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    """Spatial dims of a convolution output: floor((d + 2p - k) / s) + 1."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ConfigError(
            f"kernel {kernel} stride {stride} padding {padding} does not fit {h}x{w} input"
        )
    return out_h, out_w


@dataclass
class ConvWeights:
    """Convolution parameters: kernel (c_out, c_in // groups, k, k) with an
    odd side k, and bias (c_out,).  Geometry is not a weight: the caller
    passes the stride, and the kernels always zero-pad k // 2 ("same")."""

    kernel: np.ndarray
    bias: np.ndarray
    groups: int = 1

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=DTYPE)
        self.bias = np.asarray(self.bias, dtype=DTYPE)
        if self.kernel.ndim != 4 or self.kernel.shape[2] != self.kernel.shape[3]:
            raise ConfigError(f"kernel must be (c_out, c_in/groups, k, k), got {self.kernel.shape}")
        if self.kernel.shape[2] % 2 != 1:
            raise ConfigError(f"kernel side must be odd, got {self.kernel.shape[2]}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ConfigError(f"bias shape {self.bias.shape} does not match c_out {self.kernel.shape[0]}")
        if self.groups < 1 or self.kernel.shape[0] % self.groups != 0:
            raise ConfigError(f"c_out {self.kernel.shape[0]} not divisible by groups {self.groups}")

    @property
    def c_out(self) -> int:
        return self.kernel.shape[0]

    @property
    def k(self) -> int:
        return self.kernel.shape[2]


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _im2col(x: np.ndarray, k: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Patch matrix of shape (n, c * k * k, out_h * out_w).

    Column ordering is channel-major, then kernel row, then kernel column,
    so a plain matmul against kernel.reshape(c_out, -1) accumulates in that
    fixed order.
    """
    n, c, _, _ = x.shape
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return windows.reshape(n, c * k * k, out_h * out_w)


def conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Dense (groups 1) 2-D cross-correlation with "same" zero padding plus
    bias; other groupings raise ConfigError (per-channel ones:
    depthwise_conv2d)."""
    x = as_tensor(x)
    n, c_in, h, width = x.shape
    if w.groups != 1:
        raise ConfigError(
            f"conv2d computes dense (groups 1) convolutions only, got groups {w.groups}; "
            f"per-channel weights go to depthwise_conv2d"
        )
    if w.kernel.shape[1] != c_in:
        raise ConfigError(f"kernel expects {w.kernel.shape[1]} input channels, input has {c_in}")
    out_h, out_w = conv_output_hw(h, width, w.k, stride, w.k // 2)
    cols = _im2col(_pad_input(x, w.k // 2), w.k, stride, out_h, out_w)
    out = np.matmul(w.kernel.reshape(w.c_out, -1), cols).reshape(n, w.c_out, out_h, out_w)
    out += w.bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out)


def depthwise_conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Per-channel 2-D cross-correlation with "same" zero padding plus bias;
    groups and c_out must both equal the input channel count."""
    x = as_tensor(x)
    n, c, h, width = x.shape
    if w.groups != c:
        raise ConfigError(f"depthwise conv needs groups == c_in == {c}, got groups {w.groups}")
    if w.kernel.shape[1] != 1 or w.c_out != c:
        raise ConfigError(f"depthwise kernel must be (c_in, 1, k, k), got {w.kernel.shape}")
    out_h, out_w = conv_output_hw(h, width, w.k, stride, w.k // 2)
    xp = _pad_input(x, w.k // 2)
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, w.k, w.k),
        strides=(sn, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )
    out = np.einsum("nchwuv,cuv->nchw", windows, w.kernel[:, 0], dtype=DTYPE, casting="same_kind")
    out += w.bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=DTYPE)
    return np.where(x >= 0, x, DTYPE(LEAKY_SLOPE) * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=DTYPE)
    # Split by sign so exp never overflows; both branches are exact sigmoids.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c, 1, 1) spatial mean."""
    x = as_tensor(x)
    return x.mean(axis=(2, 3), keepdims=True, dtype=DTYPE)


def dense(v: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully connected layer on a 1-D vector: weight @ v + bias."""
    v = np.asarray(v, dtype=DTYPE)
    weight = np.asarray(weight, dtype=DTYPE)
    bias = np.asarray(bias, dtype=DTYPE)
    if v.ndim != 1 or weight.ndim != 2 or weight.shape[1] != v.shape[0]:
        raise ConfigError(f"dense shapes do not chain: v {v.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ConfigError(f"dense bias shape {bias.shape} does not match {weight.shape[0]} outputs")
    return weight @ v + bias


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour spatial upsampling by an integer factor."""
    x = as_tensor(x)
    if factor < 1:
        raise ConfigError(f"upsample factor must be >= 1, got {factor}")
    return np.ascontiguousarray(np.repeat(np.repeat(x, factor, axis=2), factor, axis=3))


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ConfigError(f"concat needs matching batch and spatial dims, got {a.shape} vs {b.shape}")
    return np.ascontiguousarray(np.concatenate([a, b], axis=1))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ConfigError(f"elementwise add needs equal shapes, got {a.shape} vs {b.shape}")
    return a + b


def channel_scale(x: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Multiply each channel by a per-(batch, channel) scalar.

    scales may be (c,), (n, c) or (n, c, 1, 1); it is broadcast over space.
    """
    x = as_tensor(x)
    s = np.asarray(scales, dtype=DTYPE)
    if s.ndim == 1:
        s = s.reshape(1, -1, 1, 1)
    elif s.ndim == 2:
        s = s.reshape(s.shape[0], s.shape[1], 1, 1)
    if s.shape[1] != x.shape[1]:
        raise ConfigError(f"scale channels {s.shape[1]} do not match tensor channels {x.shape[1]}")
    return x * s


def max_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max pooling with size-preserving edge padding, output ceil(d / stride).

    Windows hanging over the right/bottom edge are padded with -inf so the
    maximum is always taken over real samples.
    """
    x = as_tensor(x)
    if kernel < 1 or stride < 1:
        raise ConfigError("pool kernel and stride must be >= 1")
    n, c, h, w = x.shape
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    pad_h = (out_h - 1) * stride + kernel - h
    pad_w = (out_w - 1) * stride + kernel - w
    xp = np.pad(
        x,
        ((0, 0), (0, 0), (0, max(pad_h, 0)), (0, max(pad_w, 0))),
        constant_values=-np.inf,
    )
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows.max(axis=(4, 5)))
