"""Dense tensor kernels for small-network inference on the CPU.

All feature maps are float32 numpy arrays in NCHW layout (batch, channels,
height, width), C-contiguous.  Every kernel here is pure: inputs are never
mutated, outputs are freshly allocated, and repeated calls on identical
inputs produce bit-identical results.  The one exception is an explicit
``out=`` (leaky_relu, add): the result is written into that array, which
may be an input, with the same bytes as the fresh result.  Inference
arithmetic stays in 32-bit floats; reduced-precision weight storage is a
serialization concern handled elsewhere and never leaks into these
routines.

A convolution's stride is an argument of each call: where a layer strides
belongs to the network, not to its weights.  Every convolution pads k // 2
zeros on each side, which is "same" padding for the odd k ConvWeights allows.
The convolutions pad and unfold their input one block at a time (a block of
output rows, or of channels), never as a whole-input copy, so their working
memory beyond the output is set by a block, not by the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.float32

# Negative-side slope shared by every activated layer in this codebase.
LEAKY_SLOPE = 0.1

# Elements in each of depthwise_conv2d's two per-call scratch buffers
# (128 KiB of float32), unless one channel's row sums are more, and in each
# block leaky_relu activates in place.
_SCRATCH = 1 << 15
# Patch-matrix elements conv2d unfolds per block of output rows (1 MiB of
# float32), unless one output row needs more.
_PATCH = 1 << 18
# Multiply-adds each of conv2d's block products has at least, unless the
# whole product has fewer.  OpenBLAS multiplies a product of at most 10^6 of
# them with a separate small-matrix kernel that sums in another order, so a
# block must stay on the same side of that bound as the whole product would.
_GEMM_MACS = 1 << 20


class ConfigError(ValueError):
    """A tensor, weight, or module configuration is inconsistent."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a 4-D float32 NCHW array, validating rank and dtype."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 4:
        raise ConfigError(f"expected 4-D NCHW tensor, got {arr.ndim}-D shape {arr.shape}")
    return np.ascontiguousarray(arr)


def conv_output_hw(h: int, w: int, kernel: int, stride: int) -> tuple[int, int]:
    """Spatial dims of a "same"-padded convolution output:
    floor((d + 2 * (k // 2) - k) / s) + 1, which is ceil(d / s) for odd k."""
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    padding = kernel // 2
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"kernel {kernel} stride {stride} does not fit {h}x{w} input")
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b), ignoring a floating-point status flag (a stray one
    from the BLAS) when the output is finite.

    For finite operands the output is finite exactly when no overflow or
    invalid operation happened in the sums, as inf and NaN carry through
    adds.  So a flag is only recorded, and a flagged product whose output is
    not finite is recomputed under the caller's error policy, which then
    sees the real flag (in execute, an error naming the node).
    """
    flags = []
    with np.errstate(over="call", invalid="call", divide="call", call=lambda err, _: flags.append(err)):
        out = np.matmul(a, b)
    if flags and not np.isfinite(out).all():
        out = np.matmul(a, b)
    return out


def conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Dense (groups 1) 2-D cross-correlation with "same" zero padding plus
    bias; other groupings raise ConfigError (per-channel ones:
    depthwise_conv2d).

    A 1x1 kernel multiplies the input's strided view, with no copy.  A
    larger kernel runs over blocks of output rows: each block's input rows
    are copied into one zero-bordered buffer, which is the padding, then
    unfolded and multiplied into the block's rows of the output, and the
    bias is added last.  A block unfolds at most _PATCH patch elements,
    unless that would take its product below _GEMM_MACS multiply-adds or
    two columns; then the blocks grow, up to one for the whole output.  So
    the BLAS multiplies every block as it would multiply the whole patch
    matrix, and each output element has the bytes of one matmul over the
    whole padded input.
    """
    x = as_tensor(x)
    n, c_in, h, width = x.shape
    if w.groups != 1:
        raise ConfigError(
            f"conv2d computes dense (groups 1) convolutions only, got groups {w.groups}; "
            f"per-channel weights go to depthwise_conv2d"
        )
    if w.kernel.shape[1] != c_in:
        raise ConfigError(f"kernel expects {w.kernel.shape[1]} input channels, input has {c_in}")
    k = w.k
    out_h, out_w = conv_output_hw(h, width, k, stride)
    kernel2d = w.kernel.reshape(w.c_out, -1)
    if k == 1:
        out = _matmul(kernel2d, _im2col(x, 1, stride, out_h, out_w)).reshape(n, w.c_out, out_h, out_w)
        out += w.bias.reshape(1, -1, 1, 1)
        return out
    p = k // 2
    rows = max(1, _PATCH // max(1, n * c_in * k * k * out_w))
    # numpy multiplies by a one-column operand, or a one-row kernel, as a
    # matrix-vector product, whose order OpenBLAS picks by its length.
    columns = max(2, -(-_GEMM_MACS // max(1, kernel2d.size)))
    least = out_h if w.c_out == 1 else -(-columns // out_w)
    blocks = max(1, min(-(-out_h // rows), out_h // least))
    bounds = [out_h * i // blocks for i in range(blocks + 1)]
    buf = np.zeros((n, c_in, (-(-out_h // blocks) - 1) * stride + k, width + 2 * p), dtype=DTYPE)
    out = np.empty((n, w.c_out, out_h, out_w), dtype=DTYPE)
    for r0, r1 in zip(bounds, bounds[1:]):
        top = r0 * stride - p  # input row of the block's first padded row
        block = buf[:, :, :(r1 - r0 - 1) * stride + k]
        lo, hi = max(top, 0) - top, min(top + block.shape[2], h) - top
        block[:, :, :lo] = 0
        block[:, :, lo:hi, p:p + width] = x[:, :, top + lo:top + hi]
        block[:, :, hi:] = 0
        target = out[:, :, r0:r1]
        target[...] = _matmul(kernel2d, _im2col(block, k, stride, r1 - r0, out_w)).reshape(target.shape)
    out += w.bias.reshape(1, -1, 1, 1)
    return out


def depthwise_conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Per-channel 2-D cross-correlation with "same" zero padding plus bias;
    groups and c_out must both equal the input channel count.

    Each output element is summed in one fixed order: for each kernel row u,
    that row's products left to right, ((p_u0 + p_u1) + p_u2), added in u
    order into a zero-filled output, then the bias.  For k = 3 and output
    width >= 2 this gives the same bytes as numpy's
    einsum("nchwuv,cuv->nchw") over the strided windows; at width 1 einsum
    iterates differently and the two can differ by ulps.

    A block of channels at a time is copied into the interior of one padded
    buffer, zeroed once, so no padded copy of the whole input is made.  The
    buffer keeps each channel's map as rows pitch = w + 2 * (k // 2) apart,
    with one slack row below.  At stride 1, tap (u, v)'s window is then one
    run of out_h * pitch elements from u * pitch + v: a kernel row's
    products are summed along whole padded rows, and the row sum's last
    2 * (k // 2) columns are cropped as it is added into the output.  At
    stride 2 the windows are strided views of the same buffer.  The row sums
    are built in two scratch buffers of at most max(_SCRATCH, one channel's
    row sum) elements each, so the working set stays in cache instead of
    streaming a second full-size map per kernel row.

    A cropped column reads into the next row, where a product that no output
    keeps can overflow.  So, as in _matmul, the pass only records
    floating-point flags, and a flagged pass whose output is not finite is
    recomputed with strided windows under the caller's error policy, which
    then sees only the flags of the kept products.
    """
    x = as_tensor(x)
    c = x.shape[1]
    if w.groups != c:
        raise ConfigError(f"depthwise conv needs groups == c_in == {c}, got groups {w.groups}")
    if w.kernel.shape[1] != 1 or w.c_out != c:
        raise ConfigError(f"depthwise kernel must be (c_in, 1, k, k), got {w.kernel.shape}")
    flags = []
    with np.errstate(over="call", invalid="call", divide="call", call=lambda err, _: flags.append(err)):
        out = _depthwise(x, w, stride, flat=stride == 1)
    if flags and not np.isfinite(out).all():
        out = _depthwise(x, w, stride, flat=False)
    return out


def _depthwise(x: np.ndarray, w: ConvWeights, stride: int, flat: bool) -> np.ndarray:
    """One depthwise_conv2d pass: each tap's window runs along whole padded
    rows when flat (stride 1 only), else it is a strided view."""
    n, c, h, width = x.shape
    k = w.k
    out_h, out_w = conv_output_hw(h, width, k, stride)
    p = k // 2
    pitch = width + 2 * p
    row_w = pitch if flat else out_w
    taps = w.kernel[:, 0, :, :, None, None]  # (c, k, k, 1, 1): broadcasts over a map
    span_h = (out_h - 1) * stride + 1
    span_w = (out_w - 1) * stride + 1
    block = max(1, _SCRATCH // (out_h * row_w))
    row_buf = np.empty(min(block, c) * out_h * row_w, dtype=DTYPE)
    tap_buf = np.empty_like(row_buf)
    pad_buf = np.zeros((min(block, c), (h + 2 * p + 1) * pitch), dtype=DTYPE)
    out = np.zeros((n, c, out_h, out_w), dtype=DTYPE)
    for b in range(n):
        for c0 in range(0, c, block):
            c1 = min(c, c0 + block)
            shape = (c1 - c0, out_h, row_w)
            row = row_buf[:(c1 - c0) * out_h * row_w].reshape(shape)
            product = tap_buf[:row.size].reshape(shape)
            xp = pad_buf[:c1 - c0]
            grid = xp.reshape(c1 - c0, h + 2 * p + 1, pitch)
            grid[:, p:p + h, p:p + width] = x[b, c0:c1]
            for u in range(k):
                for v in range(k):
                    if flat:
                        start = u * pitch + v
                        window = xp[:, start:start + out_h * pitch].reshape(shape)
                    else:
                        window = grid[:, u:u + span_h:stride, v:v + span_w:stride]
                    if v == 0:
                        np.multiply(window, taps[c0:c1, u, v], out=row)
                    else:
                        np.multiply(window, taps[c0:c1, u, v], out=product)
                        row += product
                out[b, c0:c1] += row[:, :, :out_w]
    out += w.bias.reshape(1, -1, 1, 1)
    return out


def leaky_relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0.1 * x): the same bytes as where(x >= 0, x, 0.1 * x) for
    every input, signed zeros, subnormals and infinities included, from one
    fresh array.  With out=x, x is activated where it lies instead, one
    block of at most _SCRATCH elements at a time, with the same bytes.  Any
    other out is refused: it must be x itself, a C-contiguous float32 array,
    so that no converted copy is written in its place."""
    x = np.asarray(x, dtype=DTYPE)
    if out is None:
        y = DTYPE(LEAKY_SLOPE) * x
        return np.maximum(x, y, out=y)
    if out is not x or not x.flags.c_contiguous:
        raise ConfigError("leaky_relu activates in place only a C-contiguous float32 input passed as out")
    flat = x.reshape(-1)
    for i in range(0, flat.size, _SCRATCH):
        chunk = flat[i:i + _SCRATCH]
        np.maximum(chunk, DTYPE(LEAKY_SLOPE) * chunk, out=chunk)
    return out


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
    return _matmul(weight, v) + bias


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


def add(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a + b; with out= (which may be a), written into out."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ConfigError(f"elementwise add needs equal shapes, got {a.shape} vs {b.shape}")
    return np.add(a, b, out=out)


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
