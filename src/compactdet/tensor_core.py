"""Dense tensor kernels for small-network inference on the CPU.

All feature maps are float32 numpy arrays of NCHW shape (batch, channels,
height, width).  That shape is the contract; memory order is not.  A kernel
takes an array that is C-contiguous in NCHW order or in channels-last
(NHWC) order, and as_tensor copies any other to NCHW.  The convolutions
return channels-last arrays, with their products taken pixel-major, and
so do upsample_nearest, concat_channels and max_pool2d, whatever the order
of their input; the elementwise kernels keep the memory order of
their input.  A float32 reduction sums in memory order, so
global_avg_pool reduces an NCHW-contiguous copy, and arch_graph.execute
returns NCHW-contiguous grids.  Every kernel here is pure:
inputs are never mutated, outputs are freshly allocated, and repeated calls
on identical inputs produce bit-identical results, whatever the memory
order of the input.  The one exception is an explicit ``out=``
(leaky_relu, add): the result is written into that array, which may be an
input, with the same bytes as the fresh result.  Inference arithmetic stays
in 32-bit floats; reduced-precision weight storage is a serialization
concern handled elsewhere and never leaks into these routines.

A convolution's stride is an argument of each call: where a layer strides
belongs to the network, not to its weights.  Every convolution pads k // 2
zeros on each side, which is "same" padding for the odd k ConvWeights allows.
The convolutions pad and unfold their input one block at a time (a block of
output rows), never as a whole-input copy, so their working memory beyond
the output is set by a block, not by the input.  conv2d's unfold is a
sliding_window_view of its padded rows, so no strides are computed by
hand; max_pool2d takes no windows, but one strided view per tap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32

# Negative-side slope shared by every activated layer in this codebase.
LEAKY_SLOPE = 0.1

# Elements in each of depthwise_conv2d's two per-call scratch buffers
# (128 KiB of float32), unless one output row is more, and in each block
# leaky_relu activates in place.
_SCRATCH = 1 << 15
# Patch-matrix elements conv2d unfolds per block of output rows (1 MiB of
# float32), unless one output row needs more.
_PATCH = 1 << 18
# Multiply-adds each of conv2d's block products has at least, unless the
# whole product has fewer: above OpenBLAS's small-matrix bound of 10**6,
# under which it sums in another order, so a block stays on the same side
# of that bound as the whole product would.
_GEMM_MACS = 1 << 20


class ConfigError(ValueError):
    """A tensor, weight, or module configuration is inconsistent."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a 4-D float32 array of NCHW shape, validating rank and
    dtype.  An array C-contiguous in NCHW or in channels-last order is
    returned as it is; any other is copied to NCHW order."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 4:
        raise ConfigError(f"expected 4-D NCHW tensor, got {arr.ndim}-D shape {arr.shape}")
    if arr.flags.c_contiguous or _channels_last(arr):
        return arr
    return np.ascontiguousarray(arr)


def _channels_last(x: np.ndarray) -> bool:
    """Whether a 4-D x is C-contiguous in channels-last (NHWC) order."""
    return x.transpose(0, 2, 3, 1).flags.c_contiguous


def _block_rows(r0: int, r1: int, stride: int, k: int, h: int) -> tuple[int, int, int, int]:
    """The padded input rows that output rows r0 to r1 of a "same"-padded
    convolution read: the input row of the first one (top), how many there
    are (span), and the range lo to hi of them that lies inside the input's
    h rows; the others are padding."""
    top = r0 * stride - k // 2
    span = (r1 - r0 - 1) * stride + k
    return top, span, max(top, 0) - top, min(top + span, h) - top


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


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.matmul(a, b, out=out), ignoring a floating-point status flag (a
    stray one from the BLAS) when the output is finite.

    For finite operands the output is finite exactly when no overflow or
    invalid operation happened in the sums, as inf and NaN carry through
    adds.  So a flag is only recorded, and a flagged product whose output is
    not finite is recomputed under the caller's error policy, which then
    sees the real flag (in execute, an error naming the node).
    """
    flags = []
    with np.errstate(over="call", invalid="call", divide="call", call=lambda err, _: flags.append(err)):
        product = np.matmul(a, b, out=out)
    if flags and not np.isfinite(product).all():
        product = np.matmul(a, b, out=out)
    return product


def _add_bias(out: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add a per-channel bias to a channels-last (n, h, w, c) out along
    whole rows, and return out's NCHW view."""
    n, h, width, c = out.shape
    rows = out.reshape(n * h, width * c)
    rows += np.tile(bias, width)
    return out.transpose(0, 3, 1, 2)


def conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Dense (groups 1) 2-D cross-correlation with "same" zero padding plus
    bias; other groupings raise ConfigError (per-channel ones:
    depthwise_conv2d).  The output is channels-last.

    Every product is taken pixel-major, patches @ kernel^T, into the output's
    rows; a product below OpenBLAS's small-matrix bound, or by a one-row
    kernel, sums in an order set by its operands' memory layout, so each path
    fixes that layout.  A 1x1 kernel multiplies the input's pixels as
    C-contiguous rows, copied unless they are channels-last at stride 1.  A
    larger kernel runs over blocks of output rows: each block's input rows are
    copied into one zero-bordered buffer, which is the padding.  One
    sliding_window_view of that buffer, taken once per call, holds every
    block's k x k windows; a block's windows are copied into a (depth, pixels)
    C-contiguous matrix, depth in (channel, kernel row, kernel column) order,
    whose transpose is multiplied into the block's rows of the output.  The
    bias is added last.  A block unfolds at most _PATCH patch elements, unless
    that would take its product below _GEMM_MACS multiply-adds or two columns;
    then the blocks grow, up to one for the whole output.  So the BLAS
    multiplies every block as it would multiply the whole patch matrix, and
    each output element has the bytes of one product over the padded input.
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
    out = np.empty((n, out_h, out_w, w.c_out), dtype=DTYPE)
    if k == 1:
        pixels = np.ascontiguousarray(x.transpose(0, 2, 3, 1)[:, ::stride, ::stride])
        pixels = pixels.reshape(n, out_h * out_w, c_in)
        _matmul(pixels, kernel2d.T, out=out.reshape(n, out_h * out_w, w.c_out))
        return _add_bias(out, w.bias)
    p = k // 2
    rows = max(1, _PATCH // max(1, n * c_in * k * k * out_w))
    # numpy multiplies by a one-column operand, or a one-row kernel, as a
    # matrix-vector product, whose order OpenBLAS picks by its length.
    columns = max(2, -(-_GEMM_MACS // max(1, kernel2d.size)))
    least = out_h if w.c_out == 1 else -(-columns // out_w)
    blocks = max(1, min(-(-out_h // rows), out_h // least))
    bounds = [out_h * i // blocks for i in range(blocks + 1)]
    buf = np.zeros((n, c_in, (-(-out_h // blocks) - 1) * stride + k, width + 2 * p), dtype=DTYPE)
    # (n, c_in, out row, out column, kernel row, kernel column)
    windows = sliding_window_view(buf, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    for r0, r1 in zip(bounds, bounds[1:]):
        top, span, lo, hi = _block_rows(r0, r1, stride, k, h)
        buf[:, :, :lo] = 0
        buf[:, :, lo:hi, p:p + width] = x[:, :, top + lo:top + hi]
        buf[:, :, hi:span] = 0
        cols = windows[:, :, :r1 - r0, :out_w].transpose(0, 1, 4, 5, 2, 3)
        cols = cols.reshape(n, c_in * k * k, (r1 - r0) * out_w).transpose(0, 2, 1)
        _matmul(cols, kernel2d.T, out=out[:, r0:r1].reshape(n, (r1 - r0) * out_w, w.c_out))
        del cols  # before the next block's patch matrix is made
    return _add_bias(out, w.bias)


def depthwise_conv2d(x: np.ndarray, w: ConvWeights, stride: int = 1) -> np.ndarray:
    """Per-channel 2-D cross-correlation with "same" zero padding plus bias;
    groups and c_out must both equal the input channel count.  The output is
    channels-last.

    Each output element is summed in one fixed order: for each kernel row u,
    that row's products left to right, ((p_u0 + p_u1) + p_u2), added in u
    order into a zero-filled output, then the bias.  For k = 3 and output
    width >= 2 this gives the same bytes as numpy's
    einsum("nchwuv,cuv->nchw") over the strided windows; at width 1 einsum
    iterates differently and the two can differ by ulps.

    One loop serves every stride.  The output is made a block of rows at a
    time, at most max(_SCRATCH, one output row) elements.  The block's input
    rows are copied, channels-last, into zero-bordered planes, one per
    column phase a tap reads: plane f holds the padded columns f,
    f + stride, f + 2 * stride and so on.  So tap (u, v)'s window over one
    output row is out_w * c contiguous elements of plane v % stride, and
    each tap multiplies whole rows by its weights tiled across a row's
    pixels.  The planes' borders are the padding, so no padded copy of the
    whole input is made, and every window element is an input of some
    output: no product is made that no output keeps.
    """
    x = as_tensor(x)
    n, c, h, width = x.shape
    if w.groups != c:
        raise ConfigError(f"depthwise conv needs groups == c_in == {c}, got groups {w.groups}")
    if w.kernel.shape[1] != 1 or w.c_out != c:
        raise ConfigError(f"depthwise kernel must be (c_in, 1, k, k), got {w.kernel.shape}")
    k = w.k
    out_h, out_w = conv_output_hw(h, width, k, stride)
    p = k // 2
    row_w = out_w * c
    rows = max(1, min(out_h, _SCRATCH // row_w))
    taps = np.tile(w.kernel[:, 0].transpose(1, 2, 0), (1, 1, out_w))  # (k, k, row_w)
    plane_w = out_w + (k - 1) // stride
    planes = np.zeros((min(stride, k), (rows - 1) * stride + k, plane_w * c), dtype=DTYPE)
    row_buf = np.empty((rows, row_w), dtype=DTYPE)
    tap_buf = np.empty_like(row_buf)
    src = x.transpose(0, 2, 3, 1)
    out = np.zeros((n, out_h, out_w, c), dtype=DTYPE)
    for b in range(n):
        for r0 in range(0, out_h, rows):
            r1 = min(out_h, r0 + rows)
            top, span, lo, hi = _block_rows(r0, r1, stride, k, h)
            for f, plane in enumerate(planes):
                j0 = max(0, -(-(p - f) // stride))  # first plane column inside the input
                j1 = min(plane_w, (width - 1 + p - f) // stride + 1)
                first = j0 * stride + f - p  # its input column
                plane[:lo] = 0
                pixels = plane.reshape(-1, plane_w, c)[lo:hi, j0:j1]
                pixels[...] = src[b, top + lo:top + hi, first:first + (j1 - j0 - 1) * stride + 1:stride]
                plane[hi:span] = 0
            row = row_buf[:r1 - r0]
            product = tap_buf[:r1 - r0]
            for u in range(k):
                for v in range(k):
                    q = v // stride * c
                    window = planes[v % stride, u:u + (r1 - r0 - 1) * stride + 1:stride, q:q + row_w]
                    if v == 0:
                        np.multiply(window, taps[u, v], out=row)
                    else:
                        np.multiply(window, taps[u, v], out=product)
                        row += product
                acc = out[b, r0:r1].reshape(row.shape)
                acc += row
    return _add_bias(out, w.bias)


def leaky_relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0.1 * x): the same bytes as where(x >= 0, x, 0.1 * x) for
    every input, signed zeros, subnormals and infinities included, from one
    fresh array.  With out=x, x is activated where it lies instead, one
    block of at most _SCRATCH elements of memory at a time, with the same
    bytes.  Any other out is refused: it must be x itself, a float32 array
    C-contiguous in its own order or, 4-D, in channels-last order, so that
    no converted copy is written in its place."""
    x = np.asarray(x, dtype=DTYPE)
    if out is None:
        y = DTYPE(LEAKY_SLOPE) * x
        return np.maximum(x, y, out=y)
    if out is not x or not (x.flags.c_contiguous or x.ndim == 4 and _channels_last(x)):
        raise ConfigError(
            "leaky_relu activates in place only a float32 input passed as out that is "
            "C-contiguous, or 4-D and contiguous in NCHW or channels-last order"
        )
    flat = x.ravel(order="K")  # a view in either order
    for i in range(0, flat.size, _SCRATCH):
        chunk = flat[i:i + _SCRATCH]
        np.maximum(chunk, DTYPE(LEAKY_SLOPE) * chunk, out=chunk)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=DTYPE)
    # exp(-|x|) never overflows, and both branches are exact sigmoids.
    e, one = np.exp(-np.abs(x)), DTYPE(1)
    return np.where(x >= 0, one / (one + e), e / (one + e))


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c, 1, 1) spatial mean, summed over each
    channel's h * w contiguous values: a float32 sum's order follows memory
    order, so a channels-last x is copied to NCHW order first."""
    x = np.ascontiguousarray(as_tensor(x))
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
    """Nearest-neighbour spatial upsampling by an integer factor; the
    output is channels-last."""
    x = as_tensor(x)
    if factor < 1:
        raise ConfigError(f"upsample factor must be >= 1, got {factor}")
    nhwc = x.transpose(0, 2, 3, 1)
    return np.repeat(np.repeat(nhwc, factor, axis=1), factor, axis=2).transpose(0, 3, 1, 2)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a's channels, then b's; the output is channels-last."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ConfigError(f"concat needs matching batch and spatial dims, got {a.shape} vs {b.shape}")
    out = np.empty((a.shape[0], *a.shape[2:], a.shape[1] + b.shape[1]), dtype=DTYPE)
    np.concatenate([a.transpose(0, 2, 3, 1), b.transpose(0, 2, 3, 1)], axis=3, out=out)
    return out.transpose(0, 3, 1, 2)


def add(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a + b; with out= (which may be a), written into out."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ConfigError(f"elementwise add needs equal shapes, got {a.shape} vs {b.shape}")
    return np.add(a, b, out=out)


def channel_scale(x: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Multiply each channel by a per-(batch, channel) scalar: scales is
    (n, c), broadcast over space."""
    x = as_tensor(x)
    s = np.asarray(scales, dtype=DTYPE)
    if s.shape != x.shape[:2]:
        raise ConfigError(f"scales shape {s.shape} does not match (batch, channels) {x.shape[:2]}")
    return x * s[:, :, None, None]


def max_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max pooling with size-preserving edge padding, output ceil(d / stride);
    the output is channels-last.

    The maximum is taken tap by tap, in window order, over a channels-last
    copy of x with a -inf border, so a window hanging over the right/bottom
    edge takes its maximum over real samples.  An output is NaN if its window
    holds one; a tie of -0.0 and 0.0 goes as np.maximum(earlier, later)
    breaks it, which gives the bytes of numpy's max over each window.
    """
    x = as_tensor(x)
    if kernel < 1 or stride < 1:
        raise ConfigError("pool kernel and stride must be >= 1")
    n, c, h, w = x.shape
    out_h, out_w = -(-h // stride), -(-w // stride)
    rows, cols = max(h, (out_h - 1) * stride + kernel), max(w, (out_w - 1) * stride + kernel)
    padded = np.empty((n, rows, cols, c), dtype=DTYPE)
    padded[:, h:] = padded[:, :, w:] = -np.inf  # only the border the windows read
    padded[:, :h, :w] = x.transpose(0, 2, 3, 1)
    taps = [padded[:, u::stride, v::stride][:, :out_h, :out_w] for u in range(kernel) for v in range(kernel)]
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out.transpose(0, 3, 1, 2)
