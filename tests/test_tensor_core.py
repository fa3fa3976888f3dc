"""Kernel-level tests against direct, loop-based reference implementations.

The production kernels use strided views and matmul; most references here
are the obvious quadruple loop accumulating in float64, so an agreement
check exercises the layout and ordering logic rather than restating it.
The conv, depthwise, leaky ReLU, sigmoid and max pool kernels also keep
the forms they replaced (one product over the whole padded input, an
einsum and strided windows, an np.where, a sign split through masks, and
one max per sliding window) as oracles that they must match byte for
byte, up to a whole network run.
"""

import hashlib
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from compactdet import arch_graph, nn_modules, tensor_core
from compactdet.tensor_core import (
    ConfigError,
    ConvWeights,
    add,
    as_tensor,
    channel_scale,
    concat_channels,
    conv2d,
    conv_output_hw,
    dense,
    depthwise_conv2d,
    global_avg_pool,
    leaky_relu,
    max_pool2d,
    sigmoid,
    upsample_nearest,
)


def conv2d_reference(x, kernel, bias, stride, padding, groups=1):
    """Direct grouped cross-correlation, float64 accumulation."""
    n, c_in, h, w = x.shape
    c_out, cpg, k, _ = kernel.shape
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    out_per_group = c_out // groups
    for b in range(n):
        for co in range(c_out):
            g = co // out_per_group
            for oy in range(oh):
                for ox in range(ow):
                    window = xp[
                        b,
                        g * cpg:(g + 1) * cpg,
                        oy * stride:oy * stride + k,
                        ox * stride:ox * stride + k,
                    ]
                    out[b, co, oy, ox] = np.sum(window * kernel[co]) + bias[co]
    return out


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


def conv2d_whole_oracle(x, w, stride=1):
    """The conv2d that the blocked one replaced: one padded copy of the
    whole input, one patch matrix and one pixel-major product, patches @
    kernel^T, then the bias.  Its unfold, _im2col, computes its strides by
    hand, so it shares no code with conv2d's window view.  A product below
    OpenBLAS's small-matrix bound, or by a one-row kernel, sums in an order
    set by its operands' memory layout, so the patches have conv2d's:
    C-contiguous pixel rows for a 1x1 kernel, else the transpose of the
    C-contiguous unfold."""
    x = as_tensor(x)
    n, _, h, width = x.shape
    out_h, out_w = conv_output_hw(h, width, w.k, stride)
    p = w.k // 2
    cols = _im2col(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), w.k, stride, out_h, out_w)
    patches = cols.transpose(0, 2, 1)
    if w.k == 1:
        patches = np.ascontiguousarray(patches)
    out = tensor_core._matmul(patches, w.kernel.reshape(w.c_out, -1).T)
    out = out.reshape(n, out_h, out_w, w.c_out).transpose(0, 3, 1, 2)
    out += w.bias.reshape(1, -1, 1, 1)
    return out


def count_products(monkeypatch):
    """Count tensor_core's _matmul calls from here on; returns the list
    that collects one entry per call."""
    real, calls = tensor_core._matmul, []

    def counted(a, b, out=None):
        calls.append(b.shape)
        return real(a, b, out=out)

    monkeypatch.setattr(tensor_core, "_matmul", counted)
    return calls


def traced_peak(fn):
    """(peak traced bytes while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def depthwise_einsum_oracle(x, w, stride=1):
    """The einsum depthwise kernel that depthwise_conv2d replaced: one 6-D
    einsum over strided windows of the padded input, then the bias."""
    x = as_tensor(x)
    n, c, h, width = x.shape
    out_h, out_w = conv_output_hw(h, width, w.k, stride)
    p = w.k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, w.k, w.k),
        strides=(sn, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )
    out = np.einsum("nchwuv,cuv->nchw", windows, w.kernel[:, 0], dtype=np.float32, casting="same_kind")
    out += w.bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out)


def leaky_relu_oracle(x, out=None):
    """The np.where leaky ReLU that leaky_relu replaced; with out=, its
    result is written into out and returned, as leaky_relu's is."""
    x = np.asarray(x, dtype=np.float32)
    y = np.where(x >= 0, x, np.float32(0.1) * x)
    if out is None:
        return y
    out[...] = y
    return out


def sigmoid_mask_oracle(x):
    """The sigmoid that the one np.where expression replaced: split by
    sign, so exp never overflows, and fill each half through a mask."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def depthwise_strided_oracle(x, w, stride=1):
    """The depthwise_conv2d that flat-row windows replaced at stride 1: each
    tap's window a strided view of the whole padded input, summed in the
    kernel's order (each kernel row left to right, rows added in order into
    zeros, then the bias)."""
    x = as_tensor(x)
    n, c, h, width = x.shape
    k = w.k
    out_h, out_w = conv_output_hw(h, width, k, stride)
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    taps = w.kernel[None, :, 0, :, :, None, None]  # (1, c, k, k, 1, 1)
    out = np.zeros((n, c, out_h, out_w), dtype=np.float32)
    for u in range(k):
        windows = [xp[:, :, u:u + (out_h - 1) * stride + 1:stride, v:v + (out_w - 1) * stride + 1:stride]
                   for v in range(k)]
        row = windows[0] * taps[:, :, u, 0]
        for v in range(1, k):
            row += windows[v] * taps[:, :, u, v]
        out += row
    out += w.bias.reshape(1, -1, 1, 1)
    return out


def same_bytes(a, b) -> bool:
    """Equal shapes and bit patterns: -0.0 differs from 0.0 here."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def channels_last(x):
    """A copy of x with its NCHW shape and values, in channels-last memory
    order."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(x) -> bool:
    return x.transpose(0, 2, 3, 1).flags.c_contiguous


# Signed zeros, subnormals and large magnitudes mixed into kernel inputs.
# Large inputs meet weights of magnitude below 10, so no 9-term sum
# overflows float32.
SPECIAL_INPUTS = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 2.5e-39, -2.5e-39, 1e36, -1e36], dtype=np.float32
)
SPECIAL_WEIGHTS = np.array([0.0, -0.0, 1e-45, -3e-41, 7.5, -9.0], dtype=np.float32)


def hostile(rng, shape, specials, share):
    """Standard normals with a `share` of entries drawn from `specials`."""
    a = rng.standard_normal(shape).astype(np.float32)
    mask = rng.random(shape) < share
    a[mask] = rng.choice(specials, size=int(mask.sum()))
    return a


def hostile_depthwise_case(rng, n, c, h, w, share, k=3):
    """Input and k x k depthwise weights, biases with -0.0 entries."""
    x = hostile(rng, (n, c, h, w), SPECIAL_INPUTS, share)
    kernel = hostile(rng, (c, 1, k, k), SPECIAL_WEIGHTS, share)
    bias = hostile(rng, (c,), np.array([-0.0, 0.0], dtype=np.float32), 0.5)
    return x, ConvWeights(kernel, bias, groups=c)


def random_conv_case(rng, depthwise=False):
    """One random small "same"-padded convolution problem: input,
    ConvWeights and stride."""
    n = int(rng.integers(1, 3))
    c_in = int(rng.integers(1, 8))
    k = int(rng.choice([1, 3, 5]))
    h = int(rng.integers(k, k + 10))
    w = int(rng.integers(k, k + 10))
    stride = int(rng.choice([1, 2]))
    if depthwise:
        groups, c_out = c_in, c_in
    else:
        groups, c_out = 1, int(rng.integers(1, 8))
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    kernel = rng.standard_normal((c_out, c_in // groups, k, k)).astype(np.float32)
    bias = rng.standard_normal(c_out).astype(np.float32)
    return x, ConvWeights(kernel, bias, groups=groups), stride


class TestConv2d:
    def test_matches_direct_convolution(self):
        """200 random cases agree with the quadruple-loop reference."""
        rng = np.random.default_rng(101)
        for _ in range(200):
            x, w, stride = random_conv_case(rng)
            got = conv2d(x, w, stride)
            want = conv2d_reference(x, w.kernel, w.bias, stride, w.k // 2)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_known_hand_case(self):
        """3x3 identity-centre kernel with padding 1 reproduces the input."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        kernel = np.zeros((2, 2, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1] = 1.0
        kernel[1, 1, 1, 1] = 1.0
        out = conv2d(x, ConvWeights(kernel, np.zeros(2)))
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_rejects_grouped(self):
        """conv2d is dense only: 1 < groups < c_in, a depthwise multiplier
        and plain depthwise weights (depthwise_conv2d's job) are refused
        rather than computed."""
        x = np.zeros((1, 4, 5, 5), dtype=np.float32)
        for kernel_shape, groups in [
            ((4, 2, 3, 3), 2), ((6, 2, 1, 1), 2), ((8, 1, 3, 3), 4), ((4, 1, 3, 3), 4),
        ]:
            w = ConvWeights(np.zeros(kernel_shape), np.zeros(kernel_shape[0]), groups=groups)
            with pytest.raises(ConfigError, match="dense .* only.*depthwise_conv2d"):
                conv2d(x, w)

    def test_rejects_channel_mismatch(self):
        w = ConvWeights(np.zeros((4, 3, 3, 3)), np.zeros(4))
        with pytest.raises(ConfigError):
            conv2d(np.zeros((1, 5, 8, 8), dtype=np.float32), w)

    def test_rejects_stride_below_one(self):
        """The stride is the caller's argument, so the kernels check it."""
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        for stride in (0, -1):
            with pytest.raises(ConfigError, match="stride must be >= 1"):
                conv2d(x, ConvWeights(np.zeros((4, 3, 3, 3)), np.zeros(4)), stride)
            with pytest.raises(ConfigError, match="stride must be >= 1"):
                depthwise_conv2d(x, ConvWeights(np.zeros((3, 1, 3, 3)), np.zeros(3), groups=3), stride)

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(11)
        x, w, stride = random_conv_case(rng)
        a = conv2d(x, w, stride)
        b = conv2d(x, w, stride)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("h", [2, 7])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bytes_match_whole_input_oracle(self, monkeypatch, k, stride, n, h, rows):
        """Blocks of 1, 2 and 3 output rows give the bytes of one product
        over the whole padded input: on maps lower than the kernel (h = 2),
        on out_h 7 and 4, which those blocks do not divide evenly, and on an
        empty batch.  A row's product is above _GEMM_MACS here, so _PATCH
        alone sets the blocks; a 1x1 kernel is always one product."""
        c_in, c_out, width = 16, 32, 460
        rng = np.random.default_rng(1000 * k + 100 * stride + 10 * n + h)
        x = rng.standard_normal((n, c_in, h, width)).astype(np.float32)
        weights = ConvWeights(
            rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
            rng.standard_normal(c_out).astype(np.float32),
        )
        out_h, out_w = conv_output_hw(h, width, k, stride)
        monkeypatch.setattr(tensor_core, "_PATCH", rows * max(1, n * c_in * k * k * out_w))
        products = count_products(monkeypatch)
        got = conv2d(x, weights, stride)
        assert len(products) == (1 if k == 1 else -(-out_h // rows))
        assert same_bytes(got, conv2d_whole_oracle(x, weights, stride))

    @pytest.mark.parametrize("c_in, c_out, h, w, blocks", [
        (3, 4, 9, 13, 1),  # whole product below _GEMM_MACS
        (64, 1, 40, 300, 1),  # one-row kernel: a matrix-vector product
        (12, 4, 100, 100, 4),  # 25-row blocks reach _GEMM_MACS
        (400, 300, 3, 1, 1),  # one column reaches _GEMM_MACS, but is a vector
    ])
    def test_blocks_keep_the_products_kind(self, monkeypatch, c_in, c_out, h, w, blocks):
        """However small _PATCH is, each block's product has at least
        _GEMM_MACS multiply-adds and two columns, and a one-row kernel stays
        one product, as OpenBLAS and numpy sum smaller and vector products
        in an order set by their length."""
        rng = np.random.default_rng(c_in * c_out + h)
        x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
        weights = ConvWeights(
            rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32),
            rng.standard_normal(c_out).astype(np.float32),
        )
        monkeypatch.setattr(tensor_core, "_PATCH", 1)
        products = count_products(monkeypatch)
        got = conv2d(x, weights)
        assert len(products) == blocks
        assert same_bytes(got, conv2d_whole_oracle(x, weights))

    def test_peak_memory_is_output_plus_a_block(self):
        """The reference stem conv, (1, 3, 416, 416) to 12 channels, peaks
        below its output's bytes plus 2 MiB of traced allocations (the
        whole-input form took 17.8 MiB more: a padded copy and a 27-row
        patch matrix of the whole map)."""
        rng = np.random.default_rng(7)
        x = rng.random((1, 3, 416, 416), dtype=np.float32)
        weights = ConvWeights(rng.standard_normal((12, 3, 3, 3)), rng.standard_normal(12))
        peak, out = traced_peak(lambda: conv2d(x, weights))
        assert peak < out.nbytes + 2 * 2**20


class TestDepthwiseConv2d:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            x, w, stride = random_conv_case(rng, depthwise=True)
            got = depthwise_conv2d(x, w, stride)
            want = conv2d_reference(x, w.kernel, w.bias, stride, w.k // 2, groups=w.groups)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_equals_block_diagonal_dense_conv(self):
        """Depthwise == full conv whose kernel zeroes all cross-channel taps."""
        rng = np.random.default_rng(303)
        for _ in range(100):
            c = int(rng.integers(1, 7))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            h = int(rng.integers(k + 1, k + 8))
            x = rng.standard_normal((1, c, h, h)).astype(np.float32)
            dw_kernel = rng.standard_normal((c, 1, k, k)).astype(np.float32)
            bias = rng.standard_normal(c).astype(np.float32)
            dense_kernel = np.zeros((c, c, k, k), dtype=np.float32)
            for ch in range(c):
                dense_kernel[ch, ch] = dw_kernel[ch, 0]
            got = depthwise_conv2d(x, ConvWeights(dw_kernel, bias, groups=c), stride)
            want = conv2d(x, ConvWeights(dense_kernel, bias), stride)
            np.testing.assert_allclose(got, want, atol=1e-6)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 80),
        h=st.integers(1, 40),
        w=st.integers(2, 48),
        stride=st.sampled_from([1, 2]),
        share=st.sampled_from([0.0, 0.25, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_einsum_oracle(self, n, c, h, w, stride, share, seed):
        """k = 3 maps of output width >= 2 give the einsum's exact bytes,
        signed zeros, subnormals, large magnitudes and -0.0 biases included."""
        w = max(w, stride + 1)  # output width ceil(w / stride) >= 2
        x, weights = hostile_depthwise_case(np.random.default_rng(seed), n, c, h, w, share)
        assert same_bytes(depthwise_conv2d(x, weights, stride), depthwise_einsum_oracle(x, weights, stride))

    @pytest.mark.parametrize("n, h, w, stride, blocks", [
        (1, 64, 64, 1, 2.5), (2, 30, 40, 2, 3.5), (1, 190, 190, 1, 3), (2, 400, 380, 2, 2),
    ])
    def test_bytes_match_einsum_oracle_across_blocks(self, n, h, w, stride, blocks):
        """Channel counts that cut the output into about `blocks` blocks of
        rows (a block holds _SCRATCH // (out_w * c) of them), the last one
        partial where they do not divide out_h."""
        out_h, out_w = conv_output_hw(h, w, 3, stride)
        c = max(1, tensor_core._SCRATCH // (out_w * int(np.ceil(out_h / blocks))))
        for seed, share in enumerate((0.0, 0.25, 0.9)):
            x, weights = hostile_depthwise_case(np.random.default_rng(seed), n, c, h, w, share)
            got = depthwise_conv2d(x, weights, stride)
            assert same_bytes(got, depthwise_einsum_oracle(x, weights, stride))
        assert tensor_core._SCRATCH // (out_w * c) < out_h

    def test_width_one_maps_within_tolerance(self):
        """On maps of output width 1 numpy's einsum sums in another order,
        so there the two kernels agree to criterion 5's 1e-5 only, not
        bytewise."""
        rng = np.random.default_rng(404)
        for _ in range(100):
            stride = int(rng.choice([1, 2]))
            w = int(rng.integers(1, stride + 1))
            x, weights = hostile_depthwise_case(
                rng, int(rng.integers(1, 3)), int(rng.integers(1, 9)), int(rng.integers(1, 12)), w, 0.0
            )
            got = depthwise_conv2d(x, weights, stride)
            assert got.shape[3] == 1
            np.testing.assert_allclose(got, depthwise_einsum_oracle(x, weights, stride), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_no_padded_copy_of_the_input(self, stride):
        """On a (1, 32, 208, 208) map (5.3 MiB) the traced peak stays below
        the output's bytes plus 2 MiB: each block of rows is padded in the
        same reused planes, so no allocation is the size of the whole
        input."""
        rng = np.random.default_rng(8)
        x = rng.random((1, 32, 208, 208), dtype=np.float32)
        weights = ConvWeights(rng.standard_normal((32, 1, 3, 3)), rng.standard_normal(32), groups=32)
        peak, out = traced_peak(lambda: depthwise_conv2d(x, weights, stride))
        assert peak < out.nbytes + 2 * 2**20 < out.nbytes + x.nbytes

    def test_rejects_wrong_groups(self):
        w = ConvWeights(np.zeros((4, 1, 3, 3)), np.zeros(4), groups=2)
        with pytest.raises(ConfigError):
            depthwise_conv2d(np.zeros((1, 4, 8, 8), dtype=np.float32), w)


class TestDepthwiseFlatRows:
    """depthwise_conv2d gives the strided-window kernel's exact bytes; its
    windows run along whole channels-last rows of column-phase planes."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("h, w", [(9, 11), (7, 1), (1, 6), (2, 2), (4, 13)])
    def test_bytes_match_strided_oracle(self, k, stride, n, h, w):
        """Width 1 and maps lower than the kernel included."""
        for seed, share in enumerate((0.0, 0.25, 0.9)):
            x, weights = hostile_depthwise_case(np.random.default_rng(seed), n, 5, h, w, share, k)
            assert same_bytes(depthwise_conv2d(x, weights, stride), depthwise_strided_oracle(x, weights, stride))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    def test_bytes_match_strided_oracle_across_blocks(self, stride, k):
        """Channel counts one below, at and one above those where a block
        of _SCRATCH // (out_w * c) output rows holds 4 and 1 rows, and one
        where a single row is above _SCRATCH."""
        h, w = 40, 37
        out_h, out_w = conv_output_hw(h, w, k, stride)
        four, one = tensor_core._SCRATCH // (4 * out_w), tensor_core._SCRATCH // out_w
        assert 4 < out_h
        rng = np.random.default_rng(31)
        for c in (four - 1, four, four + 1, one - 1, one, one + 1, 2 * one + 1):
            x, weights = hostile_depthwise_case(rng, 1, c, h, w, 0.25, k)
            assert same_bytes(depthwise_conv2d(x, weights, stride), depthwise_strided_oracle(x, weights, stride))

    def test_cropped_column_overflow_is_not_an_error(self):
        """The last cropped column of a stride-1 row sum multiplies the next
        row's first column by tap (u, 2), a product no output keeps: with
        3e38 there and that tap 10, it overflows.  The kernel still returns
        the strided kernel's finite bytes, with no error under a raising
        policy."""
        x = np.random.default_rng(5).standard_normal((1, 3, 6, 7)).astype(np.float32)
        x[..., 0] = 3e38
        kernel = np.full((3, 1, 3, 3), 1e-3, dtype=np.float32)
        kernel[..., 2] = 10
        weights = ConvWeights(kernel, np.zeros(3), groups=3)
        with np.errstate(over="raise", invalid="raise"):
            want = depthwise_strided_oracle(x, weights)
            got = depthwise_conv2d(x, weights)
        assert np.isfinite(want).all()
        assert same_bytes(got, want)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_real_overflow_reaches_the_policy(self, stride):
        """An overflow in a kept product still reaches the caller's policy:
        an error when it raises, the strided kernel's inf bytes when it
        ignores."""
        x = np.full((1, 2, 5, 5), 3e38, dtype=np.float32)
        weights = ConvWeights(np.full((2, 1, 3, 3), 10, dtype=np.float32), np.zeros(2), groups=2)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                depthwise_conv2d(x, weights, stride)
        with np.errstate(over="ignore"):
            got = depthwise_conv2d(x, weights, stride)
            assert same_bytes(got, depthwise_strided_oracle(x, weights, stride))
        assert np.isinf(got).all()


class TestConvOutputHw:
    @pytest.mark.parametrize(
        "h, w, k, s, want",
        [
            (416, 416, 3, 1, (416, 416)),
            (416, 416, 3, 2, (208, 208)),
            (13, 13, 1, 1, (13, 13)),
            (7, 9, 3, 2, (4, 5)),
            (5, 5, 5, 1, (5, 5)),
        ],
    )
    def test_formula(self, h, w, k, s, want):
        assert conv_output_hw(h, w, k, s) == want

    def test_too_small_raises(self):
        """"Same" padding fits any map of side >= 1; a 0-high one has no output."""
        with pytest.raises(ConfigError, match="does not fit 0x4"):
            conv_output_hw(0, 4, 3, 1)


class TestPointwise:
    def test_leaky_relu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        np.testing.assert_allclose(
            leaky_relu(x), [-0.2, -0.05, 0.0, 0.5, 2.0], rtol=1e-6
        )

    def test_leaky_relu_matches_piecewise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32) * 10
        assert same_bytes(leaky_relu(x), leaky_relu_oracle(x))

    def test_leaky_relu_special_values_bytewise(self):
        """Signed zeros, subnormals, the largest finites and infinities."""
        tiny = np.float32(1e-45)
        x = np.array(
            [0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, 1.2e-38, -1.2e-38, 3.4e38, -3.4e38, np.inf, -np.inf],
            dtype=np.float32,
        )
        assert same_bytes(leaky_relu(x), leaky_relu_oracle(x))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(max_dims=4, max_side=6), elements=st.floats(width=32, allow_nan=False)))
    def test_leaky_relu_bytes_match_where_oracle(self, x):
        before = x.copy()
        assert same_bytes(leaky_relu(x), leaky_relu_oracle(x))
        assert same_bytes(x, before)

    @pytest.mark.parametrize("size", [
        0, 1, tensor_core._SCRATCH - 1, tensor_core._SCRATCH, tensor_core._SCRATCH + 1, 3 * tensor_core._SCRATCH + 5,
    ])
    def test_leaky_relu_in_place_matches_fresh(self, size):
        """out=x activates x where it lies, a block at a time, with the fresh
        form's bytes: signed zeros, subnormals, infinities and NaN included,
        at sizes around the block length."""
        rng = np.random.default_rng(size)
        specials = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, np.inf, -np.inf, np.nan, -np.nan],
                            dtype=np.float32)
        x = hostile(rng, (size,), specials, 0.3)
        before = x.copy()
        want = leaky_relu(x)
        assert same_bytes(x, before)
        y = x.copy()
        got = leaky_relu(y, out=y)
        assert got is y
        assert same_bytes(got, want)

    def test_leaky_relu_in_place_on_a_map(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 5, 7)).astype(np.float32)
        y = x.copy()
        assert same_bytes(leaky_relu(y, out=y), leaky_relu_oracle(x))

    def test_leaky_relu_out_must_be_the_input(self):
        """Only a float32 C-contiguous input activates in place; any other
        out is refused rather than written through a copy."""
        x = np.zeros((2, 3), dtype=np.float32)
        wide, strided = x.astype(np.float64), x.T
        for arg, out in [(x, np.zeros_like(x)), (wide, wide), (strided, strided)]:
            with pytest.raises(ConfigError, match="in place"):
                leaky_relu(arg, out=out)

    def test_add_into_an_operand(self):
        rng = np.random.default_rng(3)
        a, b = (hostile(rng, (1, 4, 6, 6), SPECIAL_INPUTS, 0.3) for _ in range(2))
        want = a + b
        got = add(a, b, out=a)
        assert got is a
        assert same_bytes(got, want)

    def test_sigmoid_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-80, 80, size=5000).astype(np.float32)
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-6)

    def test_sigmoid_matches_mask_oracle(self):
        """Signed zeros, subnormals, the float32 extremes, infinities, the
        points where exp(x) and exp(-x) leave float32, and random draws:
        the same bytes as the sign-split form, and no floating-point flag."""
        rng = np.random.default_rng(16)
        edges = np.array([0.0, 1e-45, 1e-40, 3.4e38, np.inf, 88.7, 103.9, 200.0], dtype=np.float32)
        for x in (
            np.concatenate([edges, -edges]),
            rng.uniform(-120, 120, size=10**5).astype(np.float32),
            (rng.standard_normal(10**5) * 30).astype(np.float32),
        ):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got, want = sigmoid(x), sigmoid_mask_oracle(x)
            assert got.dtype == np.float32
            assert same_bytes(got, want)

    def test_sigmoid_extremes_finite(self):
        s = sigmoid(np.array([-1e4, 0.0, 1e4], dtype=np.float32))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-7)


class TestReductionsAndReshapes:
    def test_global_avg_pool(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 6, 7)).astype(np.float32)
        got = global_avg_pool(x)
        assert got.shape == (2, 5, 1, 1)
        np.testing.assert_allclose(
            got[..., 0, 0], x.astype(np.float64).mean(axis=(2, 3)), rtol=1e-5
        )

    def test_dense_matches_explicit_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n_in = int(rng.integers(1, 20))
            n_out = int(rng.integers(1, 20))
            v = rng.standard_normal(n_in).astype(np.float32)
            weight = rng.standard_normal((n_out, n_in)).astype(np.float32)
            bias = rng.standard_normal(n_out).astype(np.float32)
            want = [
                sum(float(weight[i, j]) * float(v[j]) for j in range(n_in)) + float(bias[i])
                for i in range(n_out)
            ]
            np.testing.assert_allclose(dense(v, weight, bias), want, rtol=1e-5, atol=1e-5)

    def test_dense_rejects_mismatch(self):
        with pytest.raises(ConfigError):
            dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_upsample_nearest(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        got = upsample_nearest(x, 2)
        want = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]], dtype=np.float32
        ).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(got, want)

    def test_upsample_indexing_rule(self):
        """out[y, x] == in[y // f, x // f] for random tensors and factors."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = int(rng.integers(1, 4))
            x = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
            got = upsample_nearest(x, f)
            for y in range(4 * f):
                for xx in range(5 * f):
                    np.testing.assert_array_equal(
                        got[0, :, y, xx], x[0, :, y // f, xx // f]
                    )

    def test_concat_channels(self):
        a = np.ones((1, 2, 3, 3), dtype=np.float32)
        b = np.zeros((1, 3, 3, 3), dtype=np.float32)
        got = concat_channels(a, b)
        assert got.shape == (1, 5, 3, 3)
        np.testing.assert_array_equal(got[:, :2], a)
        np.testing.assert_array_equal(got[:, 2:], b)
        with pytest.raises(ConfigError):
            concat_channels(a, np.zeros((1, 3, 4, 4), dtype=np.float32))

    def test_add_requires_equal_shapes(self):
        a = np.ones((1, 2, 3, 3), dtype=np.float32)
        np.testing.assert_array_equal(add(a, a), 2 * a)
        with pytest.raises(ConfigError):
            add(a, np.ones((1, 2, 3, 4), dtype=np.float32))

    def test_channel_scale_broadcast_forms(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        s = rng.standard_normal(4).astype(np.float32)
        want = x * s.reshape(1, 4, 1, 1)
        np.testing.assert_array_equal(channel_scale(x, s), want)
        s2 = rng.standard_normal((2, 4)).astype(np.float32)
        want2 = x * s2.reshape(2, 4, 1, 1)
        np.testing.assert_array_equal(channel_scale(x, s2), want2)
        np.testing.assert_array_equal(channel_scale(x, s2.reshape(2, 4, 1, 1)), want2)
        with pytest.raises(ConfigError):
            channel_scale(x, np.zeros(3, dtype=np.float32))


class TestStrayBlasFlag:
    """A product of finite operands with a finite output is the answer, what
    ever status flag the BLAS left; a real overflow still reaches the
    caller's error policy."""

    def case(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 4, 9, 9)).astype(np.float32)
        w = ConvWeights(
            rng.standard_normal((6, 4, 3, 3)).astype(np.float32),
            rng.standard_normal(6).astype(np.float32),
        )
        weight = rng.standard_normal((5, 7)).astype(np.float32)
        return x, w, weight, rng.standard_normal(7).astype(np.float32), np.ones(5, np.float32)

    def test_injection_raises_the_flag(self, stray_blas_flag):
        _x, _w, weight, v, _bias = self.case()
        with pytest.warns(RuntimeWarning, match="invalid value"):
            np.matmul(weight, v)

    def test_same_bytes_and_no_warning(self, request):
        x, w, weight, v, bias = self.case()
        want_conv, want_dense = conv2d(x, w), dense(v, weight, bias)
        ranks = request.getfixturevalue("stray_blas_flag")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_dense = dense(v, weight, bias)
        with np.errstate(all="raise"):
            got_conv = conv2d(x, w)
        assert got_conv.tobytes() == want_conv.tobytes()
        assert got_dense.tobytes() == want_dense.tobytes()
        assert ranks == [3, 5]

    @pytest.mark.parametrize("inject", [False, True])
    def test_real_overflow_reaches_the_policy(self, request, inject):
        if inject:
            request.getfixturevalue("stray_blas_flag")
        x, w, weight, v, bias = self.case()
        w.kernel *= np.float32(1e36)
        # invalid="ignore": the injected flag comes again on the recompute.
        with np.errstate(over="raise", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="overflow"):
                dense(v * np.float32(1e36), weight * np.float32(1e36), bias)
            with pytest.raises(FloatingPointError, match="overflow"):
                conv2d(x * np.float32(1e36), w)


def max_pool_reference(x, kernel, stride):
    """Loop max pool over ceil-sized output, ignoring out-of-range taps."""
    n, c, h, w = x.shape
    oh = -(-h // stride)
    ow = -(-w // stride)
    out = np.empty((n, c, oh, ow), dtype=np.float32)
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    ys = range(oy * stride, min(oy * stride + kernel, h))
                    xs = range(ox * stride, min(ox * stride + kernel, w))
                    out[b, ch, oy, ox] = max(x[b, ch, y, xx] for y in ys for xx in xs)
    return out


def max_pool_windows_oracle(x, kernel, stride):
    """The vectorized max pool that max_pool2d replaced: a -inf pad on the
    right and bottom, then one max over each strided sliding window."""
    x = as_tensor(x)
    h, w = x.shape[2:]
    pad_h = (-(-h // stride) - 1) * stride + kernel - h
    pad_w = (-(-w // stride) - 1) * stride + kernel - w
    xp = np.pad(x, ((0, 0), (0, 0), (0, max(pad_h, 0)), (0, max(pad_w, 0))), constant_values=-np.inf)
    windows = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(windows.max(axis=(4, 5)))


POOL_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)


class TestMaxPool:
    @pytest.mark.parametrize(
        "kernel, stride", [(1, 2), (2, 3), (1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (3, 1)],
    )
    @pytest.mark.parametrize("share", [0.3, 1.0])
    def test_bytes_match_both_oracles(self, kernel, stride, share):
        """Bit for bit, from NCHW and channels-last inputs, for k < s, k = s
        and k > s: windows holding NaN, +-inf, and -0.0 and 0.0 in both
        orders.  The loop reference's Python max keeps the first of tied
        zeros and passes over a NaN that follows a number, where np.maximum
        keeps the later zero and any NaN; so it checks x with every NaN and
        zero made 0.0."""
        rng = np.random.default_rng(kernel * 10 + stride)
        for h, w in [(1, 1), (2, 5), (7, 7), (8, 6)]:
            x = hostile(rng, (2, 3, h, w), POOL_SPECIALS, share)
            plain = np.where(np.isnan(x) | (x == 0), np.float32(0.0), x)
            for arg, oracles in (
                (x, [max_pool_windows_oracle]),
                (plain, [max_pool_windows_oracle, max_pool_reference]),
            ):
                for order in (arg, channels_last(arg)):
                    got = max_pool2d(order, kernel, stride)
                    assert is_channels_last(got)
                    for oracle in oracles:
                        assert same_bytes(got, oracle(arg, kernel, stride))

    @pytest.mark.parametrize("shape, kernel, stride", [((1, 512, 13, 13), 2, 1), ((1, 16, 416, 416), 2, 2)])
    def test_bytes_match_both_oracles_on_tiny_yolov3_pools(self, shape, kernel, stride):
        """Tiny YOLOv3's stride-1 pool, which reads past its 13x13 input, and
        its first pool.  The loop reference checks one channel, with its
        zeros made 0.0 (previous test)."""
        rng = np.random.default_rng(shape[1])
        x = hostile(rng, shape, POOL_SPECIALS, 0.2)
        want = max_pool_windows_oracle(x, kernel, stride)
        for arg in (x, channels_last(x)):
            got = max_pool2d(arg, kernel, stride)
            assert is_channels_last(got) and same_bytes(got, want)
        plain = np.where(np.isnan(x[:, :1]) | (x[:, :1] == 0), np.float32(0.0), x[:, :1])
        assert same_bytes(max_pool2d(plain, kernel, stride), max_pool_reference(plain, kernel, stride))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 4))
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            x = rng.standard_normal((1, 3, h, w)).astype(np.float32)
            assert same_bytes(max_pool2d(x, k, stride), max_pool_reference(x, k, stride))

    def test_stride_one_keeps_size(self):
        """kernel 2 stride 1 output matches input size (edge windows shrink)."""
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        got = max_pool2d(x, 2, 1)
        assert got.shape == (1, 1, 3, 3)
        want = np.array([[4, 5, 5], [7, 8, 8], [7, 8, 8]], dtype=np.float32)
        np.testing.assert_array_equal(got[0, 0], want)

    def test_ceil_output_size(self):
        x = np.zeros((1, 1, 13, 13), dtype=np.float32)
        assert max_pool2d(x, 2, 2).shape == (1, 1, 7, 7)


class TestAsTensor:
    def test_rank_enforced(self):
        with pytest.raises(ConfigError):
            as_tensor(np.zeros((3, 4, 4)))

    def test_c_contiguous_output(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)[:, ::-1]
        assert as_tensor(x).flags["C_CONTIGUOUS"]

    def test_channels_last_kept_without_a_copy(self):
        x = channels_last(np.zeros((2, 3, 4, 5), dtype=np.float32))
        assert as_tensor(x) is x


def _zeros(*shape):
    return np.zeros(shape, dtype=np.float32)


class TestArgumentRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: ConvWeights(_zeros(2, 1, 3), _zeros(2)), "kernel must be (c_out, c_in/groups, k, k), got (2, 1, 3)"),
        (lambda: ConvWeights(_zeros(2, 1, 3, 1), _zeros(2)), "kernel must be (c_out, c_in/groups, k, k), got (2, 1, 3, 1)"),
        (lambda: ConvWeights(_zeros(2, 1, 2, 2), _zeros(2)), "kernel side must be odd, got 2"),
        (lambda: ConvWeights(_zeros(2, 1, 3, 3), _zeros(3)), "bias shape (3,) does not match c_out 2"),
        (lambda: ConvWeights(_zeros(3, 1, 3, 3), _zeros(3), groups=2), "c_out 3 not divisible by groups 2"),
        (
            lambda: depthwise_conv2d(_zeros(1, 2, 4, 4), ConvWeights(_zeros(2, 2, 3, 3), _zeros(2), groups=2)),
            "depthwise kernel must be (c_in, 1, k, k), got (2, 2, 3, 3)",
        ),
        (lambda: dense(_zeros(3), _zeros(2, 3), _zeros(3)), "dense bias shape (3,) does not match 2 outputs"),
        (lambda: upsample_nearest(_zeros(1, 1, 2, 2), 0), "upsample factor must be >= 1, got 0"),
        (lambda: max_pool2d(_zeros(1, 1, 2, 2), 0, 1), "pool kernel and stride must be >= 1"),
        (lambda: max_pool2d(_zeros(1, 1, 2, 2), 1, 0), "pool kernel and stride must be >= 1"),
    ])
    def test_refuses(self, call, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()


# Signed zeros and subnormals, but no magnitude that a conv sum could
# overflow from.
SMALL_SPECIAL_INPUTS = SPECIAL_INPUTS[np.abs(SPECIAL_INPUTS) < 1]


class TestChannelsLast:
    """Each kernel gives the same bytes for an input and for its
    channels-last copy, and matches its oracle: the memory order of an
    input is not part of a kernel's contract, its NCHW shape is."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 2),
        big=st.booleans(),
        c_in=st.sampled_from([1, 3, 16]),
        c_out=st.sampled_from([1, 2, 12]),
        k=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2]),
        h=st.integers(1, 24),
        w=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv2d(self, n, big, c_in, c_out, k, stride, h, w, seed):
        """Products below and above OpenBLAS's small-matrix bound of 10**6
        multiply-adds (all of a big case's are above), one-row kernels and
        one-pixel maps: the bytes of one pixel-major product over the whole
        padded input."""
        if big:
            c_in, c_out, h, w = c_in + 48, c_out + 48, h + 32, w + 48
            out_h, out_w = conv_output_hw(h, w, k, stride)
            assert out_h * out_w * c_in * k * k * c_out > 10**6
        rng = np.random.default_rng(seed)
        x = hostile(rng, (n, c_in, h, w), SMALL_SPECIAL_INPUTS, 0.2)
        weights = ConvWeights(
            hostile(rng, (c_out, c_in, k, k), SPECIAL_WEIGHTS[:4], 0.2),
            hostile(rng, (c_out,), np.array([-0.0, 0.0], dtype=np.float32), 0.5),
        )
        want = conv2d_whole_oracle(x, weights, stride)
        for arg in (x, channels_last(x)):
            got = conv2d(arg, weights, stride)
            assert is_channels_last(got)
            assert same_bytes(got, want)

    @pytest.mark.parametrize("c_in, c_out, h, w", [(16, 1, 5, 13), (49, 1, 24, 40), (49, 2, 5, 13), (49, 12, 1, 40)])
    def test_conv2d_1x1_small_products(self, c_in, c_out, h, w):
        """A 1x1 product below OpenBLAS's small-matrix bound, or by a
        one-row kernel, sums in an order set by its operands' memory layout.
        On the OpenBLAS these shapes were picked with, an NCHW view of the
        pixels sums them otherwise than C-contiguous rows do; both memory
        orders of the input give the oracle's bytes."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
        weights = ConvWeights(
            rng.standard_normal((c_out, c_in, 1, 1)).astype(np.float32),
            rng.standard_normal(c_out).astype(np.float32),
        )
        want = conv2d_whole_oracle(x, weights)
        for arg in (x, channels_last(x)):
            assert same_bytes(conv2d(arg, weights), want)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(0, 2),
        k=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2]),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        channels=st.one_of(
            st.tuples(st.just(0), st.integers(1, 12)),
            st.tuples(st.integers(1, 3), st.integers(-1, 1)),
        ),
        share=st.sampled_from([0.0, 0.25, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_depthwise_conv2d(self, n, k, stride, h, w, channels, share, seed):
        """Width 1, maps lower than the kernel, empty batches, and channel
        counts one below, at and one above those where a block holds 1, 2
        and 3 output rows of out_w * c elements."""
        out_w = conv_output_hw(h, w, k, stride)[1]
        rows, c = channels
        if rows:
            c += tensor_core._SCRATCH // (rows * out_w)
        x, weights = hostile_depthwise_case(np.random.default_rng(seed), n, c, h, w, share, k)
        want = depthwise_strided_oracle(x, weights, stride)
        for arg in (x, channels_last(x)):
            got = depthwise_conv2d(arg, weights, stride)
            assert is_channels_last(got)
            assert same_bytes(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 40),
        h=st.integers(1, 30),
        w=st.integers(1, 30),
        factor=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_elementwise_and_reshaping_kernels(self, n, c, h, w, factor, seed):
        """In-place leaky_relu and add(out=), upsample_nearest,
        concat_channels, channel_scale and global_avg_pool: the same bytes
        from a channels-last input as from its NCHW original.  The first
        four return channels-last arrays (upsample_nearest and
        concat_channels from an NCHW input too); global_avg_pool, whose float32
        sum follows memory order, reduces in NCHW order."""
        rng = np.random.default_rng(seed)
        specials = np.array([0.0, -0.0, 1e-45, -1e-45, 2.5e-39, np.inf, -np.inf], dtype=np.float32)
        x, y = (hostile(rng, (n, c, h, w), specials, 0.2) for _ in range(2))
        xl, yl = channels_last(x), channels_last(y)

        got = xl.copy(order="K")
        assert leaky_relu(got, out=got) is got
        assert is_channels_last(got) and same_bytes(got, leaky_relu_oracle(x))

        got = xl.copy(order="K")
        with np.errstate(invalid="ignore"):  # inf + -inf
            assert add(got, yl, out=got) is got
            want = x + y
        assert is_channels_last(got) and same_bytes(got, want)

        for fn in (lambda a, b: upsample_nearest(a, factor), concat_channels):
            got, want = fn(xl, yl), fn(x, y)
            assert is_channels_last(got) and is_channels_last(want) and same_bytes(got, want)

        finite = np.nan_to_num(x, posinf=3.0, neginf=-3.0)
        scales = rng.standard_normal((n, c)).astype(np.float32)
        assert same_bytes(channel_scale(channels_last(finite), scales), finite * scales[:, :, None, None])
        pooled = global_avg_pool(channels_last(finite))
        assert same_bytes(pooled, global_avg_pool(finite))
        np.testing.assert_allclose(pooled[..., 0, 0], finite.astype(np.float64).mean(axis=(2, 3)), rtol=1e-5, atol=1e-6)


class TestOracleNetwork:
    def test_reference_grids_match_oracle_kernels(self, monkeypatch):
        """execute on the reference network gives the same grid bytes as a
        run with the einsum depthwise and np.where leaky ReLU patched in at
        every name the forward pass looks them up under.  Both runs share
        one process and one BLAS, so this holds on any machine."""
        spec = arch_graph.load_bundled_config("reference")
        store = arch_graph.WeightStore.random(spec, seed=0)
        x = np.random.default_rng(0).random((1, *spec.input_shape), dtype=np.float32)
        fast = arch_graph.execute(spec, store, x)
        patched = 0
        for module in (tensor_core, nn_modules, arch_graph):
            for name, oracle in (("depthwise_conv2d", depthwise_einsum_oracle), ("leaky_relu", leaky_relu_oracle)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, oracle)
                    patched += 1
        assert patched == 5
        slow = arch_graph.execute(spec, store, x)
        for a, b in zip(fast, slow):
            assert same_bytes(a, b)

    def test_reference_grids_match_whole_input_conv(self, monkeypatch):
        """The blocked conv2d gives the same grid bytes as the whole-input
        one patched in at every name the forward pass looks it up under."""
        spec = arch_graph.load_bundled_config("reference")
        store = arch_graph.WeightStore.random(spec, seed=0)
        x = np.random.default_rng(0).random((1, *spec.input_shape), dtype=np.float32)
        fast = arch_graph.execute(spec, store, x)
        patched = 0
        for module in (tensor_core, nn_modules, arch_graph):
            if hasattr(module, "conv2d"):
                monkeypatch.setattr(module, "conv2d", conv2d_whole_oracle)
                patched += 1
        assert patched == 3
        slow = arch_graph.execute(spec, store, x)
        for a, b in zip(fast, slow):
            assert same_bytes(a, b)

    def test_reference_grids_match_the_pinned_digest(self, monkeypatch):
        """The sha256 of the three reference grids' bytes (seed-0 weights,
        the seed-0 uniform input) is pinned, so a kernel change that moves
        one grid byte fails here, whatever the detect text shows; the
        oracle runs above would share an aliasing bug with the fast run.
        The digest holds only under the BLAS runtime it was taken with."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        if workloads.blas_runtime() != workloads.PINNED_BLAS:
            pytest.skip(f"digest pinned under {workloads.PINNED_BLAS!r}")
        spec = arch_graph.load_bundled_config("reference")
        store = arch_graph.WeightStore.random(spec, seed=0)
        x = np.random.default_rng(0).random((1, *spec.input_shape), dtype=np.float32)
        grids = arch_graph.execute(spec, store, x)
        digest = hashlib.sha256(b"".join(grid.tobytes() for grid in grids)).hexdigest()
        assert digest == "5bc66debfa722bcdff0a063acc7c7fcd0ec7d45e56f93d4ffd15cdfd1e0f16a9"
