"""Kernel-level tests against direct, loop-based reference implementations.

The production kernels use strided views and matmul; every reference here
is the obvious quadruple loop accumulating in float64, so an agreement
check exercises the layout and ordering logic rather than restating it.
"""

import numpy as np
import pytest

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

    def test_rejects_wrong_groups(self):
        w = ConvWeights(np.zeros((4, 1, 3, 3)), np.zeros(4), groups=2)
        with pytest.raises(ConfigError):
            depthwise_conv2d(np.zeros((1, 4, 8, 8), dtype=np.float32), w)


class TestConvOutputHw:
    @pytest.mark.parametrize(
        "h, w, k, s, p, want",
        [
            (416, 416, 3, 1, 1, (416, 416)),
            (416, 416, 3, 2, 1, (208, 208)),
            (13, 13, 1, 1, 0, (13, 13)),
            (7, 9, 3, 2, 1, (4, 5)),
            (5, 5, 5, 1, 0, (1, 1)),
        ],
    )
    def test_formula(self, h, w, k, s, p, want):
        assert conv_output_hw(h, w, k, s, p) == want

    def test_too_small_raises(self):
        with pytest.raises(ConfigError):
            conv_output_hw(2, 2, 5, 1, 0)


class TestPointwise:
    def test_leaky_relu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        np.testing.assert_allclose(
            leaky_relu(x), [-0.2, -0.05, 0.0, 0.5, 2.0], rtol=1e-6
        )

    def test_leaky_relu_matches_piecewise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32) * 10
        want = np.where(x >= 0, x, np.float32(0.1) * x)
        np.testing.assert_array_equal(leaky_relu(x), want)

    def test_sigmoid_range_and_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-80, 80, size=5000).astype(np.float32)
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-6)

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


class TestMaxPool:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 4))
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            x = rng.standard_normal((1, 3, h, w)).astype(np.float32)
            np.testing.assert_array_equal(
                max_pool2d(x, k, stride), max_pool_reference(x, k, stride)
            )

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
