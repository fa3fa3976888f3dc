"""Building-block tests: each module forward is re-derived from raw kernels.

The oracles compose conv2d / leaky_relu / sigmoid by hand in the documented
layer order, so these tests pin the structure (which layers, which
activations, when the skip connection fires) rather than kernel numerics,
which test_tensor_core already covers.
"""

import numpy as np
import pytest

from compactdet import tensor_core as tc
from compactdet.arch_graph import init_params
from compactdet.nn_modules import (
    EpConfig,
    FcaConfig,
    PepConfig,
    build_block_params,
    draw_tensors,
    ep_forward,
    ep_param_shapes,
    fca_bottleneck_width,
    fca_forward,
    param_tensors,
    pep_forward,
    pep_param_shapes,
    residual_active,
)
from compactdet.tensor_core import ConfigError


def pep_reference(x, params, stride, with_residual):
    y = tc.leaky_relu(tc.conv2d(x, params.project_in))
    y = tc.leaky_relu(tc.conv2d(y, params.expand))
    y = tc.leaky_relu(tc.depthwise_conv2d(y, params.depthwise, stride))
    y = tc.conv2d(y, params.project)
    return y + x if with_residual else y


def ep_reference(x, params, stride, with_residual):
    y = tc.leaky_relu(tc.conv2d(x, params.expand))
    y = tc.leaky_relu(tc.depthwise_conv2d(y, params.depthwise, stride))
    y = tc.conv2d(y, params.project)
    return y + x if with_residual else y


def fca_reference(x, params):
    pooled = x.mean(axis=(2, 3))
    out = np.empty_like(x)
    for n in range(x.shape[0]):
        hidden = params.reduce_weight @ pooled[n] + params.reduce_bias
        hidden = np.where(hidden >= 0, hidden, 0.1 * hidden)
        logits = params.restore_weight @ hidden + params.restore_bias
        gates = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
        out[n] = x[n] * gates.reshape(-1, 1, 1)
    return out


class TestPep:
    def test_matches_kernel_chain(self):
        """100 random configs agree with the hand-composed layer sequence."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            c_in = int(rng.integers(1, 10))
            proj1 = int(rng.integers(1, 8))
            expansion = int(rng.integers(proj1, proj1 + 8))
            out = int(rng.integers(1, 12))
            stride = int(rng.choice([1, 2]))
            cfg = PepConfig(proj1, expansion, out, stride)
            params = init_params(cfg, c_in, rng)
            h = int(rng.integers(4, 9))
            x = rng.standard_normal((1, c_in, h, h)).astype(np.float32)
            want = pep_reference(x, params, stride, residual_active(cfg, c_in))
            np.testing.assert_allclose(pep_forward(x, cfg, params), want, atol=1e-6)

    def test_residual_rule(self):
        assert residual_active(PepConfig(2, 4, 8, 1), 8)
        assert not residual_active(PepConfig(2, 4, 8, 2), 8)
        assert not residual_active(PepConfig(2, 4, 8, 1), 6)

    def test_zero_params_residual_is_identity(self):
        """All-zero weights make the conv stack emit 0, so y == x."""
        cfg = PepConfig(3, 6, 5, 1)
        params = init_params(cfg, 5)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 5, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(pep_forward(x, cfg, params), x)

    def test_zero_params_no_residual_is_zero(self):
        cfg = PepConfig(3, 6, 5, 2)
        params = init_params(cfg, 5)
        x = np.ones((1, 5, 6, 6), dtype=np.float32)
        np.testing.assert_array_equal(
            pep_forward(x, cfg, params), np.zeros((1, 5, 3, 3), dtype=np.float32)
        )

    def test_output_shape(self):
        cfg = PepConfig(4, 9, 11, 2)
        params = init_params(cfg, 7, np.random.default_rng(0))
        y = pep_forward(np.zeros((1, 7, 10, 10), dtype=np.float32), cfg, params)
        assert y.shape == (1, 11, 5, 5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PepConfig(8, 4, 8, 1)  # projection wider than expansion
        with pytest.raises(ConfigError):
            PepConfig(0, 4, 8, 1)
        with pytest.raises(ConfigError):
            PepConfig(2, 4, 8, 3)

    def test_rejects_foreign_params(self):
        """Each block compares its whole parameter object with the shapes
        its config gives, so another config's parameters are refused."""
        x = np.zeros((1, 5, 4, 4), dtype=np.float32)
        cfg = PepConfig(3, 6, 5, 1)
        wrong = init_params(PepConfig(3, 7, 5, 1), 5)
        with pytest.raises(ConfigError, match="BlockParams shapes"):
            pep_forward(x, cfg, wrong)
        ecfg = EpConfig(6, 5, 1)
        with pytest.raises(ConfigError, match="BlockParams shapes"):
            ep_forward(x, ecfg, init_params(EpConfig(6, 4, 1), 5))
        with pytest.raises(ConfigError, match="BlockParams shapes"):
            ep_forward(x, ecfg, init_params(ecfg, 4))


class TestEp:
    def test_matches_kernel_chain(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            c_in = int(rng.integers(1, 10))
            expansion = int(rng.integers(1, 16))
            out = int(rng.integers(1, 12))
            stride = int(rng.choice([1, 2]))
            cfg = EpConfig(expansion, out, stride)
            params = init_params(cfg, c_in, rng)
            h = int(rng.integers(4, 9))
            x = rng.standard_normal((1, c_in, h, h)).astype(np.float32)
            want = ep_reference(x, params, stride, residual_active(cfg, c_in))
            np.testing.assert_allclose(ep_forward(x, cfg, params), want, atol=1e-6)

    def test_final_projection_is_linear(self):
        """Craft pass-through weights; a negative input survives unclamped.

        expand and depthwise are identity taps, project negates.  If the
        final projection were activated the -1 level would come out as
        -0.1; linear output must be exactly -1 everywhere.
        """
        cfg = EpConfig(2, 2, 2)  # stride 2 disables the residual
        params = init_params(cfg, 2)
        params.expand.kernel[0, 0, 0, 0] = 1.0
        params.expand.kernel[1, 1, 0, 0] = 1.0
        params.depthwise.kernel[:, 0, 1, 1] = 1.0
        params.project.kernel[0, 0, 0, 0] = -1.0
        params.project.kernel[1, 1, 0, 0] = -1.0
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        y = ep_forward(x, cfg, params)
        np.testing.assert_array_equal(y, -np.ones((1, 2, 2, 2), dtype=np.float32))

    def test_inner_activations_fire(self):
        """Same pass-through net with a negating expand: the leaky slope
        bites twice (expand output -1 -> -0.1, depthwise keeps sign ->
        -0.01 after its activation), then the linear project negates."""
        cfg = EpConfig(1, 1, 2)
        params = init_params(cfg, 1)
        params.expand.kernel[0, 0, 0, 0] = -1.0
        params.depthwise.kernel[0, 0, 1, 1] = 1.0
        params.project.kernel[0, 0, 0, 0] = -1.0
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        y = ep_forward(x, cfg, params)
        np.testing.assert_allclose(y, np.full((1, 1, 2, 2), 0.01, dtype=np.float32), rtol=1e-6)

    def test_residual_applies(self):
        cfg = EpConfig(4, 3, 1)
        params = init_params(cfg, 3)  # zero weights
        rng = np.random.default_rng(33)
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(ep_forward(x, cfg, params), x)


class TestFca:
    def test_matches_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            c = int(rng.integers(1, 20))
            r = int(rng.choice([1, 2, 4, 8, 16]))
            cfg = FcaConfig(r)
            params = init_params(cfg, c, rng)
            n = int(rng.integers(1, 3))
            x = rng.standard_normal((n, c, 4, 5)).astype(np.float32)
            np.testing.assert_allclose(
                fca_forward(x, cfg, params), fca_reference(x, params), atol=1e-6
            )

    def test_zero_params_halve_the_tensor(self):
        """Zero weights give sigmoid(0) = 0.5 gates on every channel."""
        cfg = FcaConfig(4)
        params = init_params(cfg, 8)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(fca_forward(x, cfg, params), 0.5 * x, rtol=1e-6)

    def test_bottleneck_width(self):
        assert fca_bottleneck_width(64, 8) == 8
        assert fca_bottleneck_width(150, 8) == 18
        assert fca_bottleneck_width(3, 8) == 1  # floor would hit zero
        assert fca_bottleneck_width(7, 2) == 3

    def test_gates_bounded(self):
        """Output magnitude never exceeds the input per element."""
        rng = np.random.default_rng(43)
        cfg = FcaConfig(2)
        for _ in range(20):
            c = int(rng.integers(1, 12))
            params = init_params(cfg, c, rng)
            x = rng.standard_normal((1, c, 4, 4)).astype(np.float32)
            y = fca_forward(x, cfg, params)
            assert np.all(np.abs(y) <= np.abs(x) + 1e-7)

    def test_shape_preserved(self):
        cfg = FcaConfig(8)
        params = init_params(cfg, 5, np.random.default_rng(44))
        x = np.zeros((3, 5, 7, 2), dtype=np.float32)
        assert fca_forward(x, cfg, params).shape == x.shape

    def test_rejects_mismatched_width(self):
        cfg = FcaConfig(4)
        params = init_params(cfg, 8)
        with pytest.raises(ConfigError):
            fca_forward(np.zeros((1, 9, 3, 3), dtype=np.float32), cfg, params)


class TestInit:
    def test_zero_by_default(self):
        params = init_params(PepConfig(2, 4, 6, 1), 3)
        assert not params.project_in.kernel.any()
        assert not params.depthwise.kernel.any()

    def test_seeded_init_reproducible(self):
        cfg = EpConfig(8, 6, 2)
        a = init_params(cfg, 4, np.random.default_rng(7))
        b = init_params(cfg, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a.expand.kernel, b.expand.kernel)
        np.testing.assert_array_equal(a.project.bias, b.project.bias)

    def test_shapes(self):
        p = init_params(PepConfig(3, 7, 9, 2), 5, np.random.default_rng(1))
        assert p.project_in.kernel.shape == (3, 5, 1, 1)
        assert p.expand.kernel.shape == (7, 3, 1, 1)
        assert p.depthwise.kernel.shape == (7, 1, 3, 3)
        assert p.depthwise.groups == 7 and p.expand.groups == 1
        assert p.project.kernel.shape == (9, 7, 1, 1)
        f = init_params(FcaConfig(8), 20, np.random.default_rng(2))
        assert f.reduce_weight.shape == (2, 20)
        assert f.restore_weight.shape == (20, 2)

    @pytest.mark.parametrize("shapes, cfg, c_in, count", [
        (pep_param_shapes, PepConfig(3, 7, 9, 2), 5, 8),
        (ep_param_shapes, EpConfig(8, 5, 2), 6, 6),
    ])
    def test_build_block_params_keeps_storage_order(self, shapes, cfg, c_in, count):
        """One builder for both block kinds: param_tensors gives back the
        very arrays it was handed, in order, EP has no first projection,
        and the depthwise layer is grouped per channel."""
        ts = draw_tensors(shapes(cfg, c_in), np.random.default_rng(3))
        assert len(ts) == count
        params = build_block_params(ts)
        got = [arr for _, arr in param_tensors(params)]
        assert len(got) == count and all(a is b for a, b in zip(got, ts))
        assert (params.project_in is None) == isinstance(cfg, EpConfig)
        assert params.depthwise.groups == cfg.expansion_channels == len(params.depthwise.kernel)
