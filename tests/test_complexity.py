"""Cost model, quantizer, and weights-file tests.

Every cost expectation below is derived by hand from the counting rules
(2 ops per MAC, 1 op per activated/pooled/scaled element, params include
biases) and written down as a literal, so a regression in the counting
code cannot hide behind a regenerated expectation.
"""

import struct

import numpy as np
import pytest

from compactdet.arch_graph import (
    WeightStore,
    load_bundled_config,
    param_tensors,
    parse_network_spec,
)
from compactdet.complexity import (
    ConstraintSet,
    NodeCost,
    QuantizedWeights,
    WeightFormatError,
    check_constraints,
    count_network,
    dequantize_tensor,
    fake_quantize,
    load_weights,
    model_size_bytes,
    quantize_tensor,
    save_weights,
)
from compactdet.tensor_core import ConfigError


def report_for(text):
    return count_network(parse_network_spec(text))


class TestCountingRules:
    def test_conv_hand_count(self):
        """3x3 conv, 3 -> 4 channels, 8x8 output, activated.

        macs = 9 * 3 * 4 * 64 = 6912; ops = 2 * 6912 + 4 * 64 = 14080;
        params = 9 * 3 * 4 + 4 = 112.
        """
        report = report_for("input 3 8 8\nconv 3 4 1\n")
        assert report.rows[0][2] == NodeCost(macs=6912, ops=14080, params=112)

    def test_linear_head_conv_drops_activation(self):
        """A conv feeding detect loses the c_out * hw activation term."""
        text = (
            "input 3 8 8\nclasses 2\nconv 1 21 1\ndetect large\n"
            "from 0\ndetect medium\nfrom 0\ndetect small\n"
        )
        report = report_for(text)
        macs = 1 * 3 * 21 * 64
        assert report.rows[0][2] == NodeCost(macs=macs, ops=2 * macs, params=3 * 21 + 21)

    def test_pep_hand_count(self):
        """pep 2 4 8 1 on (8, 4, 4): residual fires; totals by sub-layer:

        proj1 8->2 @16: 256 macs, 544 ops, 18 params
        expand 2->4 @16: 128 macs, 320 ops, 12 params
        dw 3x3 g4 @16:  576 macs, 1216 ops, 40 params
        proj2 4->8 @16: 512 macs, 1024 ops (linear), 40 params
        residual add:   128 ops
        """
        report = report_for("input 8 4 4\npep 2 4 8 1\n")
        assert report.rows[0][2] == NodeCost(macs=1472, ops=3232, params=110)

    def test_pep_no_residual_when_stride_2(self):
        with_res = report_for("input 8 4 4\npep 2 4 8 1\n").rows[0][2]
        spec = parse_network_spec("input 8 8 8\npep 2 4 8 2\n")  # same 4x4 output
        without = count_network(spec).rows[0][2]
        # Sub-layer a_in doubles fourfold at stride 2, so compare just the
        # residual term at equal output size: recompute by hand instead.
        assert without.ops == (
            2 * (8 * 2 * 64) + 2 * 64      # proj1 on 8x8 input
            + 2 * (2 * 4 * 64) + 4 * 64    # expand on 8x8 input
            + 2 * (9 * 4 * 16) + 4 * 16    # depthwise at 4x4
            + 2 * (4 * 8 * 16)             # linear proj2
        )
        assert with_res.ops - 8 * 16 == (
            2 * (8 * 2 * 16) + 2 * 16
            + 2 * (2 * 4 * 16) + 4 * 16
            + 2 * (9 * 4 * 16) + 4 * 16
            + 2 * (4 * 8 * 16)
        )

    def test_ep_hand_count(self):
        """ep 6 5 2 on (4, 4, 4): a_in 16, a_out 4, no residual.

        expand 4->6 @16: 384 macs, 864 ops, 30 params
        dw 3x3 g6 @4:    216 macs, 456 ops, 60 params
        project 6->5 @4: 120 macs, 240 ops (linear), 35 params
        """
        report = report_for("input 4 4 4\nep 6 5 2\n")
        assert report.rows[0][2] == NodeCost(macs=720, ops=1560, params=125)

    def test_fca_hand_count(self):
        """fca 4 on (16, 4, 4): width 4.

        pool 16 + dense 16->4 (64 macs, 132 ops, 68 params) + dense 4->16
        (64 macs, 128 ops, 80 params) + sigmoid 16 + rescale 256.
        """
        report = report_for("input 16 4 4\nfca 4\n")
        assert report.rows[0][2] == NodeCost(macs=128, ops=548, params=148)

    def test_pool_upsample_concat_detect(self):
        text = (
            "input 4 8 8\nclasses 2\nmaxpool 2 2\nupsample 2\nconv 1 21 1\n"
            "detect large\nfrom 2\ndetect medium\nfrom 2\ndetect small\n"
        )
        report = report_for(text)
        costs = {node_id: cost for node_id, _, cost in report.rows}
        assert costs[0] == NodeCost(0, 4 * 16, 0)    # maxpool to 4x4
        assert costs[1] == NodeCost(0, 4 * 64, 0)    # upsample back to 8x8
        assert costs[3] == NodeCost(0, 0, 0)         # detect is free
        assert report.total_params == costs[2].params

    def test_totals_are_row_sums(self):
        report = count_network(load_bundled_config("explore-proto"))
        total = NodeCost()
        for _, _, cost in report.rows:
            total = total + cost
        assert report.total == total
        assert (report.total_macs, report.total_ops, report.total_params) == (
            total.macs, total.ops, total.params,
        )

    def test_branch_order_invariance(self):
        """Listing the two head branches in either order gives equal totals."""
        a = report_for(
            "input 3 16 16\nclasses 2\nconv 3 8 2\nconv 3 12 2\n"
            "conv 1 21 1\ndetect large\n"
            "from 1\nconv 1 21 1\ndetect medium\n"
            "from 0\nconv 1 21 1\ndetect small\n"
        )
        b = report_for(
            "input 3 16 16\nclasses 2\nconv 3 8 2\nconv 3 12 2\n"
            "from 0\nconv 1 21 1\ndetect small\n"
            "from 1\nconv 1 21 1\ndetect medium\n"
            "from 1\nconv 1 21 1\ndetect large\n"
        )
        assert a.total == b.total

    def test_format_table_layout(self):
        table = report_for("input 3 8 8\nconv 3 4 1\n").format_table()
        lines = table.splitlines()
        assert lines[0] == "node_id\tkind\tmacs\tops\tparams"
        assert lines[1] == "0\tconv\t6912\t14080\t112"
        assert lines[2] == "TOTAL\t-\t6912\t14080\t112"


class TestReferenceBudgets:
    def test_reference_totals_frozen(self):
        report = count_network(load_bundled_config("reference"))
        assert report.total_ops == 4644924066
        assert report.total_params == 4024600

    def test_tiny_variant_totals_frozen(self):
        report = count_network(load_bundled_config("tiny-yolov3"))
        assert report.total_ops == 5478974592

    def test_reference_sizes_frozen(self):
        spec = load_bundled_config("reference")
        assert model_size_bytes(spec, 8) == 4088357
        assert model_size_bytes(spec, 32) == 16098400


class TestModelSize:
    def test_hand_case(self):
        """conv 3->4 (108 weights, 4 biases) + fca on 4 ch at r=2 (width 2:
        8 + 8 weights, 2 + 4 biases).  124 weights, 10 biases, 3 tensors.

        32-bit: 124*4 + 10*4 = 536.  8-bit: 124 + 40 + 3*8 = 188.
        """
        spec = parse_network_spec("input 3 8 8\nconv 3 4 1\nfca 2\n")
        assert model_size_bytes(spec, 32) == 536
        assert model_size_bytes(spec, 8) == 188

    def test_rejects_other_precisions(self):
        spec = parse_network_spec("input 3 8 8\nconv 3 4 1\n")
        with pytest.raises(ConfigError):
            model_size_bytes(spec, 16)

    def test_counts_match_an_allocated_store(self):
        """The shape-derived counts equal those of a real zero store."""
        for name in ("reference", "tiny-yolov3", "explore-proto"):
            spec = load_bundled_config(name)
            tensors = [
                (tname, arr)
                for params in WeightStore.zeros(spec).params
                for tname, arr in param_tensors(params)
            ]
            weights = [arr.size for tname, arr in tensors if not tname.endswith("bias")]
            biases = sum(arr.size for tname, arr in tensors if tname.endswith("bias"))
            assert model_size_bytes(spec, 32) == 4 * (sum(weights) + biases)
            assert model_size_bytes(spec, 8) == sum(weights) + 4 * biases + 8 * len(weights)

    def test_param_free_nodes_cost_nothing(self):
        a = model_size_bytes(parse_network_spec("input 3 8 8\nconv 3 4 1\n"), 32)
        b = model_size_bytes(
            parse_network_spec("input 3 8 8\nconv 3 4 1\nmaxpool 2 2\nupsample 2\n"), 32
        )
        assert a == b


class TestQuantization:
    def test_round_trip_error_bounded(self):
        """1000 random tensors: |dequant(quant(w)) - w| <= scale / 2."""
        rng = np.random.default_rng(61)
        for _ in range(1000):
            kind = rng.integers(0, 4)
            size = int(rng.integers(1, 400))
            scale_mag = 10.0 ** rng.uniform(-3, 3)
            w = rng.standard_normal(size).astype(np.float32) * scale_mag
            if kind == 1:
                w = np.abs(w)          # all-positive range
            elif kind == 2:
                w = -np.abs(w)         # all-negative range
            elif kind == 3:
                w = np.full(size, float(w[0]), dtype=np.float32)  # constant
            q = quantize_tensor(w)
            back = dequantize_tensor(q)
            err = np.abs(back.astype(np.float64) - w.astype(np.float64)).max()
            # scale / 2 holds in exact arithmetic; dequantization rounds the
            # product (magnitude <= 255 * scale) once in float32.
            slack = 255 * q.scale * np.finfo(np.float32).eps
            assert err <= q.scale / 2 + slack

    def test_zero_is_exact(self):
        """The grid always contains 0.0 exactly (zero-anchored range)."""
        rng = np.random.default_rng(62)
        for _ in range(100):
            w = rng.uniform(0.5, 2.0, size=32).astype(np.float32)  # min > 0
            q = quantize_tensor(np.append(w, 0.0).astype(np.float32))
            back = dequantize_tensor(q)
            assert back[-1] == 0.0

    def test_constant_tensor_exact(self):
        """A constant tensor sits on a grid end, so it round-trips exactly."""
        for v in (3.0, -527.0, 0.001):
            q = quantize_tensor(np.full(7, v, dtype=np.float32))
            np.testing.assert_allclose(
                dequantize_tensor(q), np.full(7, v, dtype=np.float32), rtol=1e-6
            )

    def test_all_zero_tensor(self):
        q = quantize_tensor(np.zeros(5, dtype=np.float32))
        assert q.scale == 1.0 and q.zero_point == 0
        np.testing.assert_array_equal(dequantize_tensor(q), np.zeros(5, dtype=np.float32))

    def test_values_are_uint8(self):
        q = quantize_tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32))
        assert q.values.dtype == np.uint8
        assert 0 <= q.zero_point <= 255

    def test_extremes_land_on_grid_ends(self):
        w = np.array([-1.0, 1.0], dtype=np.float32)
        q = quantize_tensor(w)
        assert q.values.min() == 0 and q.values.max() == 255

    def test_quantized_weights_validation(self):
        with pytest.raises(ConfigError):
            QuantizedWeights(np.zeros(3, dtype=np.uint8), scale=0.0, zero_point=0)
        with pytest.raises(ConfigError):
            QuantizedWeights(np.zeros(3, dtype=np.uint8), scale=1.0, zero_point=300)


    def test_quantized_weights_reject_nan_scale(self):
        with pytest.raises(ConfigError):
            QuantizedWeights(np.zeros(3, dtype=np.uint8), scale=float("nan"), zero_point=0)


class TestFakeQuantize:
    def test_error_shrinks_with_bits(self):
        """Mean |error| strictly decreases over 4 -> 8 -> 12 bits."""
        rng = np.random.default_rng(63)
        for _ in range(20):
            w = rng.standard_normal(512).astype(np.float32)
            errs = [
                float(np.abs(fake_quantize(w, bits) - w).mean()) for bits in (4, 8, 12)
            ]
            assert errs[0] > errs[1] > errs[2]

    def test_eight_bit_matches_quantizer(self):
        rng = np.random.default_rng(64)
        w = rng.standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(
            fake_quantize(w, 8), dequantize_tensor(quantize_tensor(w))
        )

    def test_bit_range_enforced(self):
        w = np.zeros(3, dtype=np.float32)
        fake_quantize(w, 2)
        fake_quantize(w, 16)
        with pytest.raises(ConfigError):
            fake_quantize(w, 1)
        with pytest.raises(ConfigError):
            fake_quantize(w, 17)


class TestConstraints:
    def test_ops_bound(self):
        cons = ConstraintSet(max_ops=100)
        assert check_constraints(100, 1.0, cons)
        assert not check_constraints(101, 1.0, cons)

    def test_score_bound(self):
        cons = ConstraintSet(min_score=0.5)
        assert check_constraints(1, 0.5, cons)
        assert not check_constraints(1, 0.49, cons)

    def test_nan_score_fails_a_floor(self):
        cons = ConstraintSet(min_score=0.0)
        assert not check_constraints(1, float("nan"), cons)

    def test_unbounded_is_feasible(self):
        assert check_constraints(10**12, float("nan"), ConstraintSet())


class TestWeightsFile:
    def setup_method(self):
        self.spec = parse_network_spec(
            "input 3 8 8\nconv 3 6 1\npep 2 4 6 1\nep 8 5 2\nfca 2\n"
        )
        self.store = WeightStore.random(self.spec, seed=71)

    def test_round_trip_32bit_exact(self, tmp_path):
        path = tmp_path / "w32.bin"
        save_weights(path, self.spec, self.store, bits=32)
        loaded, bits = load_weights(path, self.spec)
        assert bits == 32
        for a, b in zip(self.store.params, loaded.params):
            for (_, ta), (_, tb) in zip(param_tensors(a), param_tensors(b)):
                np.testing.assert_array_equal(ta, tb)

    def test_round_trip_8bit_is_dequantized_grid(self, tmp_path):
        path = tmp_path / "w8.bin"
        save_weights(path, self.spec, self.store, bits=8)
        loaded, bits = load_weights(path, self.spec)
        assert bits == 8
        for a, b in zip(self.store.params, loaded.params):
            for (name, ta), (_, tb) in zip(param_tensors(a), param_tensors(b)):
                if name.endswith("bias"):
                    np.testing.assert_array_equal(ta, tb)  # biases stay 32-bit
                else:
                    want = dequantize_tensor(quantize_tensor(ta))
                    np.testing.assert_array_equal(tb, want)

    def test_file_sizes_match_model_size(self, tmp_path):
        """On-disk payload is header (7 bytes) + model_size_bytes."""
        for bits in (8, 32):
            path = tmp_path / f"w{bits}.bin"
            save_weights(path, self.spec, self.store, bits=bits)
            assert path.stat().st_size == 7 + model_size_bytes(self.spec, bits)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path, self.spec)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, self.spec, self.store, bits=32)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path, self.spec)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, self.spec, self.store, bits=32)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(WeightFormatError, match="trailing"):
            load_weights(path, self.spec)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, self.spec, self.store, bits=32)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(path, self.spec)

    def test_wrong_spec_detected(self, tmp_path):
        """Loading against a different spec hits truncation or trailing."""
        path = tmp_path / "w.bin"
        save_weights(path, self.spec, self.store, bits=32)
        other = parse_network_spec("input 3 8 8\nconv 3 7 1\n")
        with pytest.raises(WeightFormatError):
            load_weights(path, other)

    @pytest.mark.parametrize(
        "scale, zero_point",
        [(float("inf"), 0), (0.0, 0), (3e38, 0), (1.0, -1), (1.0, 256)],
        ids=["inf-scale", "zero-scale", "overflowing-scale", "zero-point-low", "zero-point-high"],
    )
    def test_bad_quantization_fields(self, tmp_path, scale, zero_point):
        """Scale finite and > 0, zero point in [0, 255], finite dequantized
        values; a scale of 3e38 passes the first check but overflows."""
        path = tmp_path / "w8.bin"
        save_weights(path, self.spec, self.store, bits=8)
        data = bytearray(path.read_bytes())
        data[7:15] = struct.pack("<fi", scale, zero_point)
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFormatError, match="node 0"):
            load_weights(path, self.spec)

    def test_non_finite_bias_in_8bit_file(self, tmp_path):
        """Biases stay f32 in 8-bit files and are checked too."""
        path = tmp_path / "w8.bin"
        save_weights(path, self.spec, self.store, bits=8)
        kernel_bytes = self.store.params[0].kernel.size
        data = bytearray(path.read_bytes())
        start = 7 + 8 + kernel_bytes
        data[start:start + 4] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFormatError, match="node 0 .* bias"):
            load_weights(path, self.spec)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(a, self.spec, self.store, bits=8)
        save_weights(b, self.spec, self.store, bits=8)
        assert a.read_bytes() == b.read_bytes()
