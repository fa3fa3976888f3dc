"""Cost model, quantizer, and weights-file tests.

Every cost expectation below is derived by hand from the counting rules
(2 ops per MAC, 1 op per activated/pooled/scaled element, params include
biases) and written down as a literal, so a regression in the counting
code cannot hide behind a regenerated expectation.
"""

import dataclasses
import functools
import hashlib
import math
import struct
import tempfile
import time
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from compactdet import arch_graph, complexity, detection
from compactdet.arch_graph import (
    INPUT_ID,
    ConvSpec,
    MaxPoolSpec,
    NetworkSpec,
    NodeSpec,
    ParseError,
    ShapeError,
    UpsampleSpec,
    WeightStore,
    execute,
    infer_shapes,
    linear_conv_ids,
    load_bundled_config,
    node_param_shapes,
    parse_network_spec,
)
from compactdet.complexity import (
    ConstraintSet,
    NodeCost,
    QuantizedWeights,
    WeightFormatError,
    check_constraints,
    count_network,
    count_node,
    dequantize_tensor,
    load_weights,
    model_size_bytes,
    quantize_tensor,
    save_weights,
)
from compactdet.explorer import DesignSpace, _walk, expand_point, parse_design_space
from compactdet.nn_modules import (
    EpConfig, FcaConfig, PepConfig, fca_bottleneck_width, param_tensors, residual_active,
)
from compactdet.tensor_core import ConfigError, ConvWeights
from references import fake_quantize

BUNDLED = ("reference", "tiny-yolov3", "explore-proto")


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
        assert (report.total.macs, report.total_ops, report.total_params) == (
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


def _conv_oracle(k, c_in, c_out, out_hw, groups=1, activated=True) -> NodeCost:
    macs = k * k * (c_in // groups) * c_out * out_hw
    ops = 2 * macs + (c_out * out_hw if activated else 0)
    return NodeCost(macs, ops, k * k * (c_in // groups) * c_out + c_out)


def _dense_oracle(c_in, c_out, activated) -> NodeCost:
    macs = c_in * c_out
    return NodeCost(macs, 2 * macs + (c_out if activated else 0), c_in * c_out + c_out)


def oracle_cost(op, in_shape, out_shape, linear) -> NodeCost:
    """The slow per-layer formulas, written out by kind: the oracle for the
    cost rules, which derive the same counts from each kind's parameter
    shapes."""
    c_in, a_in, a_out = in_shape[0], in_shape[1] * in_shape[2], out_shape[1] * out_shape[2]
    if isinstance(op, ConvSpec):
        return _conv_oracle(op.kernel, c_in, op.out_channels, a_out, activated=not linear)
    if isinstance(op, (PepConfig, EpConfig)):
        cost = NodeCost()
        if isinstance(op, PepConfig):
            cost = _conv_oracle(1, c_in, op.proj1_channels, a_in)
            c_in = op.proj1_channels
        e = op.expansion_channels
        cost = (
            cost
            + _conv_oracle(1, c_in, e, a_in)
            + _conv_oracle(3, e, e, a_out, groups=e)
            + _conv_oracle(1, e, op.out_channels, a_out, activated=False)
        )
        return cost + NodeCost(0, op.out_channels * a_out if residual_active(op, in_shape[0]) else 0, 0)
    if isinstance(op, FcaConfig):
        width = fca_bottleneck_width(c_in, op.reduction_ratio)
        return (
            _dense_oracle(c_in, width, True)
            + _dense_oracle(width, c_in, False)
            + NodeCost(0, 2 * c_in + c_in * a_in, 0)
        )
    if isinstance(op, (MaxPoolSpec, UpsampleSpec)):
        return NodeCost(0, out_shape[0] * a_out, 0)
    return NodeCost()  # concat and detect


class TestCostRulesReadParamShapes:
    """The cost rules count each weighted kind's layers from its parameter
    shapes: per layer, a kernel and then its 1-D bias."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_shapes_alternate_kernel_and_bias(self, name):
        weighted = 0
        for node, _, shapes in node_param_shapes(load_bundled_config(name)):
            assert len(shapes) % 2 == 0
            for kernel, bias in zip(shapes[::2], shapes[1::2]):
                assert len(kernel) >= 2 and bias == (kernel[0],), (node, shapes)
            weighted += bool(shapes)
        assert weighted > 0

    @pytest.mark.parametrize("name", BUNDLED)
    def test_params_are_tensor_sizes(self, name):
        spec = load_bundled_config(name)
        table = infer_shapes(spec)
        heads = linear_conv_ids(spec)
        for node, _, shapes in node_param_shapes(spec):
            cost = count_node(node, table.of(node.input_id), table.of(node.id), node.id in heads)
            assert cost.params == sum(math.prod(shape) for shape in shapes), node
        assert model_size_bytes(spec, 32) == 4 * count_network(spec).total_params

    def test_matches_per_layer_oracle_over_design_space(self):
        """Every node of every point of the bundled design space."""
        text = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        space = parse_design_space(text, load_bundled_config("explore-proto"))
        points = 0
        for point in space.enumerate_points():
            spec = expand_point(space, point)
            table = infer_shapes(spec)
            heads = linear_conv_ids(spec)
            for node in spec.nodes:
                args = (table.of(node.input_id), table.of(node.id), node.id in heads)
                assert count_node(node, *args) == oracle_cost(node.op, *args), (point, node)
            points += 1
        assert points == space.size() == 4374


# One conv op with the same shapes twice: first activated, then a raw head.
TWIN_CONV_CFG = """\
input 21 4 4
classes 2
conv 1 21 1
conv 1 21 1
detect large
"""

# A concat reads n12, whose out channels a slot sets.
REFERENCE_CONCAT_DOC = "slot n12.out values 140,150,160\nfca_site n9 optional\n"
FCA_HEAD_DOC = "slot n0.out values 8,12\nfca_site n2 optional\n"

# n1 feeds the detect through the fca: without the fca it would be a raw head.
FCA_HEAD_NET = """\
input 3 16 16
classes 2
conv 3 8 2      # 0
conv 1 21 1     # 1
fca 3           # 2
detect large    # 3
"""


def walk_every_point(space, segments) -> int:
    """Walk each point of space over one segment memo: each gives
    expand_point's spec, and its totals are a fresh count_network's."""
    points = 0
    for point in space.enumerate_points():
        spec, ops, params = _walk(space, point, segments)
        assert spec == expand_point(space, point), point
        report = count_network(spec)
        assert (ops, params) == (report.total_ops, report.total_params), point
        points += 1
    return points


class TestSegmentMemo:
    """explorer._walk's segment memo: expanding a point also chains and costs it."""

    def test_shared_memo_matches_fresh_counts_over_design_space(self):
        text = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        space = parse_design_space(text, load_bundled_config("explore-proto"))
        assert walk_every_point(space, {}) == 4374

    @pytest.mark.parametrize(
        "config, doc, size", [("reference", REFERENCE_CONCAT_DOC, 6)], ids=["concat-of-a-slotted-node"]
    )
    def test_shared_memo_matches_fresh_counts_where_shapes_and_heads_vary(self, config, doc, size):
        """The concat's key holds the shape of the node it concatenates.
        Raw heads are the prototype's on every point (next test)."""
        assert walk_every_point(parse_design_space(doc, load_bundled_config(config)), {}) == size

    def test_no_point_changes_the_raw_heads(self):
        """An fca between a conv and its detect takes no fca_site, so the
        walk's raw heads are linear_conv_ids of the prototype."""
        with pytest.raises(ParseError, match="^line 2: fca_site n2 passes a detect node its channels"):
            parse_design_space(FCA_HEAD_DOC, parse_network_spec(FCA_HEAD_NET))

    def test_raw_head_and_activated_twin_cost_apart(self):
        space = parse_design_space("", parse_network_spec(TWIN_CONV_CFG))
        spec = expand_point(space, ())
        table = infer_shapes(spec)
        activated, head = spec.nodes[0], spec.nodes[1]
        assert activated.op == head.op and table.of(0) == table.of(1) == table.of(INPUT_ID)
        assert linear_conv_ids(spec) == {1}
        _, ops, params = _walk(space, (), {})
        rows = count_network(spec).rows
        assert (ops, params) == (sum(c.ops for *_, c in rows), sum(c.params for *_, c in rows))
        assert rows[0][2] == count_node(activated, table.of(INPUT_ID), table.of(0))
        assert rows[1][2] == count_node(head, table.of(0), table.of(1), linear=True)
        assert rows[0][2].ops - rows[1][2].ops == 21 * 4 * 4  # the activation


# Node 2 concatenates a 4x4 map with an 8x8 one.  Its twin's node 2 has the
# same op and input shape, and reads a 4x4 node 0.
MISMATCHED_CONCAT_CFG = """\
input 3 8 8
conv 3 4 1
conv 3 4 2
concat 0
"""
MATCHED_CONCAT_CFG = MISMATCHED_CONCAT_CFG.replace("4 1\nconv 3 4 2", "4 2\nconv 3 4 1")


def slotless(text: str) -> DesignSpace:
    """A space with no slots over a network, left unchecked, so that its one
    point can reach what a parsed space refuses."""
    return DesignSpace(base=parse_network_spec(text), slots=())


class TestMemoHidesNoCheck:
    """A shared segment memo never lets a network through that a fresh
    count refuses."""

    FORWARD_REF = NetworkSpec(
        nodes=(NodeSpec(0, ConvSpec(1, 4, 1), input_id=1), NodeSpec(1, ConvSpec(1, 4, 1), input_id=0)),
        input_shape=(3, 8, 8),
    )

    @pytest.mark.parametrize("memo", [None, {}], ids=["fresh", "memo"])
    def test_forward_reference_and_mismatched_concat_raise(self, memo):
        """Fresh: count_network.  Memo: the explorer's path, a space parsed
        over the network and its point walked over a search's memo."""

        def count(spec):
            if memo is None:
                return count_network(spec)
            return _walk(parse_design_space("", spec), (), memo)

        with pytest.raises(ParseError, match="node 0 references node 1"):
            count(self.FORWARD_REF)
        with pytest.raises(ShapeError, match="^node 2: concat inputs 4x4 and 8x8 differ spatially"):
            count(parse_network_spec(MISMATCHED_CONCAT_CFG))
        assert memo in (None, {})  # no failure is cached

    def test_failing_node_raises_again_with_the_same_memo(self):
        """A failing walk caches nothing, so it raises again, as infer_shapes
        raises.  The memo also holds the twin's walk, whose node 2 has the
        same op and input shape; but a key holds its space's own _Segments,
        which hash by identity, so no key the twin left can serve the
        failing space."""
        segments = {}
        _walk(slotless(MATCHED_CONCAT_CFG), (), segments)
        twin_keys = set(segments)
        space = slotless(MISMATCHED_CONCAT_CFG)
        for _ in range(2):
            with pytest.raises(ShapeError, match="^node 2: concat inputs 4x4 and 8x8 differ spatially"):
                _walk(space, (), segments)
            assert set(segments) == twin_keys
        assert not any(seg in space._segments for seg, *_ in twin_keys)


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


def conv_settings(params) -> list:
    convs = [params] if isinstance(params, ConvWeights) else [
        v for v in vars(params).values() if isinstance(v, ConvWeights)
    ]
    return [c.groups for c in convs]


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

    @pytest.mark.parametrize("bits", [0, 16])
    def test_unstorable_precision_refused(self, tmp_path, bits):
        path = tmp_path / "w.bin"
        with pytest.raises(ConfigError, match=f"^storable precisions are 8 and 32 bits, got {bits}$"):
            save_weights(path, self.spec, self.store, bits=bits)
        assert not path.exists()

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
        values; a scale of 3e38 passes the first check but overflows.  The
        file is refused when the tensor is read."""
        path = tmp_path / "w8.bin"
        save_weights(path, self.spec, self.store, bits=8)
        data = bytearray(path.read_bytes())
        data[7:15] = struct.pack("<fi", scale, zero_point)
        path.write_bytes(bytes(data))
        loaded, _ = load_weights(path, self.spec)
        with pytest.raises(WeightFormatError, match="node 0"):
            list(loaded.params)

    def test_non_finite_bias_in_8bit_file(self, tmp_path):
        """Biases stay f32 in 8-bit files and are checked too."""
        path = tmp_path / "w8.bin"
        save_weights(path, self.spec, self.store, bits=8)
        kernel_bytes = self.store.params[0].kernel.size
        data = bytearray(path.read_bytes())
        start = 7 + 8 + kernel_bytes
        data[start:start + 4] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(data))
        loaded, _ = load_weights(path, self.spec)
        with pytest.raises(WeightFormatError, match="node 0 .* bias"):
            list(loaded.params)

    def test_non_finite_pep_bias_in_32bit_file(self, tmp_path):
        """The refusal names the tensor by its parameter field path."""
        spec = parse_network_spec("input 3 8 8\npep 2 4 6 1\n")
        path = tmp_path / "pep.bin"
        save_weights(path, spec, WeightStore.zeros(spec), bits=32)
        data = bytearray(path.read_bytes())
        start = 7 + 4 * 2 * 3  # header, then the (2, 3, 1, 1) project_in kernel
        data[start:start + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        loaded, _ = load_weights(path, spec)
        with pytest.raises(WeightFormatError, match=r"node 0 \(pep\) tensor project_in\.bias: non-finite"):
            list(loaded.params)

    @pytest.mark.parametrize("bits", [8, 32])
    def test_loads_writable_float32_arrays(self, tmp_path, bits):
        """Each loaded tensor is its own aligned, writable float32 array, and
        every node is built with the saved store's conv groups."""
        path = tmp_path / "w.bin"
        save_weights(path, self.spec, self.store, bits=bits)
        loaded, _ = load_weights(path, self.spec)
        loaded.validate_against(self.spec)
        for saved, got in zip(self.store.params, loaded.params):
            assert type(got) is type(saved)
            for (name, want), (_, arr) in zip(param_tensors(saved), param_tensors(got)):
                assert arr.dtype == np.float32
                assert arr.flags.writeable and arr.flags.aligned and arr.flags.owndata
                if bits == 32 or name.endswith("bias"):
                    np.testing.assert_array_equal(arr, want)
            assert conv_settings(got) == conv_settings(saved)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(a, self.spec, self.store, bits=8)
        save_weights(b, self.spec, self.store, bits=8)
        assert a.read_bytes() == b.read_bytes()


def tensors_digest(store) -> str:
    h = hashlib.sha256()
    for params in store.params:
        for _, arr in param_tensors(params):
            assert arr.dtype.str == "<f4"
            h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of the save_weights bytes of WeightStore.random(seed=0) and of the
# tensors load_weights reads back, at 8 then 32 bits.
FILE_DIGESTS = {
    "reference": (
        "1f30436c3f1c487182a9b946611b2e24da42fa83a58b963dd13f77a2e9fa334d",
        "372845a487990ef90a08d477355f93de669ffc578332fc6027ba189549905004",
        "0e8e7bd5147689bb5d0f6e882dbeab54159251978f770d4a5ea959db67fe67cf",
        "16f818ede3730641c61b7867078de30740a4bec68934b507be5cfe7270ca2e68",
    ),
    "tiny-yolov3": (
        "35407d07193323810b120accd9d9d09ee5a4f22373d6b2900f360bd36f71a9d3",
        "03d5ec32a81d941ba4dee71102a80d9f0a3c464971cd9b1dfa9b33ec148ab18f",
        "588e097ce6f0614ac6b1608f7e057203394960b255ffc4fa3aeb0e29e88a6d9e",
        "59d66a05239e93d73c1d7c77be9d64f6494378d181d8e6a5a6d881b9720d4b30",
    ),
    "explore-proto": (
        "51f9b96b18e6791b6a9350459bb9279878baf6996e8d3c5244de3a4b7d4861d8",
        "795bc58f0adfafd86c30c7c7fff4b6776544e14ca94953295fe499e336cec9de",
        "e7617071d8b704f3d34376d93773f77c13260ebbf65e8fd4850ef739116f98a6",
        "ebbd74fc11e48bb277419c07f9d14b83c4ad254d9b0331791f0481f1d1cf98c6",
    ),
}


# A runnable network with a node of every weighted kind.
STREAM_CFG = """\
input 3 16 16
classes 1
conv 3 8 2
pep 4 8 8 1
ep 12 8 2
fca 2
conv 1 18 1
detect large
from 1
conv 1 18 1
detect medium
from 0
conv 1 18 1
detect small
"""


class TestStreamedStore:
    """A loaded store reads each node's tensors from its file when a pass
    over its params reaches that node, and keeps none of them after."""

    def setup_method(self):
        self.spec = parse_network_spec(STREAM_CFG)
        self.x = np.random.default_rng(5).random((1, 3, 16, 16), dtype=np.float32)

    def saved(self, tmp_path, bits=32):
        path = tmp_path / f"w{bits}.bin"
        save_weights(path, self.spec, WeightStore.random(self.spec, seed=3), bits=bits)
        return path

    @pytest.mark.parametrize("bits", [8, 32])
    def test_reads_each_node_after_the_one_before_has_run(self, tmp_path, monkeypatch, bits):
        """execute reads node k + 1's tensors only after node k has run, and
        when it reads them no earlier node's tensors are alive."""
        store, _ = load_weights(self.saved(tmp_path, bits), self.spec)
        events, alive = [], {}
        real_read = complexity._read_node

        def reading(fh, node, entries):
            events.append(("read", node.id))
            assert all(ref() is None for earlier in range(node.id) for ref in alive[earlier])
            params = real_read(fh, node, entries)
            alive[node.id] = [weakref.ref(arr) for _, arr in param_tensors(params)]
            return params

        def running(forward):
            def run(op, x, params, outputs, linear):
                events.append(("run", sum(kind == "run" for kind, _ in events)))
                return forward(op, x, params, outputs, linear)
            return run

        monkeypatch.setattr(complexity, "_read_node", reading)
        for op, kind in list(arch_graph._KINDS.items()):
            monkeypatch.setitem(arch_graph._KINDS, op, dataclasses.replace(kind, forward=running(kind.forward)))
        execute(self.spec, store, self.x)
        assert events == [(what, i) for i in range(len(self.spec.nodes)) for what in ("read", "run")]
        assert sum(len(refs) for refs in alive.values()) > 0

    @pytest.mark.parametrize("bits", [8, 32])
    def test_runs_twice_with_identical_grids(self, tmp_path, bits):
        """One loaded store serves two forward passes, as the benchmark's
        reference_grids runs it, with the bytes of the store read whole."""
        path = self.saved(tmp_path, bits)
        store, _ = load_weights(path, self.spec)
        first = [g.tobytes() for g in execute(self.spec, store, self.x)]
        second = [g.tobytes() for g in execute(self.spec, store, self.x)]
        whole = WeightStore(load_weights(path, self.spec)[0].params)
        assert first == second == [g.tobytes() for g in execute(self.spec, whole, self.x)]

    def test_validate_against_reads_no_tensor(self, tmp_path, monkeypatch):
        """The shapes come from the file's layout: a matching spec passes and
        a spec with other shapes is refused, and neither reads a tensor."""
        store, _ = load_weights(self.saved(tmp_path), self.spec)

        def never(*args):
            raise AssertionError("a tensor was read")

        monkeypatch.setattr(complexity, "_read_node", never)
        store.validate_against(self.spec)
        other = parse_network_spec(STREAM_CFG.replace("conv 3 8 2", "conv 3 9 2"))
        with pytest.raises(ConfigError, match=r"node 0 \(conv\): tensor shapes"):
            store.validate_against(other)
        fewer = parse_network_spec(STREAM_CFG.rsplit("from 0", 1)[0])
        with pytest.raises(ConfigError, match="entries"):
            store.validate_against(fewer)

    def test_saving_over_its_own_file_is_refused(self, tmp_path):
        """A loaded store saved back to its own file, under any spelling of
        the path, is refused and the file kept; read whole first, or saved
        elsewhere, it is written."""
        path = self.saved(tmp_path, 32)
        before = path.read_bytes()
        store, _ = load_weights(path, self.spec)
        for same in (path, str(path), tmp_path / "." / path.name):
            with pytest.raises(ConfigError, match=r"is the file this store reads: read it whole first"):
                save_weights(same, self.spec, store, bits=8)
            assert path.read_bytes() == before
        other = tmp_path / "other.bin"
        save_weights(other, self.spec, store, bits=8)
        assert load_weights(other, self.spec)[1] == 8
        save_weights(path, self.spec, WeightStore(store.params), bits=8)
        assert path.read_bytes() == other.read_bytes()

    def test_rewritten_file_is_refused_when_read(self, tmp_path):
        """A file replaced after it was opened is checked again on each pass,
        so an 8-bit file in place of the f32 one is refused, not misread."""
        path = self.saved(tmp_path, 32)
        store, _ = load_weights(path, self.spec)
        save_weights(path, self.spec, WeightStore.random(self.spec, seed=3), bits=8)
        with pytest.raises(WeightFormatError, match="no longer a 32-bit"):
            list(store.params)

    def test_same_length_rewrite_is_refused_when_read(self, tmp_path):
        """A file rewritten after a pass with other weights of the same
        length and precision is refused on the next pass, not read as the
        new file."""
        path = self.saved(tmp_path, 32)
        store, _ = load_weights(path, self.spec)
        execute(self.spec, store, self.x)
        size = path.stat().st_size
        time.sleep(0.02)  # some file systems stamp times from a clock that ticks every few ms
        save_weights(path, self.spec, WeightStore.random(self.spec, seed=1), bits=32)
        assert path.stat().st_size == size
        with pytest.raises(WeightFormatError, match="changed since it was opened"):
            execute(self.spec, store, self.x)

    def test_reference_detect_peaks_below_the_f32_store(self, tmp_path):
        """Opening reference weights and one detect on a noise frame, a
        thousand boxes, peak below the f32 payload's size, about 13.3 MiB of
        activations and one node's parameters.  Holding the whole store
        peaked at about 29 MiB: 15.4 MiB of tensors beside the activations."""
        spec = load_bundled_config("reference")
        path = tmp_path / "ref.w"
        save_weights(path, spec, WeightStore.random(spec, seed=0), bits=32)
        frame = np.random.default_rng(0).integers(0, 256, size=(416, 416, 3), dtype=np.uint8)
        tensor, _ = detection.letterbox_image(frame, spec.input_shape[1:])
        tracemalloc.start()
        try:
            store, _ = load_weights(path, spec)
            boxes = detection.detect(tensor, spec, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(boxes) > 1000
        assert peak < model_size_bytes(spec, 32)


class TestWeightsFileDigests:
    @pytest.mark.parametrize("name", list(FILE_DIGESTS))
    def test_saved_bytes_and_loaded_tensors(self, tmp_path, name):
        spec = load_bundled_config(name)
        store = WeightStore.random(spec, seed=0)
        got = []
        for bits in (8, 32):
            path = tmp_path / f"w{bits}.bin"
            save_weights(path, spec, store, bits=bits)
            loaded, _ = load_weights(path, spec)
            got += [hashlib.sha256(path.read_bytes()).hexdigest(), tensors_digest(loaded)]
        assert tuple(got) == FILE_DIGESTS[name]


MUTATION_SPEC = parse_network_spec("input 3 8 8\nconv 3 6 1\npep 2 4 6 1\nep 8 5 2\nfca 2\n")
SPECIAL_VALUES = [
    struct.pack("<f", v) for v in (float("nan"), float("inf"), -float("inf"), 3e38, -1.0, 0.0)
] + [struct.pack("<i", v) for v in (-1, 256, 2**31 - 1)] + [b"\x7f", b"\xff", b"\x80", b"\x00"]


@functools.lru_cache(maxsize=None)
def intact_weights(bits: int) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.bin"
        save_weights(path, MUTATION_SPEC, WeightStore.random(MUTATION_SPEC, seed=71), bits=bits)
        return path.read_bytes()


@st.composite
def mutated_weights(draw):
    """A small weights file with a few byte patches, maybe cut or extended."""
    data = bytearray(intact_weights(draw(st.sampled_from([8, 32]))))
    # Half the patches land in the header and first tensor's fields.
    positions = st.one_of(st.integers(0, 24), st.integers(0, len(data) - 1))
    patches = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(SPECIAL_VALUES))
    for pos, patch in draw(st.lists(st.tuples(positions, patches), max_size=6)):
        data[pos:pos + len(patch)] = patch[: len(data) - pos]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data) + draw(st.binary(max_size=3))


class TestWeightsFileMutations:
    """Whatever the bytes, load_weights gives a finite store or refuses the
    file with WeightFormatError, when it opens the file or when the store's
    tensors are read; nothing else escapes."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=mutated_weights())
    def test_loads_finite_or_refuses(self, tmp_path, data):
        path = tmp_path / "mutated.bin"
        path.write_bytes(data)
        try:
            store, bits = load_weights(path, MUTATION_SPEC)
        except WeightFormatError:
            return
        assert bits in (8, 32)
        store.validate_against(MUTATION_SPEC)
        try:
            nodes = list(store.params)
        except WeightFormatError:
            return
        for params in nodes:
            for _, arr in param_tensors(params):
                assert arr.dtype == np.float32 and np.isfinite(arr).all()
