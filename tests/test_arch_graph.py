"""Config grammar, shape inference, weight-store, and executor tests.

Shape expectations are hand-derived from the layer formulas; executor
tests run the small bundled prototype so the whole file stays fast.
"""

import dataclasses
import hashlib
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactdet import detection
from compactdet.arch_graph import (
    DEFAULT_ANCHORS,
    INPUT_ID,
    SCALE_TAGS,
    ConcatSpec,
    ConvSpec,
    DetectSpec,
    NetworkSpec,
    ParseError,
    ShapeError,
    WeightStore,
    execute,
    infer_shapes,
    init_params,
    linear_conv_ids,
    load_bundled_config,
    node_param_shapes,
    parse_network_spec,
    serialize_network_spec,
)
from compactdet.nn_modules import (
    EpConfig,
    FcaConfig,
    PepConfig,
    draw_tensors,
    param_tensors,
)
from compactdet.tensor_core import ConfigError, concat_channels, conv2d, leaky_relu, upsample_nearest

MINI = """\
input 3 64 64
classes 2
anchors large 0.4,0.4 0.6,0.6 0.9,0.9
anchors medium 0.15,0.15 0.25,0.2 0.3,0.35
anchors small 0.05,0.05 0.08,0.1 0.12,0.08
conv 3 8 2
pep 4 8 8 1
ep 16 16 2
pep 6 12 16 1
ep 24 24 2
pep 8 16 24 1
fca 4
ep 32 32 2
pep 12 24 32 1
ep 48 48 2
conv 1 21 1
detect large
from 8
conv 1 21 1
detect medium
from 5
conv 1 21 1
detect small
"""


class TestParse:
    def test_minimal_document(self):
        spec = parse_network_spec("input 3 32 32\nconv 3 4 1\n")
        assert spec.input_shape == (3, 32, 32)
        assert spec.num_classes == 20  # default
        assert spec.anchors == {k: tuple(v) for k, v in DEFAULT_ANCHORS.items()}
        assert len(spec.nodes) == 1
        assert spec.nodes[0].op == ConvSpec(3, 4, 1)
        assert spec.nodes[0].input_id == INPUT_ID

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_network_spec(
            "# leading comment\n\ninput 3 8 8   # trailing\n\nconv 1 2 1\n# done\n"
        )
        assert len(spec.nodes) == 1

    def test_node_ids_follow_line_order(self):
        spec = parse_network_spec(MINI)
        assert [n.id for n in spec.nodes] == list(range(16))
        assert spec.nodes[12].input_id == 8  # rebound by `from 8`
        assert spec.nodes[14].input_id == 5
        assert spec.nodes[1].input_id == 0  # implicit chaining

    def test_anchors_parsed(self):
        spec = parse_network_spec(MINI)
        assert spec.anchors["large"] == ((0.4, 0.4), (0.6, 0.6), (0.9, 0.9))
        assert spec.anchors_per_scale == 3

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("conv 3 4 1\n", "missing input"),
            ("input 3 8 8\n", "no nodes"),
            ("input 3 8 8\ninput 3 8 8\nconv 1 1 1\n", "line 2"),
            ("input 3 8 8\nconv 1 1\n", "line 2"),
            ("input 3 8 8\nwibble 1\n", "unknown statement"),
            ("input 3 8 8\nconv 1 1 1\nfrom 0\n", "dangling from"),
            ("input 3 8 8\nconcat 0\n", "before it is defined"),
            ("conv 1 1 1\ninput 3 8 8\n", "line 2: input line must precede node lines"),
            ("input 3 8 8\nanchors large\nconv 1 1 1\n", "line 2: anchors needs a scale tag and at least one w,h pair"),
            ("input 3 8 8\nconv 1 1 1\nfrom 0\nfrom 0\nconv 1 1 1\n", "line 4: two from lines in a row"),
            ("input 3 8 8\nconv 1 1 0\n", "stride"),
            ("input 16 16 16\nconv 2 8 1\n", "line 2: conv kernel side must be odd, got 2"),
            (
                "input 3 8 8\nanchors large 0.5,0.5\nconv 1 1 1\ndetect medium\n",
                r"^anchors given for \['large'\], need one set per detect tag \['medium'\]$",
            ),
            ("input 3 8 8\nanchors huge 0.5,0.5\nconv 1 1 1\n", "unknown scale tag"),
            ("input 3 8 8\nanchors large 0.5\nconv 1 1 1\n", "not w,h"),
            ("input 3 8 8\nanchors large nan,0.2\nconv 1 1 1\n", "positive and finite, got 'nan,0.2'"),
            ("input 3 8 8\nanchors large 0.2,inf\nconv 1 1 1\n", "positive and finite, got '0.2,inf'"),
            ("input 3 8 8\nanchors large 1e999,0.2\nconv 1 1 1\n", "positive and finite, got '1e999,0.2'"),
            ("input 3 8 8\nanchors large -0.2,0.2\nconv 1 1 1\n", "positive and finite"),
            ("input 3 8 8\ndetect big\n", "unknown scale tag"),
            ("input 3 8 8\npep 8 4 4 1\n", "line 2"),  # proj1 > expansion
            # Integers are [0-9]+ tokens: no sign, underscore or non-ASCII digit.
            ("input +3 64 64\nconv 1 1 1\n", "line 1: input dim must be a decimal integer"),
            ("input 3 6_4 64\nconv 1 1 1\n", "line 1: input dim must be a decimal integer"),
            ("input 3 \u0666\u0664 64\nconv 1 1 1\n", "must be a decimal integer"),  # Arabic-Indic 64
            ("input 3 -8 8\nconv 1 1 1\n", "must be a decimal integer"),
            ("input 3 8 8\nconv 1 +4 1\n", "line 2: .* must be a decimal integer"),
            ("input 3 8 8\nclasses 2_0\nconv 1 1 1\n", "must be a decimal integer"),
            ("input 3 8 8\nconv 1 1 1\nfrom +0\nconv 1 1 1\n", "line 3: .* must be a decimal integer"),
            (
                "input 3 8 8\nconv 1 21 1\ndetect large\nfrom 0\nconv 1 21 1\ndetect large\n",
                "duplicate detect",
            ),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_network_spec(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_network_spec("input 3 8 8\nconv 3 4 1\nconv x 4 1\n")
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("pep x 4 4 1", "proj1_channels must be a decimal integer, got 'x'"),
            ("ep 4 0 1", "out_channels must be >= 1, got 0"),
            ("fca 0", "reduction_ratio must be >= 1, got 0"),
            ("upsample 2x", "factor must be a decimal integer"),
        ],
    )
    def test_integer_errors_name_the_op_field(self, line, fragment):
        """A grammar argument's label is its op dataclass field name."""
        with pytest.raises(ParseError, match=f"line 2: {fragment}"):
            parse_network_spec(f"input 3 8 8\n{line}\n")

    def test_forward_reference_rejected(self):
        with pytest.raises(ParseError, match="before it is defined"):
            parse_network_spec("input 3 16 16\nfrom 5\nconv 3 4 1\n")
        # A spec built by hand gets the same check from shape inference.
        spec = parse_network_spec("input 3 16 16\nconv 3 4 1\nconv 3 4 1\n")
        ahead = dataclasses.replace(spec.nodes[0], input_id=1)
        with pytest.raises(ParseError, match="not an earlier node"):
            infer_shapes(dataclasses.replace(spec, nodes=(ahead, spec.nodes[1])))

    def test_anchor_count_consistency(self):
        two = "0.1,0.1 0.2,0.2"
        lines = [f"anchors {tag} {two}" for tag in SCALE_TAGS]
        spec = parse_network_spec("input 3 16 16\n" + "\n".join(lines) + "\nconv 3 4 1\n")
        assert spec.anchors_per_scale == 2
        assert spec.detect_channels() == 2 * (5 + 20)
        lines[2] += " 0.3,0.3"
        with pytest.raises(ParseError, match="anchor counts differ"):
            parse_network_spec("input 3 16 16\n" + "\n".join(lines) + "\nconv 3 4 1\n")


class TestBuilder:
    """Networks assembled node by node, outside a full reference config."""

    def test_ids_are_sequential(self):
        spec = parse_network_spec("input 3 16 16\nconv 3 4 1\npep 2 4 4 1\nconcat 0\n")
        assert [(n.id, n.kind) for n in spec.nodes] == [(0, "conv"), (1, "pep"), (2, "concat")]
        assert spec.nodes[2].op == ConcatSpec(0)
        assert infer_shapes(spec).of(2) == (8, 16, 16)

    @pytest.mark.parametrize(
        "anchors, message",
        [
            ({}, r"^anchors given for \[\], need one set per detect tag \['large', 'medium', 'small'\]$"),
            (
                {tag: pairs[:2] if tag == "medium" else pairs for tag, pairs in DEFAULT_ANCHORS.items()},
                "^anchor counts differ between scales$",
            ),
        ],
        ids=["no anchors", "unequal counts"],
    )
    def test_anchors_rule_holds_for_a_spec_built_in_code(self, anchors, message):
        """Shape inference checks the anchors rule that parse does, so a
        spec built in code gets a ParseError, not a bare StopIteration."""
        spec = dataclasses.replace(parse_network_spec(MINI), anchors=anchors)
        with pytest.raises(ParseError, match=message):
            infer_shapes(spec)

    def test_empty_graph_rejected(self):
        # A spec built in code, not parsed, still gets the check from shape inference.
        with pytest.raises(ParseError, match="no nodes"):
            infer_shapes(NetworkSpec(nodes=(), input_shape=(3, 16, 16), num_classes=20, anchors=DEFAULT_ANCHORS))


def random_config_text(rng) -> str:
    """A random document the grammar accepts (it need not pass shape
    inference): every node kind, `from` lines, optional classes and anchors."""
    lines = [f"input {rng.integers(1, 8)} {rng.integers(1, 64)} {rng.integers(1, 64)}"]
    if rng.random() < 0.5:
        lines.append(f"classes {rng.integers(1, 30)}")
    if rng.random() < 0.5:
        count = int(rng.integers(1, 5))
        for tag in SCALE_TAGS:
            pairs = rng.uniform(1e-3, 1.0, (count, 2))
            lines.append(f"anchors {tag} " + " ".join(f"{float(w)!r},{float(h)!r}" for w, h in pairs))
    tags = list(SCALE_TAGS)
    kinds = ["conv", "pep", "ep", "fca", "maxpool", "upsample", "concat", "detect"]
    for node_id in range(int(rng.integers(1, 16))):
        if node_id and rng.random() < 0.2:
            lines.append(f"from {rng.integers(node_id)}")
        kind = kinds[int(rng.integers(len(kinds)))]
        if (kind == "concat" and not node_id) or (kind == "detect" and not tags):
            kind = "fca"
        if kind == "conv":
            args = (2 * rng.integers(0, 3) + 1, rng.integers(1, 33), rng.integers(1, 4))
        elif kind == "pep":
            proj1 = rng.integers(1, 9)
            args = (proj1, proj1 + rng.integers(0, 9), rng.integers(1, 33), rng.integers(1, 3))
        elif kind == "ep":
            args = (rng.integers(1, 33), rng.integers(1, 33), rng.integers(1, 3))
        elif kind == "fca":
            args = (rng.integers(1, 17),)
        elif kind == "maxpool":
            args = (rng.integers(1, 4), rng.integers(1, 4))
        elif kind == "upsample":
            args = (rng.integers(1, 4),)
        elif kind == "concat":
            args = (rng.integers(node_id),)
        else:
            args = (tags.pop(int(rng.integers(len(tags)))),)
        lines.append(" ".join([kind, *(str(a) for a in args)]))
    return "\n".join(lines) + "\n"


class TestSerialize:
    def test_round_trip_mini(self):
        spec = parse_network_spec(MINI)
        again = parse_network_spec(serialize_network_spec(spec))
        assert again == spec

    @pytest.mark.parametrize("name", ["reference", "tiny-yolov3", "explore-proto"])
    def test_round_trip_bundled(self, name):
        spec = load_bundled_config(name)
        again = parse_network_spec(serialize_network_spec(spec))
        assert again == spec

    def test_round_trip_random_graphs(self):
        """Random documents with every node kind and `from` survive
        parse -> serialize -> parse unchanged."""
        rng = np.random.default_rng(51)
        words = set()
        for _ in range(30):
            text = random_config_text(rng)
            words |= {line.split()[0] for line in text.splitlines()}
            spec = parse_network_spec(text)
            assert parse_network_spec(serialize_network_spec(spec)) == spec
        assert words == {
            "input", "classes", "anchors", "from",
            "conv", "pep", "ep", "fca", "maxpool", "upsample", "concat", "detect",
        }

    def test_serializes_explicit_from(self):
        text = serialize_network_spec(parse_network_spec(MINI))
        assert "from 8" in text and "from 5" in text


class TestInferShapes:
    def test_hand_chain(self):
        spec = parse_network_spec(
            "input 3 16 16\n"
            "conv 3 8 2\n"      # 0: (8, 8, 8), pad 1
            "maxpool 2 2\n"     # 1: (8, 4, 4)
            "pep 2 4 8 1\n"     # 2: (8, 4, 4)
            "fca 4\n"           # 3: (8, 4, 4)
            "ep 16 12 2\n"      # 4: (12, 2, 2)
            "upsample 2\n"      # 5: (12, 4, 4)
            "concat 3\n"        # 6: (20, 4, 4)
        )
        table = infer_shapes(spec)
        assert table.of(0) == (8, 8, 8)
        assert table.of(1) == (8, 4, 4)
        assert table.of(2) == (8, 4, 4)
        assert table.of(3) == (8, 4, 4)
        assert table.of(4) == (12, 2, 2)
        assert table.of(5) == (12, 4, 4)
        assert table.of(6) == (20, 4, 4)
        assert table.of(INPUT_ID) == (3, 16, 16)

    def test_maxpool_ceil_sizes(self):
        spec = parse_network_spec("input 1 13 13\nmaxpool 2 2\n")
        assert infer_shapes(spec).of(0) == (1, 7, 7)
        spec = parse_network_spec("input 1 13 13\nmaxpool 2 1\n")
        assert infer_shapes(spec).of(0) == (1, 13, 13)

    def test_concat_spatial_mismatch_names_node(self):
        spec = parse_network_spec(
            "input 3 16 16\nconv 3 4 1\nconv 3 4 2\nconcat 0\n"
        )
        with pytest.raises(ShapeError) as err:
            infer_shapes(spec)
        assert err.value.node_id == 2

    def test_detect_channel_check(self):
        spec = parse_network_spec("input 3 16 16\nconv 1 20 1\ndetect large\n")
        with pytest.raises(ShapeError, match=r"3\*\(5\+20\) = 75"):
            infer_shapes(spec)

    def test_mini_grids(self):
        table = infer_shapes(parse_network_spec(MINI))
        assert table.of(11) == (21, 2, 2)   # large
        assert table.of(13) == (21, 4, 4)   # medium
        assert table.of(15) == (21, 8, 8)   # small


class TestReferenceNetwork:
    def test_three_grid_shapes(self):
        """416x416 in, 20 classes: grids 13/26/52 with 3*(5+20)=75 channels."""
        spec = load_bundled_config("reference")
        table = infer_shapes(spec)
        by_tag = {n.op.scale_tag: table.of(n.id) for n in spec.detect_nodes()}
        assert by_tag["large"] == (75, 13, 13)
        assert by_tag["medium"] == (75, 26, 26)
        assert by_tag["small"] == (75, 52, 52)

    def test_detect_nodes_in_grid_order(self):
        """reference.cfg lists its small grid's detect first (node 41);
        detect_nodes() gives grid order, large to small."""
        spec = load_bundled_config("reference")
        assert [(n.id, n.op.scale_tag) for n in spec.detect_nodes()] == [
            (47, "large"), (44, "medium"), (41, "small"),
        ]

    def test_head_convs_are_linear(self):
        spec = load_bundled_config("reference")
        heads = linear_conv_ids(spec)
        assert len(heads) == 3
        for n in spec.detect_nodes():
            assert n.input_id in heads

    def test_tiny_variant_has_two_detects(self):
        spec = load_bundled_config("tiny-yolov3")
        tags = sorted(n.op.scale_tag for n in spec.detect_nodes())
        assert tags == ["large", "medium"]
        table = infer_shapes(spec)  # shapes must still chain
        by_tag = {n.op.scale_tag: table.of(n.id) for n in spec.detect_nodes()}
        assert by_tag["large"] == (75, 13, 13)
        assert by_tag["medium"] == (75, 26, 26)


class TestWeightStore:
    def test_zeros_matches_node_list(self):
        spec = parse_network_spec(MINI)
        store = WeightStore.zeros(spec)
        assert len(store.params) == len(spec.nodes)
        store.validate_against(spec)

    def test_random_reproducible(self):
        spec = parse_network_spec(MINI)
        a = WeightStore.random(spec, seed=9)
        b = WeightStore.random(spec, seed=9)
        for pa, pb in zip(a.params, b.params):
            for (_, ta), (_, tb) in zip(param_tensors(pa), param_tensors(pb)):
                np.testing.assert_array_equal(ta, tb)

    def test_validate_rejects_wrong_length(self):
        spec = parse_network_spec(MINI)
        store = WeightStore.zeros(spec)
        store.params.pop()
        with pytest.raises(ConfigError, match="entries"):
            store.validate_against(spec)

    def test_validate_rejects_wrong_shape(self):
        spec = parse_network_spec(MINI)
        other = parse_network_spec(MINI.replace("conv 3 8 2", "conv 3 9 2"))
        with pytest.raises(ConfigError, match="expected shape"):
            WeightStore.zeros(other).validate_against(spec)

    def test_param_tensor_order(self):
        spec = parse_network_spec("input 3 8 8\npep 2 4 6 1\nep 4 6 1\nfca 2\nconv 1 5 1\n")
        store = WeightStore.zeros(spec)
        assert [n for n, _ in param_tensors(store.params[0])] == [
            "project_in.kernel", "project_in.bias", "expand.kernel", "expand.bias",
            "depthwise.kernel", "depthwise.bias", "project.kernel", "project.bias",
        ]
        assert [n for n, _ in param_tensors(store.params[1])] == [
            "expand.kernel", "expand.bias", "depthwise.kernel", "depthwise.bias",
            "project.kernel", "project.bias",
        ]
        assert [n for n, _ in param_tensors(store.params[2])] == [
            "reduce_weight", "reduce_bias", "restore_weight", "restore_bias",
        ]
        assert [n for n, _ in param_tensors(store.params[3])] == ["kernel", "bias"]

    def test_fields_give_param_shape_order(self):
        """Each weighted kind builds a parameter object whose field order is
        its param_shapes order, so param_tensors lists the tensors of a
        bundled node in the order the weights file stores them."""
        weighted = set()
        for name in ("reference", "tiny-yolov3", "explore-proto"):
            for node, kind, shapes in node_param_shapes(load_bundled_config(name)):
                if shapes:
                    params = kind.build(draw_tensors(shapes, None))
                    assert [a.shape for _, a in param_tensors(params)] == list(shapes), (name, node.id)
                    weighted.add(kind.word)
        assert weighted == {"conv", "pep", "ep", "fca"}
        assert param_tensors(None) == []


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def params_digest(*params) -> str:
    """sha256 over parameter objects: class and field names, each array's
    dtype, shape and bytes, and the repr of every other field (a conv's
    groups), so a change to draw order, fan-in scaling, dtype or grouping
    shows."""
    h = hashlib.sha256()
    for obj in params:
        _feed(h, obj)
    return h.hexdigest()


# Digests of WeightStore.zeros and WeightStore.random at seeds 0, 1, 2.
STORE_DIGESTS = {
    "reference": (
        "1bb77ab48c0766edb768fc16c84da6bc0c2678cf2e57f3b69c312a924a2f6314",
        "517924cbae5fc5f8044bea3b6106e858b85226afa631d86d920370e75a13feb9",
        "2457be4c878b16add6ea22302b3948d6437ba391c9ab8c1f46dc535c55c76466",
        "98eadb37aab19eccfa693e3211924920790dc689aa976b2339a78b9483de5095",
    ),
    "tiny-yolov3": (
        "0f7a94fab91a3b653193efdcc26fb0ea0916c2ba573e128ed297b30e51e04cca",
        "58cb9f168044bb767d5e049ac668015d6395d758aece87f55c5c31ce83b6f461",
        "052d403236eacf6cb1a16308794bb0a467d65b931e6f09298daee5da3bb22609",
        "17a13fe4220e81941cac021a904aae3243cf3c39a83ce57abb8fc57d81cb57e9",
    ),
    "explore-proto": (
        "caf0d5dca16a7902a52c4129b35468248a358ee6156994771db5d19c02862abb",
        "568cb15a9b564277386d8bf8b56dd084d2cddc3cf23384284920f5169fb16040",
        "7067484d4cc8274c427e61e8f152d14316842220652e2c3a1ace4810d153338e",
        "9d63be35dad7e5f294a28b44cb8f04f5e9c5474496fa6d7ff8ffd0f29a992e80",
    ),
}

# Digests of init_params(cfg, channels) without an rng, then with
# default_rng(0), (1) and (2).
MODULE_DIGESTS = [
    (init_params, PepConfig(3, 7, 9, 2), 5, (
        "c0dbf7411f822443c647fbd6c33e7173855c7c0e2300e7e6ceb19daf650abbe7",
        "92db132c08c50adc38fed9740dd6d08bb4d8094b355dc2e1069b58c231d754dc",
        "dd5173deba5dd2a8f6ea49093db25bab6cdd55de0b2a0e1aea91844c3b5248c7",
        "b3378cb149a4b62712d842d623df5d258c99f4f52ab0f674d88bd8bee714f1a7",
    )),
    (init_params, PepConfig(4, 4, 4, 1), 4, (
        "887d6d7dc8e6d3c61bc9909b8d367a8e43bc7ef736c0cc225d5587ea5142a046",
        "ddd330ab702a34fe8100da9f7c972ce71098d2ecebef8cb5b7348782e677d825",
        "f279cc5c6dbaed5cbe43f840b0bbea1cf0ee57466972bd1c7fe79ef17a4632ed",
        "8ff3994036fa39f0c4f2be069dd148ab523189d7cddb92167d0e0370909ff57a",
    )),
    (init_params, EpConfig(8, 5, 2), 6, (
        "f4ff64adb994268c11f533535f60e13cf5cd5f32cc1f9397da197226ab2b8625",
        "e19468eee8f50af749c185b2859c3fbe70fd133c0a4edfc343059d0a99e7c4ad",
        "53b9c0020d2c5140499a4927f9852454f9706e05171fb543cb5f5d6907294492",
        "068decda26c8d0d58020998e6ebeaed4f235e8082a570d1fd5c938cd1afa63d0",
    )),
    (init_params, EpConfig(3, 3, 1), 3, (
        "7cd4cf6efefbdedbbf329567787462be61d6839d08495e29920c2aef74235a82",
        "19ede5e2b4363664ce4749ec509bf300b27de578611ac14bad6a1dbf2c15e7ce",
        "ace290d0a1d9a969811d047f82986920bdb946a1cb32743b0a99bc611b9bde84",
        "4b6d050295e682de583286c37376f7592eeb3426d7086675ff4fb9cb95d5a746",
    )),
    (init_params, FcaConfig(2), 6, (
        "1c19cf29251801dc2999de28884e5cf950fe836d225aa18c04248862d1828c61",
        "75a769b26b56964b676cb9fc8dc49878bf46c7fd319e07ef6ac567813c002c19",
        "5dd2d4d7a9b6f9bb863f4d1a6f322c8b903e097af045702343183538de951805",
        "e7f80642ffa9313343c5ea0ad25b36e7a538fac7837ddbfa742de4b46283bd20",
    )),
    (init_params, FcaConfig(8), 20, (
        "a5f103070d5af925310030cc7f998d257028b384cd9e32e529fa6d80b5900ce5",
        "55a3a1db1d93116e5089e9ca1c91c22299250f7687892c23300373d089024c39",
        "b4847bc1018bdf1cc16d9cb59467c01e4ff6c3d033f29795b2f029aa12ad87ab",
        "3d0523735b305c5866aa8abf6b58fd5ac45f9077e415b8760c7c2d2b0f609e89",
    )),
]


class TestParameterDigests:
    """Pinned streams: every store and block is drawn tensor by tensor from
    its kind's shapes, in storage order, with the same values as ever."""

    @pytest.mark.parametrize("name", list(STORE_DIGESTS))
    def test_weight_stores(self, name):
        spec = load_bundled_config(name)
        stores = [WeightStore.zeros(spec)] + [WeightStore.random(spec, seed=s) for s in range(3)]
        assert tuple(params_digest(*store.params) for store in stores) == STORE_DIGESTS[name]

    @pytest.mark.parametrize(
        "init, cfg, channels, digests",
        MODULE_DIGESTS,
        ids=["pep-stride2", "pep-residual", "ep-stride2", "ep-residual", "fca-6", "fca-20"],
    )
    def test_module_params(self, init, cfg, channels, digests):
        rngs = [None] + [np.random.default_rng(s) for s in range(3)]
        assert tuple(params_digest(init(cfg, channels, rng)) for rng in rngs) == digests


class TestExecute:
    def setup_method(self):
        self.spec = parse_network_spec(MINI)
        self.store = WeightStore.random(self.spec, seed=13)
        rng = np.random.default_rng(14)
        self.x = rng.random((1, 3, 64, 64), dtype=np.float32)

    def test_output_order_and_shapes(self):
        large, medium, small = execute(self.spec, self.store, self.x)
        assert large.shape == (1, 21, 2, 2)
        assert medium.shape == (1, 21, 4, 4)
        assert small.shape == (1, 21, 8, 8)

    def test_bit_identical_rerun(self):
        first = execute(self.spec, self.store, self.x)
        second = execute(self.spec, self.store, self.x)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_all_outputs_float32(self):
        for out in execute(self.spec, self.store, self.x):
            assert out.dtype == np.float32

    def test_grids_are_c_contiguous(self):
        """The kernels work channels-last, but the grids come back
        C-contiguous in NCHW order: a float32 reduction over a grid (the
        benchmark scales its sparse heads by grid.std()) sums in memory
        order, so channels-last grids would move it with the same values."""
        for grid in execute(self.spec, self.store, self.x):
            assert grid.shape[1] > 1 and grid.shape[2] * grid.shape[3] > 1
            assert grid.flags.c_contiguous

    def test_rejects_wrong_input_shape(self):
        with pytest.raises(ConfigError, match="input shape"):
            execute(self.spec, self.store, np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_two_detect_tags_give_two_grids_each_decoded_with_its_anchors(self, monkeypatch):
        """tiny-yolov3 detects at two scales: execute returns its large and
        medium grids, in SCALE_TAGS order, and detect decodes each one with
        its own tag's anchors."""
        spec = load_bundled_config("tiny-yolov3")
        store = WeightStore.random(spec, seed=0)
        x = np.random.default_rng(0).random((1, 3, 416, 416), dtype=np.float32)
        grids = execute(spec, store, x)
        assert [grid.shape for grid in grids] == [(1, 75, 13, 13), (1, 75, 26, 26)]
        decoded = []
        decode = detection.decode_predictions

        def recording(grid, anchors, conf_threshold):
            boxes = decode(grid, anchors, conf_threshold)
            decoded.append((grid.shape, anchors, len(boxes)))
            return boxes

        monkeypatch.setattr(detection, "decode_predictions", recording)
        detection.detect(x, spec, store, conf_threshold=0.25)
        assert [(shape, anchors) for shape, anchors, _ in decoded] == [
            ((1, 75, 13, 13), spec.anchors["large"]),
            ((1, 75, 26, 26), spec.anchors["medium"]),
        ]
        assert all(count > 0 for *_, count in decoded)

    def test_head_logits_unbounded_below(self):
        """Detect inputs skip the activation, so negatives pass unscaled.

        With zero weights everywhere the head conv emits exactly zero;
        biasing a head conv negative must show up unchanged (leaky relu
        would shrink it by 10x).
        """
        store = WeightStore.zeros(self.spec)
        head_id = self.spec.nodes[11].input_id
        store.params[head_id].bias[:] = -3.0
        large, _, _ = execute(self.spec, store, self.x)
        np.testing.assert_array_equal(large, np.full((1, 21, 2, 2), -3.0, dtype=np.float32))

    def test_two_grids_need_anchors_for_their_two_tags_only(self):
        """A config gives anchors for the tags its detect nodes use; a tag
        with no detect node needs none."""
        spec = parse_network_spec(
            "input 3 32 32\nclasses 1\nanchors large 0.5,0.5 0.8,0.8\nanchors small 0.1,0.1 0.2,0.2\n"
            "conv 3 8 2\nconv 1 12 1\ndetect small\nfrom 0\nconv 1 12 2\ndetect large\n"
        )
        assert sorted(spec.anchors) == ["large", "small"]
        store, x = WeightStore.random(spec, seed=3), self.x[:, :, :32, :32].copy()
        assert [g.shape for g in execute(spec, store, x)] == [(1, 12, 8, 8), (1, 12, 16, 16)]
        assert len(detection.detect(x, spec, store, conf_threshold=0.0)) > 0

    def test_node_reading_a_detect_output_by_default(self):
        """Liveness counts every reader: conv 3 reads detect node 2's
        output as its default input, so that output must still be there
        when conv 3 runs."""
        spec = parse_network_spec(
            "input 3 32 32\nclasses 1\nconv 3 8 2\nconv 1 18 1\ndetect large\n"
            "conv 1 18 2\ndetect medium\nconv 1 18 2\ndetect small\n"
        )
        grids = execute(spec, WeightStore.random(spec, seed=1), self.x[:, :, :32, :32].copy())
        assert [g.shape for g in grids] == [(1, 18, 16, 16), (1, 18, 8, 8), (1, 18, 4, 4)]

    def test_concat_operand_lives_until_the_concat(self):
        """Node 0 feeds node 1 and, through with_id, concat node 3: its
        output must outlive node 1, its last reader by input_id."""
        spec = parse_network_spec(
            "input 3 16 16\nclasses 1\nconv 3 4 1\nconv 3 4 2\nupsample 2\nconcat 0\n"
            "conv 1 18 1\ndetect large\nfrom 4\ndetect medium\nfrom 4\ndetect small\n"
        )
        store = WeightStore.random(spec, seed=2)
        x = self.x[:, :, :16, :16].copy()
        p = store.params
        y0 = leaky_relu(conv2d(x, p[0]))
        y3 = concat_channels(upsample_nearest(leaky_relu(conv2d(y0, p[1], 2)), 2), y0)
        want = conv2d(y3, p[4]).tobytes()
        assert [g.tobytes() for g in execute(spec, store, x)] == [want] * 3

    def test_reference_peak_memory(self):
        """Outputs are freed after their last reader, convolutions pad and
        unfold one block at a time, and kernel outputs are activated in
        place: one reference run peaks below 13.6 MiB of traced allocations.
        The 13.28 MiB peak is in node 1, the second stem conv: its 7.9 MiB
        input (node 0's output), its 4.0 MiB output, and one row block's
        padded rows and patch matrix, whose product goes straight into the
        output.  It was 55.7 MiB when all 48 node outputs stayed alive,
        33.7 MiB with whole-input padded copies and patch matrices,
        15.9 MiB with fresh leaky ReLU outputs, and 13.49 MiB while each
        block's product was a temporary."""
        spec = load_bundled_config("reference")
        store = WeightStore.random(spec, seed=0)
        x = np.random.default_rng(0).random((1, *spec.input_shape), dtype=np.float32)
        tracemalloc.start()
        try:
            execute(spec, store, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.6 * 2**20

    def test_interior_conv_is_activated(self):
        """A non-head conv with negative bias shows the 0.1 leaky slope."""
        spec = parse_network_spec(
            "input 3 8 8\nclasses 2\nconv 1 4 1\nconv 1 21 1\ndetect large\n"
            "from 1\ndetect medium\nfrom 1\ndetect small\n"
        )
        store = WeightStore.zeros(spec)
        store.params[0].bias[:] = -2.0
        store.params[1].kernel[:, :, 0, 0] = 1.0  # sum the 4 channels
        large, _, _ = execute(spec, store, np.zeros((1, 3, 8, 8), dtype=np.float32))
        # conv0 emits -2, activation scales to -0.2, head sums 4 of them.
        np.testing.assert_allclose(large, np.full((1, 21, 8, 8), -0.8, dtype=np.float32), rtol=1e-6)


BUNDLED_TEXTS = {
    name: (resources.files("compactdet.configs") / f"{name}.cfg").read_text()
    for name in ("reference", "tiny-yolov3", "explore-proto")
}
ODD_TOKENS = [
    "nan", "inf", "-inf", "1e999", "-1", "0", "0.0", "1e-320", "nan,0.2", "0.2,inf",
    "1e999,1", "-0.5,0.5", "0.5,0.5,0.5", ",", "x", "3.5", "99999", "1_0", "large",
    "from", "detect", "concat", "anchors", "#",
]


@st.composite
def mutated_configs(draw):
    """A bundled config with a few tokens replaced or dropped, lines
    dropped or doubled, or an anchor pair replaced by any two floats."""
    name = draw(st.sampled_from(sorted(BUNDLED_TEXTS)))
    text = BUNDLED_TEXTS[name]
    lines = [line.split() for line in text.splitlines() if line.split("#", 1)[0].strip()]
    tokens = st.one_of(
        st.sampled_from(ODD_TOKENS),
        st.integers(-2, 1000).map(str),
        st.text(alphabet="0123456789.,-einf", max_size=6),
    )
    pairs = st.one_of(
        st.sampled_from(["nan,0.2", "0.2,inf", "1e999,0.1", "-inf,0.3", "0,0.1"]),
        st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}"),
    )
    actions = ["replace", "drop token", "drop line", "double line", "anchor", "anchor"]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(actions))
        if action == "replace":
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(tokens)
        elif action == "drop token" and len(lines[i]) > 1:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif action == "drop line" and len(lines) > 1:
            del lines[i]
        elif action == "double line":
            lines.insert(i, list(lines[i]))
        elif action == "anchor":
            anchor_lines = [k for k, line in enumerate(lines) if line[0] == "anchors" and len(line) > 2]
            if anchor_lines:
                k = draw(st.sampled_from(anchor_lines))
                lines[k][draw(st.integers(2, len(lines[k]) - 1))] = draw(pairs)
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestConfigMutations:
    """Whatever the text, a config either fails with a config error (exit 2
    from the CLI) or parses to finite positive anchors and round-trips."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=mutated_configs())
    def test_parses_cleanly_or_refuses(self, text):
        try:
            spec = parse_network_spec(text)
            infer_shapes(spec)
        except (ParseError, ShapeError, ConfigError):
            return
        for pairs in spec.anchors.values():
            assert all(0 < v < math.inf for pair in pairs for v in pair)
        assert parse_network_spec(serialize_network_spec(spec)) == spec
