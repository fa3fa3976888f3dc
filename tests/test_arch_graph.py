"""Config grammar, shape inference, weight-store, and executor tests.

Shape expectations are hand-derived from the layer formulas; executor
tests run the small bundled prototype so the whole file stays fast.
"""

import dataclasses
import hashlib
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    linear_conv_ids,
    load_bundled_config,
    param_tensors,
    parse_network_spec,
    serialize_network_spec,
)
from compactdet.nn_modules import (
    EpConfig,
    FcaConfig,
    PepConfig,
    init_ep_params,
    init_fca_params,
    init_pep_params,
)
from compactdet.tensor_core import ConfigError

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
            ("input 3 8 8\nconv 1 1 0\n", "stride"),
            ("input 16 16 16\nconv 2 8 1\n", "line 2: conv kernel side must be odd, got 2"),
            ("input 3 8 8\nanchors large 0.5,0.5\nconv 1 1 1\n", "need all"),
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
        assert infer_shapes(spec).shapes[2] == (8, 16, 16)

    def test_empty_graph_rejected(self):
        # A spec built in code, not parsed, still gets the check from shape inference.
        with pytest.raises(ParseError, match="no nodes"):
            infer_shapes(NetworkSpec(nodes=(), input_shape=(3, 16, 16)))


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
            "proj1.kernel", "proj1.bias", "expand.kernel", "expand.bias",
            "depthwise.kernel", "depthwise.bias", "proj2.kernel", "proj2.bias",
        ]
        assert [n for n, _ in param_tensors(store.params[1])] == [
            "expand.kernel", "expand.bias", "depthwise.kernel", "depthwise.bias",
            "project.kernel", "project.bias",
        ]
        assert [n for n, _ in param_tensors(store.params[2])] == [
            "dense1.weight", "dense1.bias", "dense2.weight", "dense2.bias",
        ]
        assert [n for n, _ in param_tensors(store.params[3])] == ["kernel", "bias"]


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
        "eee9149efef2099192cd55d36b1e3fe0ee6c0f00648ae8ca7941f621e7748d25",
        "9aafe55b73e5098e6b58df346c4b2ecc096b9da48b332c7a00e3331564f6b30a",
        "f3db9a98890a49e4eb5c0de11cadd2d75f31d5db7bbcddf71d05d9c29abf0a8e",
        "8432cf6148b92848042c62ef0d401ef372ca4e5d1a1d0f7eb4ff0d7e45a6f188",
    ),
    "tiny-yolov3": (
        "0f7a94fab91a3b653193efdcc26fb0ea0916c2ba573e128ed297b30e51e04cca",
        "58cb9f168044bb767d5e049ac668015d6395d758aece87f55c5c31ce83b6f461",
        "052d403236eacf6cb1a16308794bb0a467d65b931e6f09298daee5da3bb22609",
        "17a13fe4220e81941cac021a904aae3243cf3c39a83ce57abb8fc57d81cb57e9",
    ),
    "explore-proto": (
        "915d1ec1f2db9b0c5c2565d2f003dde58be8621532b4db79332e3f677aa1e1c5",
        "29f1d8c87673eb13659ceea754f442b9bf7acf5d218b606454194358988f8897",
        "270094186fe61d5d5768e2e8e97a74194848f485027a81b4c0ea5bf8a4223475",
        "07c20981c89379957ef5d332fc05b8069660132dae4ef683494f2f2f6c48ddf7",
    ),
}

# Digests of init_*_params(cfg, channels) without an rng, then with
# default_rng(0), (1) and (2).
MODULE_DIGESTS = [
    (init_pep_params, PepConfig(3, 7, 9, 2), 5, (
        "0e3eb27f45eb41de626119bf01b1d559bba2c59d96f98e809006cf10243d66b3",
        "6c58d86897d0e36c32bfce350c834450854dcff593cc41449702b9bea06ad899",
        "9868a1f1f7a928f54b94cba19a86a842be5d4749ba6ad8db45467886adce784c",
        "d51f7c81803a10481ffd7ef68a1060b0ac346fff5351fd16b735e4dd3d4eefd2",
    )),
    (init_pep_params, PepConfig(4, 4, 4, 1), 4, (
        "258d4f88fcdd547551fd9c56c87ebd36fd49eb603da57fafb2deb60c8286ac50",
        "d0f7b7a5c032877be1b3d2d93c55533852ec8ba671a4f6d6e665982f73b6039a",
        "9f12d911cc5c86301f93f5bf9c754d5ef17e241169e0897b1a47ba63a90eba65",
        "d18040c86a31a22fb780af80c4876ff016b102263fd4e984f7c5f8aaacce3f89",
    )),
    (init_ep_params, EpConfig(8, 5, 2), 6, (
        "44925c30215e55b94f13b44201a28bffc123510f9c3e52752550ef406b32db9c",
        "3bc3531812d1664bf412efe029f8aa7ef085f4cdd3c0a24f167b5360a74c1e3a",
        "a59d2ad1bf40a28f685570ccf57a4b0076ca2c4416bc2cb79e1f2e0e1b44ce06",
        "b37d8638d7546a8a8a77980bf873127b142e353985a9c9361a961cd2e70b9fd2",
    )),
    (init_ep_params, EpConfig(3, 3, 1), 3, (
        "a43b6c3a01d0b48dffca433cbec83ab8e61632de6721081b996c3c49621387cb",
        "823c3b8337521760901985f8c79b5795f39408526b7cd0278afa63815b092284",
        "3966ad17baba4336933c2c1294e16ce3391f3f16aefcc1e0e0875cd7d78739d7",
        "6f0ca0ac72b6215305564bf3f6091bf1996eede68b6078d88931d0287cf2725d",
    )),
    (init_fca_params, FcaConfig(2), 6, (
        "1c19cf29251801dc2999de28884e5cf950fe836d225aa18c04248862d1828c61",
        "75a769b26b56964b676cb9fc8dc49878bf46c7fd319e07ef6ac567813c002c19",
        "5dd2d4d7a9b6f9bb863f4d1a6f322c8b903e097af045702343183538de951805",
        "e7f80642ffa9313343c5ea0ad25b36e7a538fac7837ddbfa742de4b46283bd20",
    )),
    (init_fca_params, FcaConfig(8), 20, (
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

    def test_rejects_wrong_input_shape(self):
        with pytest.raises(ConfigError, match="input shape"):
            execute(self.spec, self.store, np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_requires_three_detect_tags(self):
        spec = load_bundled_config("tiny-yolov3")
        store = WeightStore.zeros(spec)
        x = np.zeros((1, 3, 416, 416), dtype=np.float32)
        with pytest.raises(ConfigError, match="detect nodes"):
            execute(spec, store, x)

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
