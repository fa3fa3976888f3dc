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
            ("input 3 8 8\nanchors large 0.5,0.5\nconv 1 1 1\n", "need all"),
            ("input 3 8 8\nanchors huge 0.5,0.5\nconv 1 1 1\n", "unknown scale tag"),
            ("input 3 8 8\nanchors large 0.5\nconv 1 1 1\n", "not w,h"),
            ("input 3 8 8\nanchors large nan,0.2\nconv 1 1 1\n", "positive and finite, got 'nan,0.2'"),
            ("input 3 8 8\nanchors large 0.2,inf\nconv 1 1 1\n", "positive and finite, got '0.2,inf'"),
            ("input 3 8 8\nanchors large 1e999,0.2\nconv 1 1 1\n", "positive and finite, got '1e999,0.2'"),
            ("input 3 8 8\nanchors large -0.2,0.2\nconv 1 1 1\n", "positive and finite"),
            ("input 3 8 8\ndetect big\n", "unknown scale tag"),
            ("input 3 8 8\npep 8 4 4 1\n", "line 2"),  # proj1 > expansion
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
            args = (rng.integers(1, 6), rng.integers(1, 33), rng.integers(1, 4))
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
    dtype, shape and bytes, and the repr of every other field (stride,
    padding, groups), so a change to draw order, fan-in scaling, dtype or
    conv settings shows."""
    h = hashlib.sha256()
    for obj in params:
        _feed(h, obj)
    return h.hexdigest()


# Digests of WeightStore.zeros and WeightStore.random at seeds 0, 1, 2.
STORE_DIGESTS = {
    "reference": (
        "61a2b4c477e93ca2e7a26fc34667f8b90ebbbb9510589abfa0dea332f808cf97",
        "82a7d42533ad257eef0f19797175a66a8968a773b5efea3a16b87a243260cd8c",
        "d68146dd30e1934dd8c7ebead89714aeb667e9d6a32e3503449e63a05977fef8",
        "53f9cde671a986a39b1b04da338321ec61ace70e6e08ecf0ae39efad98c90432",
    ),
    "tiny-yolov3": (
        "93b843758a3356d73acf7383c38809dc2917ee60cae318a40c11aac0c86628e0",
        "7e2787da0a22414cf803bc50f7468f78f07f2e4cc4d6d4ca4f38c086afad3065",
        "051f01afbbe92daa6c2275f15973b63e33961b225b036dd580a14dc9fe83eb27",
        "caff798987624c536187b27d59ee357ecd75af3a0e104e44ffcd71b2da762978",
    ),
    "explore-proto": (
        "d568dbf1211d1481a676037ab881fe51399e7b3374f60b57c13bbba414dd3af0",
        "f524ef8806b64fd43cf95fbb620020967a2ce249bc227c3a06a00d00405dd5d7",
        "940f508de87374442c8f398ee60870c659830df53c355a30911a1c3e24957fef",
        "838995ad7540e23081fd86ddbe5554fdc80f22a01e083f9d5d984d45287fa733",
    ),
}

# Digests of init_*_params(cfg, channels) without an rng, then with
# default_rng(0), (1) and (2).
MODULE_DIGESTS = [
    (init_pep_params, PepConfig(3, 7, 9, 2), 5, (
        "95e3575229072f56247a91b6df33454993da05e8070177d18dfea01674adaa20",
        "5538f0568bc4cb4d2506b8837ecf44d95ca08a4652752f7cb6dcc2f49f2ecbe1",
        "59b72368a2c0b98813c99f8beb37e26ca0f7981e9680ef638718c1c19fa3548d",
        "b94c549e063d85bbd4a96abe48b40c9dfe07ff600c9144eb4d64a49cd7d4a274",
    )),
    (init_pep_params, PepConfig(4, 4, 4, 1), 4, (
        "5a48c1f6ce15c4e300cc4d483664bcefdf9f96399efbb873f479aba41bc69367",
        "ae9f93f9648f1b2d91f25422dd2f5dc88d6e78fa81add50083180404a7e8d117",
        "26efae4b8de979e75c8a62bc47040ed7d172952bbb0d120ffa4c6d2c22503b5c",
        "bf6ffb07bc87fe2c36092454879656418f1bf935c42bc84173c80718a04217d1",
    )),
    (init_ep_params, EpConfig(8, 5, 2), 6, (
        "3b59ecbab3e41beb5dc2ec05208359a971407338ed0ef8cccfcd469ad0226750",
        "8200ee7d8e3fc18b9e7dfb29d75bd02c65566672b39d0f9dfabc0304be1e327a",
        "2010192d3d90b87e77c7254be08d808527615c8a2e1037cdf0f51b8a798dba8b",
        "54650ab89a523971a3e4fbf20d566b7f6534c442356b0306dad8a185e306bb39",
    )),
    (init_ep_params, EpConfig(3, 3, 1), 3, (
        "2cfd1a0fcb0f854497c6ef80401355979581953c777257daabc9a3b79bbcdf5e",
        "53a3ffd97921c4c179e98137197797c2e5f63e6cc35db0e5eb65708174b3f8ab",
        "1f161d8bc28329275833b67b62f1ca3f20e5fdf5fd15dfd98c2a43bc3ef0dd3b",
        "5fb440849037513d77fead01f2dfcd1841ab969b1926723aa5ead5c9d64912fe",
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
