"""Design-space construction, point expansion, and search-loop tests.

The evolutionary loop is validated against the brute-force enumerator
(`references.brute_force_search`: same comparator, exact argmax), so the two code paths stay honest about
each other; determinism tests compare full histories, not just winners.
"""

import dataclasses
import functools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compactdet import complexity, explorer
from compactdet.arch_graph import (
    _KINDS,
    INPUT_ID,
    NetworkSpec,
    NodeSpec,
    ParseError,
    infer_shapes,
    load_bundled_config,
    parse_network_spec,
)
from compactdet.complexity import ConstraintSet, count_network
from compactdet.explorer import (
    MAX_REPEAT,
    RAW_BLOCK,
    Candidate,
    DesignSpace,
    HistoryEntry,
    Slot,
    _Stream,
    _walk,
    evaluate,
    expand_point,
    explore,
    format_history_line,
    format_log_header,
    mutable_fields,
    parse_design_space,
    performance,
    sample_point,
    synthetic_evaluator,
)
from compactdet.tensor_core import ConfigError
from references import BRUTE_FORCE_LIMIT, brute_force_search

SPACE_DOC = """\
slot n0.out values 8,12,16
slot n1.expansion values 8,12,16
slot n3.expansion values 12,16,24
slot n5.expansion values 16,24,32
slot n6.reduction values 2,4,8
slot n8.expansion values 24,32,48
fca_site n6 optional
repeat n5 min 0 max 2
"""


@pytest.fixture(scope="module")
def base():
    return load_bundled_config("explore-proto")


@pytest.fixture(scope="module")
def space(base):
    return parse_design_space(SPACE_DOC, base)


class TestPrototype:
    def test_mutable_fields(self, base):
        fields = mutable_fields(base)
        assert fields[(0, "out")] == 8
        assert fields[(1, "proj1")] == 4
        assert fields[(1, "expansion")] == 8
        assert fields[(6, "reduction")] == 4
        assert fields[(2, "expansion")] == 16

    def test_head_convs_pinned(self, base):
        """The three 21-channel convs feeding detect are not slottable."""
        fields = mutable_fields(base)
        for node_id in (10, 12, 14):
            assert (node_id, "out") not in fields


class TestBuildSpace:
    def test_slot_inventory(self, space):
        assert [s.name for s in space.slots] == [
            "n0.out", "n1.expansion", "n3.expansion", "n5.expansion",
            "n5.repeat", "n6.reduction", "n6.present", "n8.expansion",
        ]
        assert space.size() == 3 * 3 * 3 * 3 * 3 * 3 * 2 * 3  # 4374

    def test_base_point_reproduces_prototype(self, base, space):
        assert expand_point(space, space.base_point()) == base

    def test_base_point_takes_a_slots_smallest_value_if_it_lacks_the_prototypes(self, base):
        """The prototype has n0.out 8, one n5 and n6.reduction 4: the point
        keeps 4, and takes 12 and two copies, which the slots offer instead."""
        s = parse_design_space(
            "slot n0.out values 16,12\nslot n6.reduction values 2,4\nrepeat n5 min 2 max 3\n", base
        )
        assert s.base_point() == (12, 2, 4)
        spec = expand_point(s, s.base_point())
        assert spec.nodes[0].op.out_channels == 12
        assert len(spec.nodes) == len(base.nodes) + 1

    def test_one_parse_runs_one_shape_pass(self, base, monkeypatch):
        """The base point's walk applies every node's shape rule, so parsing
        shapes only the prototype (for the repeat checks) with infer_shapes."""
        calls = []
        infer_shapes = explorer.infer_shapes
        monkeypatch.setattr(explorer, "infer_shapes", lambda spec: calls.append(spec) or infer_shapes(spec))
        doc = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        parse_design_space(doc, base)
        assert calls == [base]

    def test_values_sorted_deduped(self, base):
        s = parse_design_space("slot n0.out values 16,8,8,12\n", base)
        assert s.slots[0].values == (8, 12, 16)

    def test_rejects_unknown_slot(self, base):
        with pytest.raises(ParseError, match="^line 1: .*mutable field"):
            parse_design_space("slot n0.reduction values 2,4\n", base)
        with pytest.raises(ParseError, match="^line 1: .*mutable field"):
            parse_design_space("slot n99.out values 2,4\n", base)

    def test_rejects_head_conv_slot(self, base):
        with pytest.raises(ParseError, match="^line 1: .*mutable field"):
            parse_design_space("slot n10.out values 21,42\n", base)

    def test_rejects_nonpositive_values(self, base):
        with pytest.raises(ParseError, match="^line 1: .*positive"):
            parse_design_space("slot n0.out values 0,8\n", base)

    def test_rejects_pep_projection_wider_than_expansion(self, base):
        """proj1 and expansion slots must be jointly valid at every point;
        the check spans two statements, so it names no line."""
        with pytest.raises(ParseError, match="^slot values on n1 allow proj1"):
            parse_design_space("slot n1.proj1 values 4,16\nslot n1.expansion values 8,12\n", base)

    def test_rejects_non_fca_presence_site(self, base):
        with pytest.raises(ParseError, match="^line 1: .*fca"):
            parse_design_space("fca_site n1 optional\n", base)

    def test_rejects_repeat_on_strided_node(self, base):
        with pytest.raises(ParseError, match="^line 1: .*preserve"):
            parse_design_space("repeat n2 min 0 max 2\n", base)  # ep stride 2

    def test_rejects_repeat_on_channel_changing_node(self):
        base = parse_network_spec("input 3 8 8\nconv 3 5 1\nconv 3 7 1\n")
        with pytest.raises(ParseError, match="^line 1: .*preserve"):
            parse_design_space("repeat n1 min 0 max 2\n", base)

    def test_rejects_repeat_with_out_slot(self, base):
        with pytest.raises(ParseError, match="^n5 cannot carry both repeat and out"):
            parse_design_space("slot n5.out values 24,32\nrepeat n5 min 1 max 2\n", base)

    def test_rejects_bad_repeat_bounds(self, base):
        with pytest.raises(ParseError, match="^line 1: repeat bounds"):
            parse_design_space("repeat n5 min 2 max 1\n", base)


class TestRunnableDetector:
    """Every point of a loaded space is a runnable detector: detect nodes,
    and the nodes that set their input channels, are neither slotted nor
    repeated."""

    # An ep feeds the large detect directly; an fca passes n4's channels
    # on to the medium one.
    NET = """\
input 3 16 16
classes 1
conv 3 8 2      # 0
ep 18 18 2      # 1
detect large    # 2
from 0
pep 8 16 18 1   # 3
pep 8 16 18 1   # 4
fca 2           # 5
detect medium   # 6
from 0
conv 1 18 1     # 7
detect small    # 8
"""

    @pytest.mark.parametrize("doc", ["repeat n11 min 0 max 2\n", "repeat n11 min 0 max 0\n"])
    def test_rejects_repeat_on_detect(self, base, doc):
        with pytest.raises(ParseError, match="^line 1: repeat target n11 is a detect node"):
            parse_design_space(doc, base)

    @pytest.fixture(scope="class")
    def net(self):
        return parse_network_spec(self.NET)

    def test_pins_every_node_a_detect_reads(self, net):
        assert {node_id for node_id, _ in mutable_fields(net)} == {0, 3}

    @pytest.mark.parametrize(
        "doc",
        [
            "slot n1.out values 18,20\n",  # ep read by detect
            "slot n5.reduction values 2,4\n",  # fca read by detect
            "slot n4.out values 18,20\n",  # pep read through the fca
        ],
    )
    def test_rejects_slot_on_detect_input(self, net, doc):
        with pytest.raises(ParseError, match="^line 1: .*mutable field"):
            parse_design_space(doc, net)

    def test_rejects_repeat_on_detect_input(self, net):
        """With no copies the fca would pass n3's open out channels on."""
        with pytest.raises(ParseError, match="^line 2: repeat target n4"):
            parse_design_space("slot n3.out values 18,20\nrepeat n4 min 0 max 1\n", net)

    def test_rejects_fca_site_on_detect_input(self, net):
        """Without the fca, n4 would feed the medium detect directly."""
        with pytest.raises(ParseError, match="^line 1: fca_site n5"):
            parse_design_space("fca_site n5 optional\n", net)

    def test_every_point_runs(self, net):
        space = parse_design_space("slot n0.out values 4,8\nslot n3.out values 12,18\n", net)
        for point in space.enumerate_points():
            count_network(expand_point(space, point))


class TestParseSpaceDoc:
    def test_round_trips_the_demo_document(self, base, space):
        again = parse_design_space(SPACE_DOC, base)
        assert again.slots == space.slots

    def test_comments_ignored(self, base):
        s = parse_design_space("# nothing\nslot n0.out values 8,16 # wide\n", base)
        assert s.slots[0].values == (8, 16)

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ("slot n0.out 8,16\n", "line 1"),
            ("slot n0.out values eight\n", "line 1"),
            ("fca_site 6 optional\n", "n<id>"),
            ("repeat n5 min 0\n", "line 1"),
            ("grow n5\n", "unrecognized"),
            # Integers are [0-9]+ tokens and repeat max is at most MAX_REPEAT.
            ("# header\nslot n0.out values 1_6,8\n", "^line 2: "),
            ("slot n0.out values 8,+12\n", "^line 1: "),
            ("slot n0.out values 8,-12\n", "^line 1: "),
            ("slot n0.out values 8,\u0661\u0662\n", "^line 1: "),  # Arabic-Indic 12
            ("fca_site n\u0666 optional\n", "^line 1: "),
            ("repeat n5 min +0 max 2\n", "^line 1: "),
            ("repeat n5 min 0 max 5000\n", "^line 1: repeat max 5000 exceeds 64"),
            ("repeat n5 min 0 max 65\n", "^line 1: "),
            # Each statement target is declared once.
            ("slot n0.out values 8\nslot n0.out values 16\n", "^line 2: duplicate n0.out"),
            ("fca_site n6 optional\nfca_site n6 optional\n", "^line 2: duplicate n6.present"),
            ("repeat n5 min 0 max 1\nrepeat n5 min 1 max 2\n", "^line 2: duplicate n5.repeat"),
            # Every comma-separated value is a [0-9]+ token.
            ("slot n0.out values 8,,16\n", "^line 1: "),
            ("slot n0.out values 8,16,\n", "^line 1: "),
            ("slot n0.out values ,\n", "^line 1: "),
            # Each statement's check names its own line.
            ("slot n0.out values 8\n\nslot n0.size values 8\n", "^line 3: .*mutable field"),
            ("slot n0.out values 8\nfca_site n99 optional\n", "^line 2: node n99 does not exist"),
        ],
    )
    def test_rejects_malformed(self, base, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_design_space(doc, base)

    def test_repeat_bound_is_inclusive(self, base):
        s = parse_design_space(f"repeat n5 min 0 max {MAX_REPEAT}\n", base)
        assert s.slots[0].values == tuple(range(MAX_REPEAT + 1))

    def test_semantic_error_still_parse_error(self, base):
        with pytest.raises(ParseError, match="fca"):
            parse_design_space("fca_site n1 optional\n", base)


class TestExpandPoint:
    def test_field_substitution(self, base):
        s = parse_design_space("slot n0.out values 8,12\n", base)
        spec = expand_point(s, (12,))
        assert spec.nodes[0].op.out_channels == 12
        # Everything else untouched.
        assert spec.nodes[1:] == base.nodes[1:]

    def test_absent_fca_is_removed_and_rewired(self, base):
        s = parse_design_space("fca_site n6 optional\n", base)
        spec = expand_point(s, (0,))
        assert len(spec.nodes) == len(base.nodes) - 1
        assert all(n.kind != "fca" for n in spec.nodes)
        # Node 7 (ep) slid to id 6 and now reads the pep at id 5 directly.
        assert spec.nodes[6].kind == "ep"
        assert spec.nodes[6].input_id == 5
        count_network(spec)  # shapes still chain

    def test_absent_node_remaps_branch_references(self, base):
        """`from` references past a dropped node follow its input."""
        s = parse_design_space("fca_site n6 optional\n", base)
        spec = expand_point(s, (0,))
        # Head convs read old nodes 9, 8, 5; after the drop those sit at
        # ids 8, 7, 5.
        tap_ids = [n.input_id for n in spec.nodes if n.kind == "conv"][1:]
        assert tap_ids == [8, 7, 5]

    def test_repeat_chains_copies(self, base):
        s = parse_design_space("repeat n5 min 0 max 2\n", base)
        base_len = len(base.nodes)
        for copies in (0, 1, 2):
            spec = expand_point(s, (copies,))
            assert len(spec.nodes) == base_len - 1 + copies
            peps_into_fca = 0
            for n in spec.nodes:
                if n.kind == "fca":
                    walk = n.input_id
                    while spec.nodes[walk].op == base.nodes[5].op:
                        peps_into_fca += 1
                        walk = spec.nodes[walk].input_id
            assert peps_into_fca == copies
            count_network(spec)

    def test_rejects_foreign_point(self, space):
        with pytest.raises(ConfigError, match="not in the design space"):
            expand_point(space, (7,) * len(space.slots))

    def test_expansion_deterministic(self, space):
        point = space.base_point()
        assert expand_point(space, point) == expand_point(space, point)


def expand_point_oracle(space: DesignSpace, point: tuple) -> NetworkSpec:
    """expand_point's slow form: each field slot and each node's renumbered
    refs applied with `dataclasses.replace`, every node built anew."""
    per_node: dict = {}
    for slot, value in zip(space.slots, point):
        per_node.setdefault(slot.node_id, []).append((slot, value))
    new_nodes: list = []
    remap = {INPUT_ID: INPUT_ID}
    for node in space.base.nodes:
        op = node.op
        kind = _KINDS[type(op)]
        copies = 1
        present = True
        for slot, value in per_node.get(node.id, []):
            if slot.field == "present":
                present = bool(value)
            elif slot.field == "repeat":
                copies = value
            else:
                op = dataclasses.replace(op, **{kind.slots[slot.field]: value})
        if kind.refs:
            op = dataclasses.replace(op, **{f: remap[getattr(op, f)] for f in kind.refs})
        if not present or copies == 0:
            remap[node.id] = remap[node.input_id]
            continue
        input_id = remap[node.input_id]
        for _ in range(copies):
            new_nodes.append(NodeSpec(id=len(new_nodes), op=op, input_id=input_id))
            input_id = len(new_nodes) - 1
        remap[node.id] = input_id
    return dataclasses.replace(space.base, nodes=tuple(new_nodes))


# A concat reads n2, which an absent fca before it or copies of it renumber.
CONCAT_NET = """\
input 3 32 32
classes 1
conv 3 8 2      # 0: 16x16
fca 2           # 1
pep 4 8 8 1     # 2
ep 16 16 2      # 3: 8x8
upsample 2      # 4: 16x16
concat 2        # 5
conv 1 18 1     # 6
detect large    # 7
"""


# A `from` starts the second branch, so the new id it reads does not fix the
# first new id of the nodes after it, which the optional fca before it shifts.
BRANCH_NET = """\
input 3 32 32
classes 1
conv 3 8 2      # 0: 16x16
fca 3           # 1
pep 4 8 8 1     # 2
conv 1 18 1     # 3
detect large    # 4
from 0
ep 16 16 2      # 5: 8x8
conv 1 18 1     # 6
detect medium   # 7
"""


@functools.lru_cache(maxsize=None)
def network(name: str) -> NetworkSpec:
    texts = {"concat": CONCAT_NET, "branch": BRANCH_NET}
    return parse_network_spec(texts[name]) if name in texts else load_bundled_config(name)


@functools.lru_cache(maxsize=None)
def accepted_targets(name: str, statement: str) -> tuple:
    """The nodes of a network that a statement (a format string taking the
    node id) may name."""
    targets = []
    for node in network(name).nodes:
        try:
            parse_design_space(statement.format(node.id), network(name))
        except ParseError:
            continue
        targets.append(node.id)
    return tuple(targets)


def repeat_targets(name: str) -> tuple:
    return accepted_targets(name, "repeat n{} min 0 max 2\n")


def fca_site_targets(name: str) -> tuple:
    return accepted_targets(name, "fca_site n{} optional\n")


@st.composite
def space_documents(draw) -> tuple:
    """(network name, design-space document): up to three two-valued slots
    drawn from mutable_fields, optional fca sites, and up to two repeats
    0..2.  A proj1 value only falls and an expansion only rises, so that
    every point keeps proj1 <= expansion."""
    name = draw(st.sampled_from(["concat", "reference", "branch"]))
    base = network(name)
    lines = []
    fields = draw(st.lists(st.sampled_from(sorted(mutable_fields(base).items())), max_size=3, unique=True))
    for (node_id, short), value in fields:
        low = 1 if short == "proj1" else value if short == "expansion" else max(1, value // 2)
        high = value if short == "proj1" else 2 * value
        lines.append(f"slot n{node_id}.{short} values {value},{draw(st.integers(low, high))}")
    lines += [f"fca_site n{i} optional" for i in fca_site_targets(name) if draw(st.booleans())]
    out_slotted = {node_id for (node_id, short), _ in fields if short == "out"}
    targets = [i for i in repeat_targets(name) if i not in out_slotted]  # repeat and out never share a node
    repeats = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)) if targets else []
    lines += [f"repeat n{i} min 0 max 2" for i in repeats]
    return name, "".join(line + "\n" for line in lines)


# Over reference.cfg, slots between each cross-branch reader and the node it
# reads put them in different segments: concat 30 reads n21, concat 36 n12,
# n42 (`from 33`) n33 and n45 (`from 27`) n27.
CROSS_SEGMENT_DOCS = (
    "slot n24.out values 230,240\nslot n37.expansion values 66,72\nfca_site n9 optional\n"
    "repeat n5 min 0 max 2\n",
    "slot n22.expansion values 480,500\nslot n42.expansion values 120,130\n"
    "slot n45.expansion values 360,400\nfca_site n9 optional\n",
)
CROSS_SEGMENT_READS = ((30, 21), (36, 12), (42, 33), (45, 27))


class TestExpandPointOracle:
    @pytest.mark.parametrize(
        "config, doc, size",
        [
            (None, None, 4374),  # the bundled space
            (None, "fca_site n6 optional\n", 2),
            (None, "repeat n5 min 0 max 2\n", 3),
            (CONCAT_NET, "slot n0.out values 8,12\nfca_site n1 optional\nrepeat n2 min 0 max 2\n", 12),
        ],
        ids=["bundled", "absent-fca", "repeat", "concat"],
    )
    def test_every_point_matches_the_replace_form(self, config, doc, size):
        """Equal specs on every point, each one accepted by infer_shapes."""
        base = parse_network_spec(config) if config else load_bundled_config("explore-proto")
        if doc is None:
            doc = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        space = parse_design_space(doc, base)
        points = 0
        for point in space.enumerate_points():
            fast = expand_point(space, point)
            assert fast == expand_point_oracle(space, point), point
            infer_shapes(fast)
            points += 1
        assert points == size

    def test_concat_refs_follow_the_renumbering(self):
        doc = "fca_site n1 optional\nrepeat n2 min 0 max 2\n"
        space = parse_design_space(doc, parse_network_spec(CONCAT_NET))
        concat_refs = {
            point: next(n.op.with_id for n in expand_point(space, point).nodes if n.kind == "concat")
            for point in space.enumerate_points()
        }
        # n2's last copy, or what it reads (n1, else n0) when it has none.
        assert concat_refs == {(1, 0): 1, (1, 1): 2, (1, 2): 3, (0, 0): 0, (0, 1): 1, (0, 2): 2}

    @pytest.mark.parametrize("doc", CROSS_SEGMENT_DOCS)
    def test_reference_cases_read_across_segments(self, doc):
        space = parse_design_space(doc, network("reference"))
        segment_of = {node.id: seg for seg in space._segments for node in seg.nodes}
        for reader, read in CROSS_SEGMENT_READS:
            assert read in segment_of[reader].reads, (reader, read)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(space_documents())
    @example(("reference", CROSS_SEGMENT_DOCS[0]))
    @example(("reference", CROSS_SEGMENT_DOCS[1]))
    def test_walk_matches_the_oracle_and_a_fresh_count(self, case):
        """Every point of a drawn space, walked over one search's memos,
        gives the replace form's spec and a fresh count_network's totals."""
        name, doc = case
        space = parse_design_space(doc, network(name))
        segments = {}
        for point in space.enumerate_points():
            spec, ops, params = _walk(space, point, segments)
            assert spec == expand_point_oracle(space, point), point
            report = count_network(spec)
            assert (ops, params) == (report.total_ops, report.total_params), point


class TestPerformance:
    def test_hand_value(self):
        """score .691, 4.19M params, 4.57B ops:
        u = 20 * log10(.691^2 / (4.19^.5 * 4.57^.5)) = -19.242180...
        """
        assert performance(0.691, 4_190_000, 4_570_000_000) == pytest.approx(
            -19.24218033539352, abs=1e-9
        )

    def test_nonpositive_scores_are_minus_inf(self):
        assert performance(0.0, 10**6, 10**9) == float("-inf")
        assert performance(-0.5, 10**6, 10**9) == float("-inf")
        assert performance(float("nan"), 10**6, 10**9) == float("-inf")

    def test_weightless_designs_are_minus_inf(self):
        """No parameters or no ops: u is -inf, not a ZeroDivisionError."""
        assert performance(0.5, 0, 10**9) == float("-inf")
        assert performance(0.5, 10**6, 0) == float("-inf")
        assert performance(0.5, 0, 0) == float("-inf")

    def test_monotone_in_score(self):
        lo = performance(0.3, 10**6, 10**9)
        hi = performance(0.6, 10**6, 10**9)
        assert hi > lo

    def test_decreasing_in_cost(self):
        base = performance(0.5, 10**6, 10**9)
        assert performance(0.5, 2 * 10**6, 10**9) < base
        assert performance(0.5, 10**6, 2 * 10**9) < base


def assessed(space, point) -> Candidate:
    """The candidate a search builds for point, costed by its walk."""
    spec, ops, params = _walk(space, point, {})
    return evaluate(spec, synthetic_evaluator(), ops, params, point=point)


class TestEvaluate:
    def test_metrics_match_count_network(self, base, space):
        cand = assessed(space, space.base_point())
        report = count_network(cand.spec)
        assert cand.spec == expand_point(space, space.base_point())
        assert cand.ops == report.total_ops
        assert cand.params == report.total_params
        assert cand.u_value == performance(cand.score, cand.params, cand.ops)

    def test_raising_evaluator_never_feasible(self, base, space):
        def boom(spec):
            raise RuntimeError("no score available")

        cand = evaluate(expand_point(space, space.base_point()), boom, 10**6, 10**4)
        assert math.isnan(cand.score)
        assert cand.u_value == float("-inf")

    def test_nonfinite_score_becomes_nan(self, base, space):
        cand = evaluate(expand_point(space, space.base_point()), lambda s: float("inf"), 10**6, 10**4)
        assert math.isnan(cand.score)


def choice_oracle(seed: int, generation: int, space) -> tuple:
    """The slow sample_point: one `choice` with an explicit uniform p per slot."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, generation])
    values = []
    for slot in space.slots:
        n = len(slot.values)
        values.append(slot.values[int(rng.choice(n, p=np.full(n, 1.0 / n)))])
    return tuple(values)


# Slots of 1, 2, 3, 7, 10 and 65 values over the bundled prototype.
WIDE_SPACE_DOC = """\
slot n0.out values 8
fca_site n6 optional
slot n1.expansion values 8,12,16
slot n3.expansion values 6,7,8,9,10,11,12
slot n5.expansion values 8,9,10,11,12,13,14,15,16,17
repeat n5 min 0 max 64
"""


class TestSampling:
    @pytest.mark.parametrize("doc", ["bundled", WIDE_SPACE_DOC], ids=["bundled", "wide"])
    def test_matches_choice_oracle(self, base, doc):
        if doc == "bundled":
            doc = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        space = parse_design_space(doc, base)
        for seed in range(2000):
            for generation in range(3):
                want = choice_oracle(seed, generation, space)
                assert sample_point(seed, generation, space) == want, (seed, generation)

    def test_wide_space_needs_the_normalised_cdf(self, base):
        """For 7, 10 and 65 values the float cumsum ends below 1.0, so the
        oracle test above covers the division by its last element."""
        space = parse_design_space(WIDE_SPACE_DOC, base)
        assert sorted(len(slot.values) for slot in space.slots) == [1, 2, 3, 7, 10, 65]
        for n in (7, 10, 65):
            assert np.full(n, 1.0 / n).cumsum()[-1] < 1.0

    @pytest.mark.parametrize("seed", [0, 123, 2**32 - 1])
    @pytest.mark.parametrize("generation", [0, 1, 2**32 - 1])
    def test_word_seeding_matches_the_list_form(self, base, seed, generation):
        space = parse_design_space(WIDE_SPACE_DOC, base)
        assert sample_point(seed, generation, space) == choice_oracle(seed, generation, space)

    def test_refuses_a_generation_past_one_word(self, space):
        with pytest.raises(ConfigError, match="generation"):
            sample_point(0, 2**32, space)

    def test_same_seed_same_point(self, space):
        assert sample_point(123, 0, space) == sample_point(123, 0, space)

    def test_generation_advances_stream(self, space):
        a = sample_point(123, 0, space)
        b = sample_point(123, 1, space)
        assert space.contains(a) and space.contains(b)
        assert a != b  # fixed seeds chosen so the streams differ


# Bounds that reach each branch of _Stream.integers: no draw (1), Lemire's
# loop with rare (2, 3, 7) and frequent (2**31 + 1, 3 * 2**30, 2**32 - 1)
# rejections, and one bare 32-bit half (2**32).
STREAM_BOUNDS = (1, 2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)

stream_draws = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(STREAM_BOUNDS), st.integers(1, 2**32)),
        st.integers(1, 3 * RAW_BLOCK),  # run length: one run can span blocks
    ),
    max_size=12,
)


class TestStream:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64), draws=stream_draws)
    @example(seed=0, draws=[(None, 1), (7, 1), (None, 1), (7, 1)])  # a half kept across random()
    @example(seed=0, draws=[(2**32, 2 * RAW_BLOCK + 1)])
    @example(seed=5, draws=[(n, 40) for n in STREAM_BOUNDS] + [(None, 40)])
    def test_matches_the_generator(self, seed, draws):
        """Run (bound, or None for random(), count) draws on _Stream and on
        the Generator it stands in for: every value must be equal."""
        fast, slow = _Stream(seed), np.random.default_rng(seed)
        for n, count in draws:
            for k in range(count):
                if n is None:
                    got, want = fast.random(), slow.random()
                else:
                    got, want = fast.integers(n), int(slow.integers(n))
                assert got == want and type(got) is type(want), (n, k, got, want)

    def test_refuses_bounds_outside_one_word(self):
        stream = _Stream(0)
        for n in (0, -1, 2**32 + 1):
            with pytest.raises(ValueError, match="integers"):
                stream.integers(n)

    def test_reads_raw_outputs_a_block_at_a_time(self, monkeypatch):
        """Nothing is read until the first draw, then whole blocks."""
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        stream = _Stream(7)

        def read(outputs):
            return made[0].bit_generator.state == np.random.PCG64(7).advance(outputs).state

        assert read(0)
        stream.random()
        assert read(RAW_BLOCK)
        for _ in range(RAW_BLOCK):
            stream.random()
        assert read(2 * RAW_BLOCK)


def run_explore(space, seed=3, budget=None, **constraint_kwargs):
    constraints = ConstraintSet(**constraint_kwargs)
    return explore(
        space,
        constraints,
        synthetic_evaluator(),
        budget=budget if budget is not None else space.size(),
        seed=seed,
    )


# Each activated conv but the last reads a 21x4x4 map; the last one feeds
# detect and emits raw logits.
EQUAL_CONVS_CFG = """\
input 21 4 4
classes 2
conv 1 21 1
conv 1 21 1
conv 1 21 1
detect large
"""


class TestExplore:
    def test_full_budget_matches_brute_force(self, space):
        result = run_explore(space)
        exact = brute_force_search(space, ConstraintSet(), synthetic_evaluator())
        assert result.best.point == exact.point
        assert result.best.u_value == exact.u_value
        assert len(result.history) == space.size()

    def test_budget_respected(self, space):
        result = run_explore(space, budget=60)
        assert len(result.history) == 60

    def test_deterministic_history(self, space):
        a = run_explore(space, seed=11, budget=80)
        b = run_explore(space, seed=11, budget=80)
        assert a.history == b.history
        assert a.best.point == b.best.point

    def test_no_duplicate_evaluations(self, space):
        result = run_explore(space, budget=200)
        points = [e.candidate.point for e in result.history]
        assert len(points) == len(set(points))

    def test_constraint_max_ops_enforced(self, space):
        cap = 2_500_000
        result = run_explore(space, budget=300, max_ops=cap)
        assert result.best is not None
        assert result.best.ops <= cap
        exact = brute_force_search(
            space, ConstraintSet(max_ops=cap), synthetic_evaluator()
        )
        full = run_explore(space, max_ops=cap)
        assert full.best.point == exact.point

    def test_infeasible_space_returns_none(self, space):
        result = run_explore(space, budget=50, min_score=2.0)  # scores top out < 1
        assert result.best is None
        assert all(not e.feasible for e in result.history)

    def test_best_u_monotone_over_history(self, space):
        result = run_explore(space, budget=150)
        best = float("-inf")
        for entry in result.history:
            if entry.feasible:
                best = max(best, entry.candidate.u_value)
        assert result.best.u_value == best

    def test_best_is_taken_from_history(self, space):
        """The best candidate is taken from the history records, not kept
        apart: it is the very object the winning record holds."""
        result = run_explore(space, budget=150, max_ops=2_500_000)
        feasible = [e.candidate for e in result.history if e.feasible]
        top = max(c.u_value for c in feasible)
        winners = [c for c in feasible if c.u_value == top]
        assert result.best is min(winners, key=lambda c: c.point)

    def test_no_segment_memo_outlives_a_search(self, space, monkeypatch):
        """Two searches in a row make the same count_node calls and give the
        same results: each one's segment memo goes with it."""
        calls = []
        count_node = complexity.count_node
        monkeypatch.setattr(
            complexity, "count_node", lambda *a, **k: calls.append(1) or count_node(*a, **k)
        )
        small = parse_design_space("fca_site n6 optional\nslot n6.reduction values 2,4\n", space.base)
        for search in (
            lambda: run_explore(space, seed=4, budget=100),
            lambda: brute_force_search(small, ConstraintSet(), synthetic_evaluator()),
        ):
            calls.clear()
            first = search()
            first_calls = len(calls)
            assert search() == first
            assert 0 < first_calls == len(calls) - first_calls

    @pytest.mark.parametrize("doc", [SPACE_DOC, ""], ids=["demo", "equal-convs"])
    def test_count_network_once_and_count_node_per_built_node(self, doc, monkeypatch):
        """count_network runs once, on the best point; count_node runs once
        per node of each segment entry the search builds, and once per node
        of the best point.  The slotless space's one segment is built once."""
        base = load_bundled_config("explore-proto") if doc else parse_network_spec(EQUAL_CONVS_CFG)
        space = parse_design_space(doc, base)
        counted, node_calls, segments = [], [], {}
        count_network, count_node, walk = complexity.count_network, complexity.count_node, explorer._walk
        monkeypatch.setattr(
            complexity, "count_network", lambda spec: counted.append(spec) or count_network(spec)
        )
        monkeypatch.setattr(
            complexity, "count_node", lambda *a, **k: node_calls.append(1) or count_node(*a, **k)
        )
        monkeypatch.setattr(explorer, "_walk", lambda space, point, _: walk(space, point, segments))
        result = run_explore(space, seed=4, budget=100)
        assert counted == [result.best.spec]
        built = sum(len(nodes) for nodes, *_ in segments.values())
        assert len(node_calls) == built + len(result.best.spec.nodes)
        assert (len(segments), built) == ((56, 196) if doc else (1, 4))

    def test_one_segment_lookup_per_segment_of_each_point(self, space, monkeypatch):
        """A search looks each point up once per segment, never per node."""

        class Counting(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        want = run_explore(space, seed=4, budget=100)
        segments = Counting()
        walk = explorer._walk
        monkeypatch.setattr(explorer, "_walk", lambda space, point, _: walk(space, point, segments))
        result = run_explore(space, seed=4, budget=100)
        assert result == want
        assert len(space._segments) == 6 < len(space.base.nodes) == 16
        assert segments.lookups == len(result.history) * len(space._segments)

    def test_walk_totals_that_count_network_refutes_fail_the_search(self, space, monkeypatch):
        walk = explorer._walk

        def off_by_one(*args):
            spec, ops, params = walk(*args)
            return spec, ops + 1, params

        monkeypatch.setattr(explorer, "_walk", off_by_one)
        with pytest.raises(RuntimeError, match=r"costed at \d+ ops .*; count_network gives"):
            run_explore(space, budget=20)

    @pytest.mark.parametrize("doc", ["bundled", WIDE_SPACE_DOC], ids=["bundled", "wide"])
    def test_stream_matches_the_generator_search(self, base, doc, monkeypatch):
        """The whole result is the one a search drawing straight from
        `np.random.default_rng(seed)` gives (its slow form, patched in)."""
        if doc == "bundled":
            doc = resources.files("compactdet.configs").joinpath("explore-space.txt").read_text()
        space = parse_design_space(doc, base)
        for budget in (1, 64, 1024):
            for seed in range(5):
                fast = run_explore(space, seed=seed, budget=budget, max_ops=2_500_000)
                with monkeypatch.context() as patch:
                    patch.setattr(explorer, "_Stream", np.random.default_rng)
                    assert run_explore(space, seed=seed, budget=budget, max_ops=2_500_000) == fast

    def test_stream_matches_the_generator_through_the_sweep(self, space, monkeypatch):
        """A space smaller than its budget can end in the enumeration sweep."""
        small = parse_design_space("repeat n5 min 0 max 64\nfca_site n6 optional\n", space.base)
        swept = []
        enumerate_points = DesignSpace.enumerate_points
        monkeypatch.setattr(DesignSpace, "enumerate_points", lambda s: swept.append(seed) or enumerate_points(s))
        for seed in range(5):
            fast = run_explore(small, seed=seed, budget=1024)
            with monkeypatch.context() as patch:
                patch.setattr(explorer, "_Stream", np.random.default_rng)
                assert run_explore(small, seed=seed, budget=1024) == fast
            assert len(fast.history) == small.size() == 130
        assert swept == [0, 0, 2, 2, 3, 3]  # the seeds whose proposals stall

    def test_rejects_silly_budget(self, space):
        with pytest.raises(ConfigError, match="budget"):
            run_explore(space, budget=0)


class TestBruteForce:
    def test_refuses_oversized_space(self, base):
        fat = tuple(Slot(node_id=i, field="out", values=(1, 2)) for i in range(17))
        space = DesignSpace(base=base, slots=fat)
        assert space.size() == 2**17 > BRUTE_FORCE_LIMIT
        with pytest.raises(ConfigError, match="brute force"):
            brute_force_search(space, ConstraintSet(), synthetic_evaluator())

    def test_tie_breaks_lexicographically(self, base):
        """With the fca absent its reduction value is dead weight: the two
        points expand to identical specs, so u ties and the smaller
        reduction value must win.  An ops cap at the absent total keeps
        the fca-present points out, so the tie decides the best point."""
        s = parse_design_space("fca_site n6 optional\nslot n6.reduction values 2,4\n", base)
        assert [slot.name for slot in s.slots] == ["n6.reduction", "n6.present"]
        absent = [assessed(s, p) for p in [(2, 0), (4, 0)]]
        assert absent[0].spec == absent[1].spec and absent[0].u_value == absent[1].u_value
        cap = absent[0].ops
        assert all(assessed(s, p).ops > cap for p in [(2, 1), (4, 1)])
        best = brute_force_search(s, ConstraintSet(max_ops=cap), synthetic_evaluator())
        assert best.point == (2, 0)
        assert run_explore(s, max_ops=cap).best.point == (2, 0)

    def test_matches_explore_across_seeds(self, space):
        exact = brute_force_search(space, ConstraintSet(), synthetic_evaluator())
        for seed in (0, 1, 2):
            result = run_explore(space, seed=seed)
            assert result.best.point == exact.point


class TestSyntheticEvaluator:
    def test_deterministic(self, base):
        ev = synthetic_evaluator()
        assert ev(base) == ev(base)

    def test_wider_scores_higher(self, base, space):
        ev = synthetic_evaluator()
        narrow = expand_point(space, (8, 8, 12, 16, 1, 8, 1, 24))
        wide = expand_point(space, (16, 16, 24, 32, 1, 2, 1, 48))
        assert ev(wide) > ev(narrow)

    def test_range(self, base):
        score = synthetic_evaluator()(base)
        assert 0.18 < score < 0.98


class TestLogFormat:
    def test_header(self, space):
        header = format_log_header(space)
        assert header == (
            "# gen seed feasible ops params score u n0.out n1.expansion "
            "n3.expansion n5.expansion n5.repeat n6.reduction n6.present n8.expansion"
        )

    def test_line(self, base):
        cand = Candidate(spec=base, ops=1000, params=50, score=0.5, u_value=-3.25, point=(8, 12))
        entry = HistoryEntry(gen=2, feasible=True, candidate=cand)
        assert format_history_line(7, entry) == "2 7 1 1000 50 0.500000 -3.250000 8 12"

    def test_line_nan_and_inf_spelling(self, base):
        cand = Candidate(
            spec=base, ops=1, params=1, score=float("nan"), u_value=float("-inf"), point=(8,)
        )
        entry = HistoryEntry(gen=0, feasible=False, candidate=cand)
        assert format_history_line(0, entry) == "0 0 0 1 1 nan -inf 8"
