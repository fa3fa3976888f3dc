"""Design-space construction, point expansion, and search-loop tests.

The evolutionary loop is validated against the brute-force enumerator
(same comparator, exact argmax), so the two code paths stay honest about
each other; determinism tests compare full histories, not just winners.
"""

import math

import numpy as np
import pytest

from compactdet.arch_graph import ParseError, load_bundled_config, parse_network_spec
from compactdet.complexity import ConstraintSet, count_network
from compactdet.explorer import (
    BRUTE_FORCE_LIMIT,
    Candidate,
    DesignSpace,
    HistoryEntry,
    Slot,
    brute_force_search,
    build_design_space,
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

    def test_values_sorted_deduped(self, base):
        s = build_design_space(base, field_values={"n0.out": (16, 8, 8, 12)})
        assert s.slots[0].values == (8, 12, 16)

    def test_rejects_unknown_slot(self, base):
        with pytest.raises(ConfigError, match="mutable field"):
            build_design_space(base, field_values={"n0.reduction": (2, 4)})
        with pytest.raises(ConfigError, match="mutable field"):
            build_design_space(base, field_values={"n99.out": (2, 4)})

    def test_rejects_head_conv_slot(self, base):
        with pytest.raises(ConfigError, match="mutable field"):
            build_design_space(base, field_values={"n10.out": (21, 42)})

    def test_rejects_nonpositive_values(self, base):
        with pytest.raises(ConfigError, match="positive"):
            build_design_space(base, field_values={"n0.out": (0, 8)})

    def test_rejects_pep_projection_wider_than_expansion(self, base):
        """proj1 and expansion slots must be jointly valid at every point."""
        with pytest.raises(ConfigError, match="proj1"):
            build_design_space(
                base,
                field_values={"n1.proj1": (4, 16), "n1.expansion": (8, 12)},
            )

    def test_rejects_non_fca_presence_site(self, base):
        with pytest.raises(ConfigError, match="fca"):
            build_design_space(base, optional_fca=(1,))

    def test_rejects_repeat_on_strided_node(self, base):
        with pytest.raises(ConfigError, match="preserve"):
            build_design_space(base, repeats={2: (0, 2)})  # ep stride 2

    def test_rejects_repeat_on_channel_changing_node(self):
        base = parse_network_spec("input 3 8 8\nconv 3 5 1\nconv 3 7 1\n")
        with pytest.raises(ConfigError, match="preserve"):
            build_design_space(base, repeats={1: (0, 2)})

    def test_rejects_repeat_with_out_slot(self, base):
        with pytest.raises(ConfigError, match="repeat and out"):
            build_design_space(
                base, field_values={"n5.out": (24, 32)}, repeats={5: (1, 2)}
            )

    def test_rejects_bad_repeat_bounds(self, base):
        with pytest.raises(ConfigError, match="bounds"):
            build_design_space(base, repeats={5: (2, 1)})


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
        ],
    )
    def test_rejects_malformed(self, base, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_design_space(doc, base)

    def test_semantic_error_still_parse_error(self, base):
        with pytest.raises(ParseError, match="fca"):
            parse_design_space("fca_site n1 optional\n", base)


class TestExpandPoint:
    def test_field_substitution(self, base):
        s = build_design_space(base, field_values={"n0.out": (8, 12)})
        spec = expand_point(s, (12,))
        assert spec.nodes[0].op.out_channels == 12
        # Everything else untouched.
        assert spec.nodes[1:] == base.nodes[1:]

    def test_absent_fca_is_removed_and_rewired(self, base):
        s = build_design_space(base, optional_fca=(6,))
        spec = expand_point(s, (0,))
        assert len(spec.nodes) == len(base.nodes) - 1
        assert all(n.kind != "fca" for n in spec.nodes)
        # Node 7 (ep) slid to id 6 and now reads the pep at id 5 directly.
        assert spec.nodes[6].kind == "ep"
        assert spec.nodes[6].input_id == 5
        count_network(spec)  # shapes still chain

    def test_absent_node_remaps_branch_references(self, base):
        """`from` references past a dropped node follow its input."""
        s = build_design_space(base, optional_fca=(6,))
        spec = expand_point(s, (0,))
        # Head convs read old nodes 9, 8, 5; after the drop those sit at
        # ids 8, 7, 5.
        tap_ids = [n.input_id for n in spec.nodes if n.kind == "conv"][1:]
        assert tap_ids == [8, 7, 5]

    def test_repeat_chains_copies(self, base):
        s = build_design_space(base, repeats={5: (0, 2)})
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

    def test_monotone_in_score(self):
        lo = performance(0.3, 10**6, 10**9)
        hi = performance(0.6, 10**6, 10**9)
        assert hi > lo

    def test_decreasing_in_cost(self):
        base = performance(0.5, 10**6, 10**9)
        assert performance(0.5, 2 * 10**6, 10**9) < base
        assert performance(0.5, 10**6, 2 * 10**9) < base


class TestEvaluate:
    def test_metrics_match_count_network(self, base, space):
        spec = expand_point(space, space.base_point())
        cand = evaluate(spec, synthetic_evaluator())
        report = count_network(spec)
        assert cand.ops == report.total_ops
        assert cand.params == report.total_params
        assert cand.u_value == performance(cand.score, cand.params, cand.ops)

    def test_raising_evaluator_never_feasible(self, base, space):
        def boom(spec):
            raise RuntimeError("no score available")

        cand = evaluate(expand_point(space, space.base_point()), boom)
        assert math.isnan(cand.score)
        assert cand.u_value == float("-inf")

    def test_nonfinite_score_becomes_nan(self, base, space):
        cand = evaluate(expand_point(space, space.base_point()), lambda s: float("inf"))
        assert math.isnan(cand.score)


class TestSampling:
    def test_same_seed_same_point(self, space):
        assert sample_point(123, 0, space) == sample_point(123, 0, space)

    def test_generation_advances_stream(self, space):
        a = sample_point(123, 0, space)
        b = sample_point(123, 1, space)
        assert space.contains(a) and space.contains(b)
        assert a != b  # fixed seeds chosen so the streams differ


def run_explore(space, seed=3, budget=None, **constraint_kwargs):
    constraints = ConstraintSet(**constraint_kwargs)
    return explore(
        space,
        constraints,
        synthetic_evaluator(),
        budget=budget if budget is not None else space.size(),
        seed=seed,
    )


class TestExplore:
    def test_full_budget_matches_brute_force(self, space):
        result = run_explore(space)
        exact = brute_force_search(space, ConstraintSet(), synthetic_evaluator())
        assert result.best.point == exact.point
        assert result.best.u_value == exact.u_value
        assert result.evaluations == space.size()

    def test_budget_respected(self, space):
        result = run_explore(space, budget=60)
        assert result.evaluations == 60
        assert len(result.history) == 60

    def test_deterministic_history(self, space):
        a = run_explore(space, seed=11, budget=80)
        b = run_explore(space, seed=11, budget=80)
        assert [e.point for e in a.history] == [e.point for e in b.history]
        assert [e.u_value for e in a.history] == [e.u_value for e in b.history]
        assert a.best.point == b.best.point

    def test_no_duplicate_evaluations(self, space):
        result = run_explore(space, budget=200)
        points = [e.point for e in result.history]
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
        assert not result.feasible_found
        assert all(not e.feasible for e in result.history)

    def test_best_u_monotone_over_history(self, space):
        result = run_explore(space, budget=150)
        best = float("-inf")
        for entry in result.history:
            if entry.feasible:
                best = max(best, entry.u_value)
        assert result.best.u_value == best

    def test_rejects_silly_budget(self, space):
        with pytest.raises(ConfigError, match="budget"):
            run_explore(space, budget=0)


class TestBruteForce:
    def test_refuses_oversized_space(self, base):
        fat = tuple(
            Slot(name=f"s{i}", kind="field", node_id=0, field="out", values=(1, 2))
            for i in range(17)
        )
        space = DesignSpace(base=base, slots=fat)
        assert space.size() == 2**17 > BRUTE_FORCE_LIMIT
        with pytest.raises(ConfigError, match="brute force"):
            brute_force_search(space, ConstraintSet(), synthetic_evaluator())

    def test_tie_breaks_lexicographically(self, base):
        """With the fca absent its reduction value is dead weight: the two
        points expand to identical specs, so u ties and the smaller
        reduction value must win."""
        s = build_design_space(
            base, field_values={"n6.reduction": (2, 4)}, optional_fca=(6,)
        )
        assert [slot.name for slot in s.slots] == ["n6.reduction", "n6.present"]
        best = brute_force_search(s, ConstraintSet(), synthetic_evaluator())
        present_best = brute_force_search(
            s, ConstraintSet(max_ops=None), synthetic_evaluator()
        )
        assert best == present_best
        absent = [
            evaluate(expand_point(s, p), synthetic_evaluator(), point=p)
            for p in [(2, 0), (4, 0)]
        ]
        assert absent[0].u_value == absent[1].u_value
        if best.point[1] == 0:  # ties only matter if absent wins overall
            assert best.point == (2, 0)

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

    def test_line(self):
        entry = HistoryEntry(
            gen=2, point=(8, 12), feasible=True, ops=1000, params=50,
            score=0.5, u_value=-3.25,
        )
        assert format_history_line(7, entry) == "2 7 1 1000 50 0.500000 -3.250000 8 12"

    def test_line_nan_and_inf_spelling(self):
        entry = HistoryEntry(
            gen=0, point=(8,), feasible=False, ops=1, params=1,
            score=float("nan"), u_value=float("-inf"),
        )
        assert format_history_line(0, entry) == "0 0 0 1 1 nan -inf 8"
