"""Constrained design-space exploration over network configs.

A design space is a prototype network plus a set of named slots:

* field slots rebind one integer field of one node
  (``n<id>.out``, ``n<id>.proj1``, ``n<id>.expansion``, ``n<id>.reduction``),
* presence slots drop an attention node (``n<id>.present``, values 1/0),
* repeat slots duplicate a shape-preserving node k times (``n<id>.repeat``).

A point assigns every slot a value from its declared list; expanding a
point rewrites the prototype's node list (substituting fields, dropping or
duplicating nodes, and renumbering references) into a NetworkSpec that
passes shape inference.  Spaces are validated up front so that every point
in the cross product expands to a valid network.

Candidates are ranked by NetScore (Wong, arXiv 1806.05512) with
alpha = 2 and beta = gamma = 0.5:

    u = 20 * log10(score^2 / (params_millions^0.5 * ops_billions^0.5))

with u = -inf when the score is not positive.  Search is an elitist
(mu + lambda) evolutionary loop with per-slot categorical mutation; a
brute-force enumerator over the same comparator serves as the exact
reference for small spaces.

Design-space document grammar (one statement per line, `#` comments):

    slot <name> values <v1,v2,...>
    fca_site <n_id> optional
    repeat <n_id> min <a> max <b>
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .arch_graph import (
    _KINDS,
    INPUT_ID,
    NetworkSpec,
    NodeSpec,
    ParseError,
    infer_shapes,
    linear_conv_ids,
)
from .complexity import ConstraintSet, check_constraints, count_network
from .tensor_core import ConfigError

BRUTE_FORCE_LIMIT = 1 << 16
POPULATION = 16  # parents kept and children proposed per generation
HALF_LIFE = 80.0  # capacity at which the synthetic score is 1 - 1/e of the way up


def mutable_fields(base: NetworkSpec) -> dict:
    """(node_id, short field name) -> current value, for slottable nodes."""
    pinned = linear_conv_ids(base)
    out = {}
    for node in base.nodes:
        if node.id in pinned:
            continue  # head conv channels are pinned by the detect contract
        for short, attr in _KINDS[type(node.op)].slots.items():
            out[(node.id, short)] = getattr(node.op, attr)
    return out


@dataclass(frozen=True)
class Slot:
    name: str
    kind: str  # "field" | "present" | "repeat"
    node_id: int
    field: Optional[str]
    values: tuple


@dataclass(frozen=True)
class DesignSpace:
    base: NetworkSpec
    slots: tuple

    def size(self) -> int:
        n = 1
        for slot in self.slots:
            n *= len(slot.values)
        return n

    def enumerate_points(self):
        for combo in itertools.product(*(slot.values for slot in self.slots)):
            yield combo

    def base_point(self) -> tuple:
        """The point whose expansion equals the prototype itself."""
        values = []
        current = mutable_fields(self.base)
        for slot in self.slots:
            # Present and repeat slots keep the node once.
            base = current[(slot.node_id, slot.field)] if slot.kind == "field" else 1
            values.append(base if base in slot.values else slot.values[0])
        return tuple(values)

    def contains(self, point: tuple) -> bool:
        return len(point) == len(self.slots) and all(
            value in slot.values for slot, value in zip(self.slots, point)
        )


def _node_token(token: str) -> int:
    if not token.startswith("n") or not token[1:].isdigit():
        raise ConfigError(f"node references look like n<id>, got {token!r}")
    return int(token[1:])


def build_design_space(
    base: NetworkSpec,
    field_values: Optional[dict] = None,
    optional_fca: tuple = (),
    repeats: Optional[dict] = None,
) -> DesignSpace:
    """Assemble and validate a DesignSpace.

    field_values maps "n<id>.<field>" to candidate values; optional_fca
    lists fca node ids whose presence becomes a slot; repeats maps node id
    to (min, max) copy counts.
    """
    table = infer_shapes(base)
    mutable = mutable_fields(base)
    slots = []

    for name, values in sorted((field_values or {}).items()):
        head, _, fname = name.partition(".")
        node_id = _node_token(head)
        if (node_id, fname) not in mutable:
            raise ConfigError(f"slot {name!r} does not name a mutable field")
        values = tuple(sorted(set(int(v) for v in values)))
        if not values or any(v < 1 for v in values):
            raise ConfigError(f"slot {name!r} needs positive candidate values")
        slots.append(Slot(name=name, kind="field", node_id=node_id, field=fname, values=values))

    for node_id in sorted(set(optional_fca)):
        node = _checked_node(base, node_id)
        if node.kind != "fca":
            raise ConfigError(f"fca_site n{node_id} is a {node.kind} node")
        slots.append(Slot(name=f"n{node_id}.present", kind="present", node_id=node_id, field=None, values=(1, 0)))

    for node_id, (lo, hi) in sorted((repeats or {}).items()):
        node = _checked_node(base, node_id)
        if not 0 <= lo <= hi:
            raise ConfigError(f"repeat bounds for n{node_id} must satisfy 0 <= min <= max")
        in_c = table.of(node.input_id)[0]
        out_shape = table.of(node.id)
        if out_shape != table.of(node.input_id) or getattr(node.op, "stride", 1) != 1:
            raise ConfigError(
                f"repeat target n{node_id} must preserve its input shape "
                f"(stride 1, {in_c} -> {in_c} channels)"
            )
        slots.append(
            Slot(
                name=f"n{node_id}.repeat",
                kind="repeat",
                node_id=node_id,
                field=None,
                values=tuple(range(lo, hi + 1)),
            )
        )

    slots.sort(key=lambda s: (s.node_id, s.kind, s.name))
    space = DesignSpace(base=base, slots=tuple(slots))
    _validate_space(space)
    return space


def _checked_node(base: NetworkSpec, node_id: int) -> NodeSpec:
    if not 0 <= node_id < len(base.nodes):
        raise ConfigError(f"node n{node_id} does not exist")
    return base.nodes[node_id]


def _validate_space(space: DesignSpace):
    """Every point must expand to a valid network; cheap structural checks
    plus corner-point shape inference keep that true by construction."""
    by_node: dict = {}
    for slot in space.slots:
        by_node.setdefault(slot.node_id, {})[slot.field or slot.kind] = slot.values
    for node_id, fields in by_node.items():
        node = space.base.nodes[node_id]
        if node.kind == "pep":
            proj1 = fields.get("proj1", (node.op.proj1_channels,))
            expansion = fields.get("expansion", (node.op.expansion_channels,))
            if max(proj1) > min(expansion):
                raise ConfigError(
                    f"slot values on n{node_id} allow proj1 {max(proj1)} > "
                    f"expansion {min(expansion)}; every point must be valid"
                )
    # Repeat/out interactions: a repeated node must keep in == out under
    # every out-channel assignment, which field slots on it would break.
    for slot in space.slots:
        if slot.kind == "repeat" and any(
            s.node_id == slot.node_id and s.kind == "field" and s.field == "out"
            for s in space.slots
        ):
            raise ConfigError(f"n{slot.node_id} cannot carry both repeat and out slots")
    infer_shapes(expand_point(space, space.base_point()))


def expand_point(space: DesignSpace, point: tuple) -> NetworkSpec:
    """Rewrite the prototype with a slot assignment into a NetworkSpec."""
    if not space.contains(point):
        raise ConfigError(f"point {point!r} is not in the design space")
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
            if slot.kind == "field":
                op = replace(op, **{kind.slots[slot.field]: value})
            elif slot.kind == "present":
                present = bool(value)
            elif slot.kind == "repeat":
                copies = value
        if kind.refs:
            op = replace(op, **{f: remap[getattr(op, f)] for f in kind.refs})
        if not present or copies == 0:
            remap[node.id] = remap[node.input_id]
            continue
        input_id = remap[node.input_id]
        for _ in range(copies):
            new_nodes.append(NodeSpec(id=len(new_nodes), op=op, input_id=input_id))
            input_id = len(new_nodes) - 1
        remap[node.id] = input_id

    return replace(space.base, nodes=tuple(new_nodes))


def parse_design_space(text: str, base: NetworkSpec) -> DesignSpace:
    field_values: dict = {}
    optional_fca: list = []
    repeats: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "slot" and len(tokens) == 4 and tokens[2] == "values":
                field_values[tokens[1]] = tuple(int(v) for v in tokens[3].split(",") if v)
            elif tokens[0] == "fca_site" and len(tokens) == 3 and tokens[2] == "optional":
                optional_fca.append(_node_token(tokens[1]))
            elif (
                tokens[0] == "repeat"
                and len(tokens) == 6
                and tokens[2] == "min"
                and tokens[4] == "max"
            ):
                repeats[_node_token(tokens[1])] = (int(tokens[3]), int(tokens[5]))
            else:
                raise ConfigError(f"unrecognized statement {line!r}")
        except (ValueError, ConfigError) as exc:
            raise ParseError(str(exc), line_no) from None
    try:
        return build_design_space(
            base, field_values=field_values, optional_fca=tuple(optional_fca), repeats=repeats
        )
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


def performance(score: float, params: int, ops: int) -> float:
    """NetScore u (module docstring); -inf when the score is not positive."""
    if not (score > 0.0):
        return float("-inf")
    params_m = params / 1e6
    ops_b = ops / 1e9
    return 20.0 * math.log10(score**2.0 / (params_m**0.5 * ops_b**0.5))


@dataclass(frozen=True)
class Candidate:
    spec: NetworkSpec
    ops: int
    params: int
    score: float
    u_value: float
    point: Optional[tuple] = None


def evaluate(
    spec: NetworkSpec,
    evaluator: Callable[[NetworkSpec], float],
    point: Optional[tuple] = None,
) -> Candidate:
    """Attach cost metrics and the performance value to one design.

    An evaluator that raises or returns a non-finite score yields a
    candidate with score nan and u -inf, which no constraint set with a
    score floor accepts.
    """
    report = count_network(spec)
    try:
        score = float(evaluator(spec))
        if not math.isfinite(score):
            score = float("nan")
    except Exception:
        score = float("nan")
    return Candidate(
        spec=spec,
        ops=report.total_ops,
        params=report.total_params,
        score=score,
        u_value=performance(score, report.total_params, report.total_ops),
        point=point,
    )


@dataclass
class HistoryEntry:
    gen: int
    point: tuple
    feasible: bool
    ops: int
    params: int
    score: float
    u_value: float


@dataclass
class ExploreResult:
    best: Optional[Candidate]
    history: list
    evaluations: int
    space_size: int

    @property
    def feasible_found(self) -> bool:
        return self.best is not None


def sample_point(seed: int, generation: int, space: DesignSpace) -> tuple:
    """Draw every slot uniformly from a stream fixed by (seed, generation).

    The explicit uniform p keeps the stream of `choice` with p (a cdf
    search), not the one it takes without p.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, generation])
    values = []
    for slot in space.slots:
        n = len(slot.values)
        values.append(slot.values[int(rng.choice(n, p=np.full(n, 1.0 / n)))])
    return tuple(values)


def _rank_key(cand: Candidate) -> tuple:
    return (-cand.u_value, cand.point)


def _mutate(point: tuple, space: DesignSpace, rng: np.random.Generator) -> tuple:
    """Per-slot categorical mutation at rate 0.1 with >= 1 forced change."""
    mutable = [i for i, slot in enumerate(space.slots) if len(slot.values) > 1]
    values = list(point)
    changed = False
    for i in mutable:
        if rng.random() < 0.1:
            values[i] = _draw_other(space.slots[i], values[i], rng)
            changed = True
    if not changed and mutable:
        i = mutable[int(rng.integers(len(mutable)))]
        values[i] = _draw_other(space.slots[i], values[i], rng)
    return tuple(values)


def _draw_other(slot: Slot, current, rng: np.random.Generator):
    options = [v for v in slot.values if v != current]
    return options[int(rng.integers(len(options)))] if options else current


def explore(
    space: DesignSpace,
    constraints: ConstraintSet,
    evaluator: Callable[[NetworkSpec], float],
    budget: int,
    seed: int,
) -> ExploreResult:
    """Elitist (mu + lambda) evolutionary search, deterministic in seed.

    The budget counts evaluator invocations; already-visited points are
    skipped without charge.  Infeasible candidates never become parents.
    The best feasible u value is monotone over the history.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    size = space.size()
    seen: dict = {}  # point -> (Candidate, feasible)
    history: list = []
    best: Optional[Candidate] = None
    gen = 0

    def consider(point: tuple) -> bool:
        """Evaluate an unseen point; returns False when budget is spent."""
        nonlocal best
        if point in seen:
            return True
        if len(seen) >= budget:
            return False
        cand = evaluate(expand_point(space, point), evaluator, point=point)
        feasible = check_constraints(cand.ops, cand.score, constraints)
        seen[point] = (cand, feasible)
        history.append(
            HistoryEntry(
                gen=gen,
                point=point,
                feasible=feasible,
                ops=cand.ops,
                params=cand.params,
                score=cand.score,
                u_value=cand.u_value,
            )
        )
        if feasible and (best is None or _rank_key(cand) < _rank_key(best)):
            best = cand
        return True

    consider(space.base_point())
    while len(seen) < min(budget, size):
        elite = sorted((c for c, feasible in seen.values() if feasible), key=_rank_key)
        parents = [c.point for c in elite[:POPULATION]]
        exhausted = False
        produced = 0
        for attempt in range(POPULATION * 10):
            if produced >= POPULATION:
                break
            if not parents or attempt % 4 == 3:
                point = sample_point(int(rng.integers(1 << 32)), gen, space)
            else:
                parent = parents[int(rng.integers(len(parents)))]
                point = _mutate(parent, space, rng)
            if point not in seen:
                if not consider(point):
                    exhausted = True
                    break
                produced += 1
        gen += 1
        if exhausted:
            break
        if produced == 0:
            # Proposals keep landing on visited points; finish small spaces
            # by sweeping the remainder in enumeration order.
            for point in space.enumerate_points():
                if point not in seen and not consider(point):
                    break
            break
    return ExploreResult(best=best, history=history, evaluations=len(seen), space_size=size)


def brute_force_search(
    space: DesignSpace,
    constraints: ConstraintSet,
    evaluator: Callable[[NetworkSpec], float],
) -> Optional[Candidate]:
    """Exact constrained argmax of u over the whole space.

    Ties break toward the lexicographically smallest slot-value tuple.
    Refuses spaces larger than 2^16 points.
    """
    size = space.size()
    if size > BRUTE_FORCE_LIMIT:
        raise ConfigError(f"space has {size} points, brute force caps at {BRUTE_FORCE_LIMIT}")
    best: Optional[Candidate] = None
    for point in space.enumerate_points():
        cand = evaluate(expand_point(space, point), evaluator, point=point)
        if not check_constraints(cand.ops, cand.score, constraints):
            continue
        if best is None or _rank_key(cand) < _rank_key(best):
            best = cand
    return best


# Per-kind capacity terms of the synthetic score; other kinds add nothing.
_CAPACITY = {
    "conv": lambda op: math.log1p(3 * op.out_channels),
    "pep": lambda op: 1.3 * math.log1p(op.proj1_channels + op.expansion_channels + op.out_channels),
    "ep": lambda op: 1.1 * math.log1p(op.expansion_channels + 2 * op.out_channels),
    "fca": lambda op: 2.0 * math.log1p(64 / op.reduction_ratio),
}


def synthetic_evaluator() -> Callable[[NetworkSpec], float]:
    """Deterministic stand-in for a trained-model score.

    score(spec) = 0.18 + 0.8 * (1 - exp(-g / HALF_LIFE)), where g sums
    per-node capacity terms:

        conv: log1p(3 * out_channels)
        pep:  1.3 * log1p(proj1 + expansion + out_channels)
        ep:   1.1 * log1p(expansion + 2 * out_channels)
        fca:  2.0 * log1p(64 / reduction_ratio)

    Bigger, wider designs score higher with diminishing returns, so ops
    budgets trade off against score exactly like a real accuracy proxy.
    """

    def score(spec: NetworkSpec) -> float:
        g = 0.0
        for node in spec.nodes:
            term = _CAPACITY.get(node.kind)
            if term is not None:
                g += term(node.op)
        return 0.18 + 0.8 * (1.0 - math.exp(-g / HALF_LIFE))

    return score


def format_log_header(space: DesignSpace) -> str:
    names = " ".join(slot.name for slot in space.slots)
    return f"# gen seed feasible ops params score u {names}".rstrip()


def format_history_line(seed: int, entry: HistoryEntry) -> str:
    score = "nan" if math.isnan(entry.score) else f"{entry.score:.6f}"
    u = "-inf" if entry.u_value == float("-inf") else f"{entry.u_value:.6f}"
    slots = " ".join(str(v) for v in entry.point)
    return (
        f"{entry.gen} {seed} {int(entry.feasible)} {entry.ops} {entry.params} "
        f"{score} {u} {slots}".rstrip()
    )
