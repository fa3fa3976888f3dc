"""Constrained design-space exploration over network configs.

A design space is a prototype network plus a set of named slots:

* field slots rebind one integer field of one node
  (``n<id>.out``, ``n<id>.proj1``, ``n<id>.expansion``, ``n<id>.reduction``),
* presence slots drop an attention node (``n<id>.present``, values 1/0),
* repeat slots duplicate a shape-preserving node k times (``n<id>.repeat``).

A point assigns every slot a value from its declared list; expanding a
point rewrites the prototype's node list (substituting fields, dropping or
duplicating nodes, and renumbering references) into a NetworkSpec.
parse_design_space reads each statement into its Slot, then checks the
whole space, so that every point in the cross product expands to a
runnable detector: detect nodes, and the nodes whose output channels
reach one, take no slot (an fca_site included) and no repeat.

Candidates are ranked by NetScore (Wong, arXiv 1806.05512) with
alpha = 2 and beta = gamma = 0.5:

    u = 20 * log10(score^2 / (params_millions^0.5 * ops_billions^0.5))

with u = -inf when the score is not positive.  Search is an elitist
(mu + lambda) evolutionary loop with per-slot categorical mutation.

Design-space document grammar (one statement per line, `#` comments):

    slot <name> values <v1,v2,...>
    fca_site <n_id> optional
    repeat <n_id> min <a> max <b>

Integers (values, node ids, a and b) are ASCII-decimal [0-9]+ tokens;
values are at most arch_graph.MAX_INT and b at most MAX_REPEAT.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import complexity
from .arch_graph import (
    _KINDS,
    _decimal,
    _inputs,
    _node_shape,
    INPUT_ID,
    MAX_INT,
    ConvSpec,
    NetworkSpec,
    NodeSpec,
    ParseError,
    infer_shapes,
    linear_conv_ids,
)
from .complexity import ConstraintSet, failed_constraint
from .nn_modules import EpConfig, FcaConfig, PepConfig
from .tensor_core import ConfigError

MAX_REPEAT = 64  # largest copy count a repeat slot may offer
POPULATION = 16  # parents kept and children proposed per generation
HALF_LIFE = 80.0  # capacity at which the synthetic score is 1 - 1/e of the way up
RAW_BLOCK = 256  # raw 64-bit outputs a search reads from its bit generator at a time


def _pinned_ids(base: NetworkSpec) -> set:
    """Detect nodes and every node whose output channels reach one."""
    pinned = {node.id for node in base.detect_nodes()}
    for node in reversed(base.nodes):  # readers come after what they read
        if node.id in pinned and "out" not in _KINDS[type(node.op)].slots:
            pinned.update(_inputs(node))  # a kind with no out field passes channels on
    return pinned


def mutable_fields(base: NetworkSpec) -> dict:
    """(node_id, short field name) -> current value, for nodes outside _pinned_ids."""
    pinned = _pinned_ids(base)
    return {
        (node.id, short): getattr(node.op, attr)
        for node in base.nodes
        if node.id not in pinned
        for short, attr in _KINDS[type(node.op)].slots.items()
    }


@dataclass(frozen=True)
class Slot:
    node_id: int
    field: str  # a mutable field's short name, "present" or "repeat"
    values: tuple

    @property
    def name(self) -> str:
        return f"n{self.node_id}.{self.field}"


@dataclass(frozen=True, eq=False)
class _Segment:
    """A maximal run of base nodes in which only the first carries slots.

    It hashes by identity, so a memo key that holds it names one space's run.
    """

    nodes: tuple  # the base nodes, in order
    indexes: tuple  # indexes of the first node's slots
    reads: tuple  # ids of the earlier base nodes (or INPUT_ID) that its nodes read
    raw: frozenset  # ids of its convs that feed a detect (linear_conv_ids)


@dataclass(frozen=True)
class DesignSpace:
    """A prototype network and its slots (module docstring).

    _walk expands a point one _Segment at a time (_segments): only a
    segment's first node carries slots, so its nodes, their shapes and
    their costs follow from its first node's slot values, what it reads
    from earlier segments and its first new id.  No slot touches a node
    whose channels reach a detect (_pinned_ids), so every point's raw heads
    are the prototype's.
    """

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
        """Per slot, the prototype's value (1 for present and repeat) if the
        slot offers it, else the slot's smallest value; so the point expands
        to the prototype itself when every slot offers its value."""
        values = []
        current = mutable_fields(self.base)
        for slot in self.slots:
            # Present and repeat slots keep the node once.
            base = current.get((slot.node_id, slot.field), 1)
            values.append(base if base in slot.values else slot.values[0])
        return tuple(values)

    def contains(self, point: tuple) -> bool:
        return len(point) == len(self.slots) and all(
            value in slot.values for slot, value in zip(self.slots, point)
        )

    @cached_property
    def _cdfs(self) -> tuple:
        """Per slot, the cdf that `Generator.choice(n, p=uniform)` searches,
        built as it builds it: the cumsum divided by its last element."""
        cdfs = (np.full(len(slot.values), 1.0 / len(slot.values)).cumsum() for slot in self.slots)
        return tuple((cdf / cdf[-1]).tolist() for cdf in cdfs)

    @cached_property
    def _mutable(self) -> tuple:
        """Indexes of the slots with more than one value."""
        return tuple(i for i, slot in enumerate(self.slots) if len(slot.values) > 1)

    @cached_property
    def _segments(self) -> tuple:
        """The base nodes cut into _Segments, in order: _walk's plan."""
        slotted = {slot.node_id for slot in self.slots}
        runs: list = []
        for node in self.base.nodes:
            if not runs or node.id in slotted:
                runs.append([])
            runs[-1].append(node)
        raw = linear_conv_ids(self.base)
        return tuple(
            _Segment(
                nodes=tuple(run),
                indexes=tuple(i for i, slot in enumerate(self.slots) if slot.node_id == run[0].id),
                reads=tuple(dict.fromkeys(i for node in run for i in _inputs(node) if i < run[0].id)),
                raw=raw.intersection(node.id for node in run),
            )
            for run in runs
        )


def _node_token(token: str) -> int:
    try:
        if token.startswith("n"):
            return _decimal(token[1:])
    except ValueError:
        pass
    raise ConfigError(f"node references look like n<id>, got {token!r}")


def _checked_node(base: NetworkSpec, node_id: int) -> NodeSpec:
    if not 0 <= node_id < len(base.nodes):
        raise ConfigError(f"node n{node_id} does not exist")
    return base.nodes[node_id]


def _validate_space(space: DesignSpace):
    """Every point must expand to a valid network; cheap structural checks
    plus the base point's walk, which applies every node's shape rule, keep
    that true by construction."""
    by_node: dict = {}
    for slot in space.slots:
        by_node.setdefault(slot.node_id, {})[slot.field] = slot.values
    for node_id, fields in by_node.items():
        node = space.base.nodes[node_id]
        # A repeated node must keep in == out under every out-channel
        # assignment, which an out slot on it would break.
        if "repeat" in fields and "out" in fields:
            raise ConfigError(f"n{node_id} cannot carry both repeat and out slots")
        if node.kind == "pep":
            proj1 = fields.get("proj1", (node.op.proj1_channels,))
            expansion = fields.get("expansion", (node.op.expansion_channels,))
            if max(proj1) > min(expansion):
                raise ConfigError(
                    f"slot values on n{node_id} allow proj1 {max(proj1)} > "
                    f"expansion {min(expansion)}; every point must be valid"
                )
    expand_point(space, space.base_point())


def expand_point(space: DesignSpace, point: tuple) -> NetworkSpec:
    """Rewrite the prototype with a slot assignment into a NetworkSpec."""
    if not space.contains(point):
        raise ConfigError(f"point {point!r} is not in the design space")
    return _walk(space, point, {})[0]


def _walk(space: DesignSpace, point: tuple, segments: dict) -> tuple:
    """(spec, ops, params) of a point of space, one memo lookup per segment.

    `segments` maps (segment, its slot values, the (new id, shape) of each
    earlier node it reads, its first new id) to _build's value, which that
    key fixes.  It serves one search over one space.

    A point of a parsed space needs no reference check: renumbering maps
    each ref to an earlier node, and detect nodes are never dropped or
    repeated, so their scale tags stay distinct, with the base's anchors.
    """
    nodes: list = []
    remap = {INPUT_ID: (INPUT_ID, tuple(space.base.input_shape))}  # base id -> (new id, shape)
    ops = params = 0
    value, read, lookup = point.__getitem__, remap.__getitem__, segments.get
    for seg in space._segments:
        key = (seg, tuple(map(value, seg.indexes)), tuple(map(read, seg.reads)), len(nodes))
        hit = lookup(key)
        if hit is None:
            hit = segments[key] = _build(space, *key)
        built, marks, seg_ops, seg_params = hit
        nodes += built
        remap.update(marks)
        ops += seg_ops
        params += seg_params

    base = space.base  # replace() would read every field's metadata, per point
    return NetworkSpec(tuple(nodes), base.input_shape, base.num_classes, base.anchors), ops, params


def _build(space: DesignSpace, seg: _Segment, values: tuple, reads: tuple, offset: int) -> tuple:
    """A segment's memo entry, from its _walk key: its NodeSpecs, the (new
    id, shape) of each of its base nodes, and its ops and params.

    Each node's shape rule and complexity.count_node run once, so their
    errors raise as in infer_shapes, and a failure is never cached.
    """
    remap = dict(zip(seg.reads, reads))  # base id -> (new id, shape)
    shapes = dict(reads)  # new id -> shape
    nodes: list = []
    ops = params = 0
    for at, node in enumerate(seg.nodes):
        kind = _KINDS[type(node.op)]
        changes = {ref: remap[getattr(node.op, ref)][0] for ref in kind.refs}
        copies = 1
        for i, value in zip(seg.indexes, values) if at == 0 else ():
            field = space.slots[i].field
            if field in ("present", "repeat"):
                copies *= value  # present is 1 or 0, repeat the copy count
            else:
                changes[kind.slots[field]] = value
        op = replace(node.op, **changes) if changes else node.op
        linear = node.id in seg.raw
        input_id = remap[node.input_id][0]
        for _ in range(copies):
            spec = NodeSpec(id=offset + len(nodes), op=op, input_id=input_id)
            shapes[spec.id] = _node_shape(spec, shapes, space.base)
            cost = complexity.count_node(spec, shapes[input_id], shapes[spec.id], linear=linear)
            ops += cost.ops
            params += cost.params
            nodes.append(spec)
            input_id = spec.id
        remap[node.id] = (input_id, shapes[input_id])
    return tuple(nodes), {node.id: remap[node.id] for node in seg.nodes}, ops, params


def _read_slot(tokens: list, base: NetworkSpec, table, mutable: dict) -> Slot:
    """The one Slot a statement declares, checked against the prototype."""
    if tokens[0] == "slot" and len(tokens) == 4 and tokens[2] == "values":
        head, _, fname = tokens[1].partition(".")
        node_id = _node_token(head)
        if (node_id, fname) not in mutable:
            raise ConfigError(f"slot {tokens[1]!r} does not name a mutable field")
        values = tuple(sorted({_decimal(v) for v in tokens[3].split(",")}))
        if not 1 <= values[0] <= values[-1] <= MAX_INT:
            raise ConfigError(f"slot {tokens[1]!r} needs positive candidate values <= {MAX_INT}")
        return Slot(node_id, fname, values)
    if tokens[0] == "fca_site" and len(tokens) == 3 and tokens[2] == "optional":
        node = _checked_node(base, _node_token(tokens[1]))
        if node.kind != "fca":
            raise ConfigError(f"fca_site n{node.id} is a {node.kind} node")
        if node.id in _pinned_ids(base):
            raise ConfigError(f"fca_site n{node.id} passes a detect node its channels")
        return Slot(node.id, "present", (1, 0))
    if tokens[0] == "repeat" and len(tokens) == 6 and tokens[2] == "min" and tokens[4] == "max":
        lo, hi = _decimal(tokens[3]), _decimal(tokens[5])
        if hi > MAX_REPEAT:
            raise ConfigError(f"repeat max {hi} exceeds {MAX_REPEAT}")
        node = _checked_node(base, _node_token(tokens[1]))
        if lo > hi:
            raise ConfigError(f"repeat bounds for n{node.id} must satisfy min <= max, got {lo} > {hi}")
        if node.id in _pinned_ids(base):
            raise ConfigError(f"repeat target n{node.id} is a detect node or sets one's channels")
        in_shape = table.of(node.input_id)
        if table.of(node.id) != in_shape or getattr(node.op, "stride", 1) != 1:
            raise ConfigError(
                f"repeat target n{node.id} must preserve its input shape "
                f"(stride 1, {in_shape[0]} -> {in_shape[0]} channels)"
            )
        return Slot(node.id, "repeat", tuple(range(lo, hi + 1)))
    raise ConfigError(f"unrecognized statement {' '.join(tokens)!r}")


def parse_design_space(text: str, base: NetworkSpec) -> DesignSpace:
    """The DesignSpace a document (module docstring) declares over base; each
    statement's errors, a duplicate target among them, name its line."""
    table = infer_shapes(base)
    mutable = mutable_fields(base)
    slots: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            slot = _read_slot(tokens, base, table, mutable)
            if slot.name in slots:
                raise ConfigError(f"duplicate {slot.name} statement")
        except (ValueError, ConfigError) as exc:
            raise ParseError(str(exc), line_no) from None
        slots[slot.name] = slot
    # Per node: field slots by name, then present, then repeat.
    order = sorted(slots.values(), key=lambda s: (s.node_id, s.field in ("present", "repeat"), s.field))
    space = DesignSpace(base=base, slots=tuple(order))
    try:
        _validate_space(space)
    except ConfigError as exc:
        raise ParseError(str(exc)) from None
    return space


def performance(score: float, params: int, ops: int) -> float:
    """NetScore u (module docstring); -inf when the score is not positive
    or the design has no parameters or no ops."""
    if not (score > 0.0 and params > 0 and ops > 0):
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
    ops: int,
    params: int,
    point: Optional[tuple] = None,
) -> Candidate:
    """Score one design whose total ops and params are counted, and attach
    its performance value.

    An evaluator that raises or returns a non-finite score yields a
    candidate with score nan and u -inf, which no constraint set with a
    score floor accepts.
    """
    try:
        score = float(evaluator(spec))
        if not math.isfinite(score):
            score = float("nan")
    except Exception:
        score = float("nan")
    return Candidate(
        spec=spec, ops=ops, params=params, score=score,
        u_value=performance(score, params, ops), point=point,
    )


@dataclass(frozen=True)
class HistoryEntry:
    gen: int
    failed: Optional[str]  # failed_constraint's verdict; None when feasible
    candidate: Candidate

    @property
    def feasible(self) -> bool:
        return self.failed is None


@dataclass(frozen=True)
class ExploreResult:
    best: Optional[Candidate]
    history: list  # HistoryEntry per evaluation, in evaluation order

    @property
    def evaluations(self) -> int:  # read by bench/perlayer.py
        return len(self.history)


def sample_point(seed: int, generation: int, space: DesignSpace) -> tuple:
    """Draw every slot uniformly from a stream fixed by (seed, generation).

    The stream's seed is the two 32-bit words [seed mod 2**32, generation]
    (the list form `default_rng([s, g])` seeds the same stream); a
    generation of 2**32 or more is refused.  Each slot takes one double of
    the stream and the first cdf entry above it: the draw of
    `Generator.choice(n, p=uniform)`, whose stream (not the one `choice`
    takes without p) fixes the points.
    """
    if not 0 <= generation <= 0xFFFFFFFF:
        raise ConfigError(f"generation must be in [0, 2**32), got {generation}")
    rng = np.random.default_rng(np.array([seed & 0xFFFFFFFF, generation], dtype=np.uint32))
    draws = rng.random(len(space.slots)).tolist()
    return tuple(
        slot.values[bisect_right(cdf, u)] for slot, cdf, u in zip(space.slots, space._cdfs, draws)
    )


class _Stream:
    """The draws of `np.random.default_rng(seed)`, formed from its bit
    generator's raw 64-bit outputs, read RAW_BLOCK at a time.

    A Generator spends most of a scalar draw on per-call overhead; this
    class forms the same values as it does, from the same PCG64 outputs:

    * random() is (raw >> 11) * 2**-53;
    * integers(n) draws nothing for n = 1, returns one 32-bit half for
      n = 2**32, and otherwise runs Lemire's rejection loop (arXiv
      1805.10941) on 32-bit halves.  The halves follow PCG64's
      next_uint32: an output's low half first, its high half kept for the
      next call.  random() never touches that half.

    Outputs read ahead and not used are dropped with the stream.
    """

    __slots__ = ("_next", "_high")

    def __init__(self, seed: int):
        bits = np.random.default_rng(seed).bit_generator
        blocks = iter(lambda: bits.random_raw(RAW_BLOCK).tolist(), None)  # never None: endless
        self._next = itertools.chain.from_iterable(blocks).__next__
        self._high = None  # the kept high half, if any

    def random(self) -> float:
        return (self._next() >> 11) * 2**-53

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        raw = self._next()
        self._high = raw >> 32
        return raw & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """Uniform on [0, n), for 1 <= n <= 2**32."""
        if 1 < n < 1 << 32:
            m = self._uint32() * n
            if m & 0xFFFFFFFF < n:
                threshold = (1 << 32) % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._uint32() * n
            return m >> 32
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._uint32()
        raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")


def _mutate(point: tuple, space: DesignSpace, rng: _Stream) -> tuple:
    """Per-slot categorical mutation at rate 0.1 with >= 1 forced change,
    drawn from the search's stream."""
    mutable = space._mutable
    values = list(point)
    changed = False
    for i in mutable:
        if rng.random() < 0.1:
            values[i] = _draw_other(space.slots[i], values[i], rng)
            changed = True
    if not changed and mutable:
        i = mutable[rng.integers(len(mutable))]
        values[i] = _draw_other(space.slots[i], values[i], rng)
    return tuple(values)


def _draw_other(slot: Slot, current, rng: _Stream):
    options = [v for v in slot.values if v != current]
    return options[rng.integers(len(options))] if options else current


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
    The best feasible u value is monotone over the history.  Parents,
    mutations and sample_point seeds are the draws of
    `np.random.default_rng(seed)`, as _Stream forms them.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = _Stream(seed)
    segments: dict = {}  # _walk's memo, dropped with this search
    seen = {}  # point -> entry, in evaluation order
    ranked = []  # rank keys (-u, point) of the feasible candidates, ascending

    def visit(point, gen):
        """Expand and cost point in one walk, then evaluate and check it."""
        spec, ops, params = _walk(space, point, segments)
        cand = evaluate(spec, evaluator, ops, params, point=point)
        seen[point] = entry = HistoryEntry(gen, failed_constraint(ops, cand.score, constraints), cand)
        if entry.feasible:
            insort(ranked, (-cand.u_value, point))

    gen = 0
    visit(space.base_point(), gen)
    while len(seen) < min(budget, space.size()):
        parents = [point for _, point in ranked[:POPULATION]]
        produced = 0
        for attempt in range(POPULATION * 10):
            if produced >= POPULATION or len(seen) >= budget:
                break
            if not parents or attempt % 4 == 3:
                point = sample_point(rng.integers(1 << 32), gen, space)
            else:
                parent = parents[rng.integers(len(parents))]
                point = _mutate(parent, space, rng)
            if point not in seen:
                visit(point, gen)
                produced += 1
        gen += 1
        if produced == 0:
            # Proposals keep landing on visited points; finish small spaces
            # by sweeping the remainder in enumeration order.
            for point in space.enumerate_points():
                if len(seen) >= budget:
                    break
                if point not in seen:
                    visit(point, gen)
            break
    # Points are unique, so rank keys are too: the first is the one best.
    best = seen[ranked[0][1]].candidate if ranked else None
    if best is not None:
        _recount(best)
    return ExploreResult(best=best, history=list(seen.values()))


def _recount(cand: Candidate):
    """Check the walk's totals for cand against a fresh count_network, so
    that a fault in the walk's memo fails the search."""
    report = complexity.count_network(cand.spec)
    if (report.total_ops, report.total_params) != (cand.ops, cand.params):
        raise RuntimeError(
            f"point {cand.point!r} was costed at {cand.ops} ops and {cand.params} params; "
            f"count_network gives {report.total_ops} and {report.total_params}"
        )


# Per-kind capacity terms of the synthetic score, by op class; others add nothing.
_CAPACITY = {
    ConvSpec: lambda op: math.log1p(3 * op.out_channels),
    PepConfig: lambda op: 1.3 * math.log1p(op.proj1_channels + op.expansion_channels + op.out_channels),
    EpConfig: lambda op: 1.1 * math.log1p(op.expansion_channels + 2 * op.out_channels),
    FcaConfig: lambda op: 2.0 * math.log1p(64 / op.reduction_ratio),
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
            term = _CAPACITY.get(type(node.op))
            if term is not None:
                g += term(node.op)
        return 0.18 + 0.8 * (1.0 - math.exp(-g / HALF_LIFE))

    return score


def format_log_header(space: DesignSpace) -> str:
    names = " ".join(slot.name for slot in space.slots)
    return f"# gen seed feasible ops params score u {names}".rstrip()


def format_history_line(seed: int, entry: HistoryEntry) -> str:
    cand = entry.candidate
    score = "nan" if math.isnan(cand.score) else f"{cand.score:.6f}"
    u = "-inf" if cand.u_value == float("-inf") else f"{cand.u_value:.6f}"
    slots = " ".join(str(v) for v in cand.point)
    return (
        f"{entry.gen} {seed} {int(entry.feasible)} {cand.ops} {cand.params} "
        f"{score} {u} {slots}".rstrip()
    )
