"""Helpers that only tests run, kept as references beside the package.

`fake_quantize` is criterion 9's instrument: it rounds a tensor through a
bits-wide affine grid, the grid `complexity.quantize_tensor` uses at 8
bits.  `brute_force_search` is criterion 10's reference: the exact
constrained argmax that `explorer.explore` is checked against.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from compactdet import complexity, explorer
from compactdet.arch_graph import NetworkSpec
from compactdet.complexity import ConstraintSet
from compactdet.explorer import Candidate, DesignSpace
from compactdet.tensor_core import ConfigError

BRUTE_FORCE_LIMIT = 1 << 16


def fake_quantize(w: np.ndarray, bits: int) -> np.ndarray:
    """Round-trip w through a bits-wide affine grid."""
    if bits < 2 or bits > 16:
        raise ConfigError(f"fake_quantize supports 2..16 bits, got {bits}")
    q, scale, zero_point = complexity._affine_grid(w, (1 << bits) - 1)
    return (np.float32(scale) * (q.astype(np.float32) - np.float32(zero_point))).astype(np.float32)


def brute_force_search(
    space: DesignSpace,
    constraints: ConstraintSet,
    evaluator: Callable[[NetworkSpec], float],
) -> Optional[Candidate]:
    """Exact constrained argmax of u over the whole space.

    Each point is expanded, costed by a fresh count_network, scored and
    checked on its own, with none of the search's walk or ranking.  Ties
    break toward the lexicographically smallest slot-value tuple.
    Refuses spaces larger than 2^16 points.
    """
    size = space.size()
    if size > BRUTE_FORCE_LIMIT:
        raise ConfigError(f"space has {size} points, brute force caps at {BRUTE_FORCE_LIMIT}")
    best = None
    for point in space.enumerate_points():
        spec = explorer.expand_point(space, point)
        report = complexity.count_network(spec)
        cand = explorer.evaluate(spec, evaluator, report.total_ops, report.total_params, point=point)
        if complexity.failed_constraint(cand.ops, cand.score, constraints) is not None:
            continue
        if best is None or (-cand.u_value, point) < (-best.u_value, best.point):
            best = cand
    return best
