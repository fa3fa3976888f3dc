"""Anchor-grid decoding, NMS, evaluation, and image-space plumbing.

Boxes are (cx, cy, w, h) in normalized image coordinates: fractions of the
image side, center-based.  A raw prediction grid of shape
(1, A*(5+K), S, S) holds, per anchor, the channels
(tx, ty, tw, th, objectness, K class logits); cell (i, j) with anchor
(aw, ah) decodes to

    cx = (j + sigmoid(tx)) / S      w = aw * exp(tw)
    cy = (i + sigmoid(ty)) / S      h = ah * exp(th)

scored by sigmoid(objectness) times the best per-class sigmoid.  Decoding
emits one candidate per (cell, anchor) at the argmax class.

The mAP here is the VOC2007 11-point interpolated protocol, averaged over
classes that have at least one ground truth box.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .arch_graph import (
    MAX_INT, SCALE_TAGS, NetworkSpec, NonFiniteOutputError, WeightStore, _decimal, _float, execute,
)
from .tensor_core import ConfigError

DEFAULT_CONF_THRESHOLD = 0.25
DEFAULT_NMS_IOU = 0.45
DEFAULT_MATCH_IOU = 0.5
# Box size logits pass through exp; clip keeps hostile (untrained) weights
# from overflowing to inf boxes.  Trained logits live within a few units.
SIZE_LOGIT_CLIP = 30.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free sigmoid in float64.

    Not tensor_core.sigmoid: that kernel is float32, and decode scores (and so
    the detect output) are defined on the float64 values this one gives.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class DetectionFormatError(ValueError):
    """A detection/ground-truth interchange line is malformed."""


@dataclass(frozen=True)
class Boxes:
    """Boxes as columns, one row per box: float64 cx, cy, w, h and score,
    integer class_id.  The one box record: decode, NMS, box mapping, the
    interchange parsers and evaluate_map all take or give these."""

    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray
    class_id: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, rows) -> Boxes:
        return Boxes(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, parts: Sequence[Boxes]) -> Boxes:
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def decode_predictions(
    raw: np.ndarray, anchors: Sequence, conf_threshold: float = DEFAULT_CONF_THRESHOLD
) -> Boxes:
    """Decode one raw grid into candidate Boxes (no NMS), in (anchor, row,
    col) order; anchors are (w, h) pairs, as in NetworkSpec.anchors."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 4 or raw.shape[0] != 1:
        raise ConfigError(f"expected a (1, c, s, s) prediction grid, got shape {raw.shape}")
    try:
        anchor_wh = np.array(anchors, dtype=np.float64)
    except (TypeError, ValueError):
        anchor_wh = np.empty(0)
    if anchor_wh.ndim != 2 or anchor_wh.shape[1] != 2:
        raise ConfigError(f"anchors must be (w, h) pairs, got {anchors!r}")
    n_anchors = len(anchor_wh)
    channels = raw.shape[1]
    if n_anchors < 1 or channels % n_anchors != 0 or channels // n_anchors < 6:
        raise ConfigError(
            f"{channels} channels do not split into {n_anchors} anchors of (5 + classes)"
        )
    per_anchor = channels // n_anchors
    grid_h, grid_w = raw.shape[2], raw.shape[3]
    maps = raw[0].reshape(n_anchors, per_anchor, grid_h, grid_w)

    # The best class probability is at most 1 and rounding is monotone, so
    # score = objectness * best_prob >= conf needs objectness >= conf: class
    # sigmoids are computed only on the cells that pass objectness.
    objectness = _sigmoid(maps[:, 4])
    a, i, j = np.nonzero(objectness >= conf_threshold)
    # The argmax runs over sigmoids, not logits: large logits saturate to
    # 1.0, and a tie goes to the lowest class id.
    class_probs = _sigmoid(maps[a, 5:, i, j])
    best_class = class_probs.argmax(axis=1)
    scores = objectness[a, i, j] * class_probs[np.arange(len(a)), best_class]
    passed = scores >= conf_threshold
    a, i, j = a[passed], i[passed], j[passed]
    offsets = _sigmoid(maps[a, :2, i, j])
    sizes = np.exp(np.clip(maps[a, 2:4, i, j], -SIZE_LOGIT_CLIP, SIZE_LOGIT_CLIP))
    return Boxes(
        cx=(j + offsets[:, 0]) / grid_w,
        cy=(i + offsets[:, 1]) / grid_h,
        w=anchor_wh[a, 0] * sizes[:, 0],
        h=anchor_wh[a, 1] * sizes[:, 1],
        class_id=best_class[passed],
        score=scores[passed],
    )


NMS_TILE = 128  # boxes per tile (see nms)
NMS_BLOCK = 1 << 15  # pairs per IoU block: 256 KiB per float64 array, so it runs in cache
_NMS_MARGIN = 1e-6  # δ in nms: sound above 12 * 2**-53, and widens a range by only 1e-6


def _edges(boxes: Boxes) -> np.ndarray:
    """(left, right, top, bottom, area) rows, one column per box.

    A box of non-positive area has IoU 0 with everything: an empty
    interval keeps it from overlapping anything, and a positive stand-in
    area keeps every union it enters positive, so its IoU is exactly 0.
    """
    cx, cy, w, h = boxes.cx, boxes.cy, boxes.w, boxes.h
    edges = np.stack([cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2, w * h])
    edges[:, ~(edges[4] > 0)] = np.array([[np.inf], [-np.inf], [np.inf], [-np.inf], [1.0]])
    return edges


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each pair of `_edges` columns of a and b, which broadcast
    against each other (a[:, :, None] against b gives the (len a, len b)
    table).  The float64 operations are the scalar form's: min and max of
    edges, sides clipped at 0, inter / (area_a + area_b - inter).  Works in
    place, so a table makes four full-size arrays."""
    left, right, top, bottom, area = a
    b_left, b_right, b_top, b_bottom, b_area = b
    iw = np.minimum(right, b_right)
    iw -= np.maximum(left, b_left)
    ih = np.minimum(bottom, b_bottom)
    ih -= np.maximum(top, b_top)
    # Sides clipped at 0: unchanged where both are positive, a zero
    # intersection (so IoU 0) elsewhere.
    inter = np.maximum(iw, 0.0, out=iw)
    inter *= np.maximum(ih, 0.0, out=ih)
    union = np.add(area, b_area, out=ih)
    union -= inter
    return np.divide(inter, union, out=inter)


def nms(boxes: Boxes, iou_threshold: float = DEFAULT_NMS_IOU) -> np.ndarray:
    """Greedy per-class suppression; returns the kept rows of boxes, by
    descending score (ties in input order).

    The kept set is the pairwise scan's: walking in score order, a box is
    kept unless a kept box of its class overlaps it with `_iou` >
    iou_threshold.  Each class is walked in tiles of NMS_TILE boxes.  A
    tile is resolved greedily against itself, then its kept boxes suppress
    the still-alive later boxes of the class that lie in their area
    ranges, in blocks of at most NMS_BLOCK pairs.

    A pair outside the range has `_iou` <= t = iou_threshold.  Let
    u = 2**-53, fl(x) be x rounded to float64, a be a box's area (`_edges`
    row 4, so a > 0) and E its edge area
    fl(max(right - left, 0) * max(bottom - top, 0)), edges as computed.
    (1) `_iou`'s intersection I is at most min(E_p, E_q): each of its sides
    is the rounded difference of two edges no farther apart than one box's,
    and rounding is monotone.  (2) If I <= k * S over the reals, with
    S = a_p + a_q and k <= t / (1 + t) * (1 - 2u), the union
    fl(fl(S) - I) is at least S * (1 - u - k) * (1 - u) > 0, so
    I / union <= k / ((1 - u - k) * (1 - u)) <= t, and so is its rounding,
    t being a float.  (3) For t >= δ = _NMS_MARGIN,
    c = fl(t / (1 + t) * (1 - δ)) is normal, and k = c * (1 + 4u) meets
    (2): c's four roundings and the 4u cost under 12u, far less than δ.
    (4) Each class is sorted by area, and each box reaches r = fl(E / c).
    A later box q is outside p's range when a_q >= r_p, or when every box
    up to q in area order has r <= a_p.  In the first case
    E_p <= c * (a_q + 2**-1075) / (1 - u) <= k * S, as the quotient errs
    by at most u relative or 2**-1075 absolute, and a_p >= 2**-1074; the
    second case gives E_q <= k * S alike.  By (1) and (2), `_iou` <= t.
    An infinite area makes the union infinite, so its pairs never
    suppress.  A threshold below δ, NaN or infinite gives every box its
    whole class as its range.
    """
    order = np.argsort(-boxes.score, kind="stable")
    edges = _edges(boxes)[:, order]
    # Per box: the key its class is sorted by, and its reach r.  Keys 0 and
    # reaches inf make every range the whole class.
    sort_keys, reaches = np.zeros(len(order)), np.full(len(order), np.inf)
    if _NMS_MARGIN <= iou_threshold < np.inf:
        c = iou_threshold / (1 + iou_threshold) * (1 - _NMS_MARGIN)
        sort_keys = edges[4]
        reaches = np.maximum(edges[1] - edges[0], 0) * np.maximum(edges[3] - edges[2], 0) / c
    # Rows grouped by class, each group still in score order.
    classes = boxes.class_id[order]
    by_class = np.argsort(classes, kind="stable")
    grouped = classes[by_class]
    starts = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(order)]
    alive = np.ones(len(order), dtype=bool)
    for start, stop in zip(starts[:-1], starts[1:]):
        members = by_class[start:stop]
        box, key, reach = edges[:, members], sort_keys[members], reaches[members]
        live = alive[start:stop]  # a view: suppressing here writes to alive
        by_area = np.argsort(key, kind="stable")
        for t0 in range(0, stop - start, NMS_TILE):
            t1 = min(stop - start, t0 + NMS_TILE)
            tile = t0 + np.flatnonzero(live[t0:t1])
            blocked = _iou(box[:, tile, None], box[:, tile]) > iou_threshold
            kept = np.ones(len(tile), dtype=bool)
            for p in range(len(tile)):
                if kept[p]:
                    kept[p + 1:] &= ~blocked[p, p + 1:]
            live[tile[~kept]] = False
            rows = tile[kept]
            later = by_area[(by_area >= t1) & live[by_area]]  # live later boxes, by area
            first = np.searchsorted(np.maximum.accumulate(reach[later]), key[rows], "right")
            counts = np.maximum(np.searchsorted(key[later], reach[rows]) - first, 0)
            ends = np.cumsum(counts)
            shift = first - ends + counts  # pair k of row i is later[k + shift[i]]
            for k0 in range(0, counts.sum(), NMS_BLOCK):
                k = np.arange(k0, min(k0 + NMS_BLOCK, ends[-1]))
                row = np.searchsorted(ends, k, "right")
                cols = later[k + shift[row]]
                overlaps = _iou(box.take(rows[row], axis=1), box.take(cols, axis=1)) > iou_threshold
                live[cols[overlaps]] = False
    return order[np.sort(by_class[alive])]


def detect(
    image: np.ndarray,
    spec: NetworkSpec,
    weights: WeightStore,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    nms_iou: float = DEFAULT_NMS_IOU,
) -> Boxes:
    """Full pipeline on a preprocessed input tensor: execute, decode, NMS;
    returns the kept Boxes by descending score.

    Raises NonFiniteOutputError when the forward pass overflows float32
    (see execute) or a prediction grid holds NaN or inf without a float
    error on the way (a NaN bias), so no score reaches decode or NMS
    undefined.
    """
    grids = execute(spec, weights, image)
    tags = sorted({n.op.scale_tag for n in spec.detect_nodes()}, key=SCALE_TAGS.index)
    parts = []
    for tag, grid in zip(tags, grids, strict=True):
        if not np.isfinite(grid).all():
            raise NonFiniteOutputError(f"the {tag} prediction grid has non-finite values")
        if tag not in spec.anchors:
            raise ConfigError(f"spec has no anchors for scale {tag!r}")
        parts.append(decode_predictions(grid, spec.anchors[tag], conf_threshold))
    candidates = Boxes.concat(parts)
    return candidates[nms(candidates, nms_iou)]


@dataclass(frozen=True)
class LetterboxTransform:
    """Geometry of a letterbox resize, for mapping boxes back out."""

    scale: float
    pad_x: int
    pad_y: int
    orig_w: int
    orig_h: int
    target_w: int
    target_h: int

    def box_to_original(self, box: Boxes) -> Boxes:
        return replace(
            box,
            cx=(box.cx * self.target_w - self.pad_x) / self.scale / self.orig_w,
            cy=(box.cy * self.target_h - self.pad_y) / self.scale / self.orig_h,
            w=box.w * self.target_w / self.scale / self.orig_w,
            h=box.h * self.target_h / self.scale / self.orig_h,
        )


def letterbox_image(image: np.ndarray, target_hw: tuple) -> tuple:
    """Aspect-preserving resize onto a gray canvas.

    image is (h, w, 3), uint8 or float in [0, 1]; returns a (1, 3, H, W)
    float32 tensor in [0, 1] plus the transform.  Resampling is
    nearest-neighbour so reruns are bit-identical.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ConfigError(f"expected an (h, w, 3) image, got shape {image.shape}")
    h, w = image.shape[:2]
    target_h, target_w = target_hw
    scale = min(target_w / w, target_h / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))
    src_rows = np.minimum((np.arange(new_h) * h) // new_h, h - 1)
    src_cols = np.minimum((np.arange(new_w) * w) // new_w, w - 1)
    pad_y = (target_h - new_h) // 2
    pad_x = (target_w - new_w) // 2
    # Gather the sampled pixels first and convert only those, straight into
    # the channel-first canvas; each converts as the whole image would.
    pixels = image.take(src_rows, axis=0).take(src_cols, axis=1).transpose(2, 0, 1)
    tensor = np.full((1, 3, target_h, target_w), 0.5, dtype=np.float32)
    content = tensor[0, :, pad_y:pad_y + new_h, pad_x:pad_x + new_w]
    if image.dtype == np.uint8:
        np.divide(pixels, np.float32(255.0), out=content)
    else:
        content[...] = pixels
    transform = LetterboxTransform(
        scale=scale,
        pad_x=pad_x,
        pad_y=pad_y,
        orig_w=w,
        orig_h=h,
        target_w=target_w,
        target_h=target_h,
    )
    return tensor, transform


def _ap_11point(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """VOC2007 interpolation: mean over the 11-point recall grid of the
    maximum precision at recall >= the grid point."""
    ap = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recalls >= t - 1e-12
        ap += float(precisions[mask].max()) if mask.any() else 0.0
    return ap / 11.0


@dataclass
class MapResult:
    mean_ap: float
    ap_by_class: dict


def evaluate_map(
    detections_by_image: dict,
    truths_by_image: dict,
    iou_threshold: float = DEFAULT_MATCH_IOU,
) -> MapResult:
    """VOC2007 11-point mAP over classes that have at least one truth box.

    Both arguments map image ids to Boxes, as the parsers give them.  A
    detection's candidate is the truth of its image and class that it
    overlaps most (the first of equal IoUs), if that IoU is positive and at
    least iou_threshold.  Walking a class's detections by descending score
    (ties in image-id, then row order), a detection is a true positive when
    its candidate is not yet matched, and a false positive otherwise.  Scores
    matter only through their ordering, so any strictly monotone rescoring
    leaves the result unchanged.  Raises DetectionFormatError, naming the
    image, when a score or box field is not finite, or when the IoU of its
    detections and truths overflows float64 (huge but finite boxes).
    """
    for image_id, boxes in (*detections_by_image.items(), *truths_by_image.items()):
        if not np.isfinite([boxes.cx, boxes.cy, boxes.w, boxes.h, boxes.score]).all():
            raise DetectionFormatError(f"image {image_id}: a score or box field is not finite")
    # Per detection, in sorted image-id then row order: class, score, and its
    # candidate as a truth number across images (-1 for none).
    classes, scores, candidates = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.int64)]
    first_truth = 0
    for image_id in sorted(detections_by_image):
        dets = detections_by_image[image_id]
        truths = truths_by_image.get(image_id, dets[:0])
        candidate = np.full(len(dets), -1)
        if len(dets) and len(truths):
            try:
                with np.errstate(over="raise"):
                    overlaps = _iou(_edges(dets)[:, :, None], _edges(truths))
            except FloatingPointError:
                raise DetectionFormatError(f"image {image_id}: box IoU overflows float64") from None
            overlaps[dets.class_id[:, None] != truths.class_id] = 0.0
            best = overlaps.argmax(axis=1)
            best_iou = overlaps[np.arange(len(dets)), best]
            candidate = np.where((best_iou > 0) & (best_iou >= iou_threshold), first_truth + best, -1)
        first_truth += len(truths)
        classes.append(dets.class_id)
        scores.append(dets.score)
        candidates.append(candidate)
    classes, scores, candidates = map(np.concatenate, (classes, scores, candidates))
    truth_classes = np.concatenate([np.empty(0, np.int64), *(t.class_id for t in truths_by_image.values())])
    ap_by_class = {}
    for class_id, n_truth in zip(*(c.tolist() for c in np.unique(truth_classes, return_counts=True))):
        rows = np.flatnonzero(classes == class_id)
        ranked = candidates[rows[np.argsort(-scores[rows], kind="stable")]]
        hits = np.flatnonzero(ranked >= 0)
        tp = np.zeros(len(ranked))
        tp[hits[np.unique(ranked[hits], return_index=True)[1]]] = 1  # each truth's first hit
        cum_tp = np.cumsum(tp)
        precisions = cum_tp / np.arange(1, len(ranked) + 1)
        ap_by_class[class_id] = _ap_11point(cum_tp / n_truth, precisions) if len(ranked) else 0.0
    mean_ap = sum(ap_by_class.values()) / len(ap_by_class) if ap_by_class else 0.0
    return MapResult(mean_ap=mean_ap, ap_by_class=ap_by_class)


def format_detection_line(
    image_id: str, class_id: int, score: float, cx: float, cy: float, w: float, h: float
) -> str:
    """One interchange line; the arguments are in the line's field order."""
    return f"{image_id} {class_id} {score:.6f} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}"


def _parse(text: str, with_score: bool) -> dict:
    """{image_id: Boxes} of the interchange lines of text, rows in line
    order.  Ground-truth lines have no score column; their rows get score
    1.0, which nothing reads."""
    rows: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        expected = 7 if with_score else 6
        if len(fields) != expected:
            raise DetectionFormatError(f"line {line_no}: expected {expected} fields, got {len(fields)}")
        try:
            class_id = _decimal(fields[1])
            numbers = [_float(f) for f in fields[2:]]
        except ValueError:
            raise DetectionFormatError(f"line {line_no}: non-numeric field in {line!r}") from None
        if class_id > MAX_INT:
            raise DetectionFormatError(f"line {line_no}: class id {class_id} > {MAX_INT}")
        score = numbers.pop(0) if with_score else 1.0
        rows.setdefault(fields[0], []).append((*numbers, class_id, score))
    # Columns in Boxes' field order: Python floats give float64, ints int64.
    return {image_id: Boxes(*map(np.array, zip(*image_rows))) for image_id, image_rows in rows.items()}


def parse_detections(text: str) -> dict:
    return _parse(text, with_score=True)


def parse_ground_truths(text: str) -> dict:
    return _parse(text, with_score=False)
