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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arch_graph import SCALE_TAGS, NetworkSpec, NonFiniteOutputError, WeightStore, execute
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
class BBox:
    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class Anchor:
    w: float
    h: float


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    class_id: int
    score: float


@dataclass(frozen=True)
class GroundTruth:
    bbox: BBox
    class_id: int


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; degenerate (non-positive area) boxes give 0."""
    area_a = a.w * a.h
    area_b = b.w * b.h
    if area_a <= 0 or area_b <= 0:
        return 0.0
    left = max(a.cx - a.w / 2, b.cx - b.w / 2)
    right = min(a.cx + a.w / 2, b.cx + b.w / 2)
    top = max(a.cy - a.h / 2, b.cy - b.h / 2)
    bottom = min(a.cy + a.h / 2, b.cy + b.h / 2)
    if right <= left or bottom <= top:
        return 0.0
    inter = (right - left) * (bottom - top)
    return inter / (area_a + area_b - inter)


def decode_predictions(
    raw: np.ndarray, anchors: Iterable, conf_threshold: float = DEFAULT_CONF_THRESHOLD
) -> list:
    """Decode one raw grid into Detection candidates (no NMS)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 4 or raw.shape[0] != 1:
        raise ConfigError(f"expected a (1, c, s, s) prediction grid, got shape {raw.shape}")
    anchors = [a if isinstance(a, Anchor) else Anchor(float(a[0]), float(a[1])) for a in anchors]
    n_anchors = len(anchors)
    channels = raw.shape[1]
    if n_anchors < 1 or channels % n_anchors != 0 or channels // n_anchors < 6:
        raise ConfigError(
            f"{channels} channels do not split into {n_anchors} anchors of (5 + classes)"
        )
    per_anchor = channels // n_anchors
    num_classes = per_anchor - 5
    grid_h, grid_w = raw.shape[2], raw.shape[3]

    maps = raw[0].reshape(n_anchors, per_anchor, grid_h, grid_w)
    sig = _sigmoid(maps[:, :2])
    cols = (np.arange(grid_w, dtype=np.float64) + sig[:, 0]) / grid_w
    rows = (np.arange(grid_h, dtype=np.float64).reshape(-1, 1) + sig[:, 1]) / grid_h
    sizes = np.exp(np.clip(maps[:, 2:4], -SIZE_LOGIT_CLIP, SIZE_LOGIT_CLIP))
    objectness = _sigmoid(maps[:, 4])
    class_probs = _sigmoid(maps[:, 5:])
    best_class = class_probs.argmax(axis=1)
    best_prob = np.take_along_axis(class_probs, best_class[:, None], axis=1)[:, 0]
    scores = objectness * best_prob

    # Candidates in (anchor, row, col) order, gathered in one pass.
    a, i, j = np.nonzero(scores >= conf_threshold)
    anchor_wh = np.array([(anchor.w, anchor.h) for anchor in anchors], dtype=np.float64)
    columns = (
        cols[a, i, j].tolist(),
        rows[a, i, j].tolist(),
        (anchor_wh[a, 0] * sizes[a, 0, i, j]).tolist(),
        (anchor_wh[a, 1] * sizes[a, 1, i, j]).tolist(),
        best_class[a, i, j].tolist(),
        scores[a, i, j].tolist(),
    )
    return [
        Detection(BBox(cx, cy, w, h), class_id, score)
        for cx, cy, w, h, class_id, score in zip(*columns)
    ]


def nms(detections: list, iou_threshold: float = DEFAULT_NMS_IOU) -> list:
    """Greedy per-class suppression; result sorted by descending score.

    Returns the given Detection objects that the pairwise scan keeps: walking
    in score order (ties in input order), a box is kept unless a kept box of
    its class overlaps it with IoU > iou_threshold.  The walk runs on arrays,
    one class at a time: each surviving box computes one row of IoUs against
    the later boxes of its class and marks those it suppresses.  A row repeats
    the float64 operations of `iou`, so every IoU, and so the kept set, is the
    one the scalar scan gives; no pairwise matrix is built.
    """
    ordered = sorted(detections, key=lambda d: -d.score)
    if not ordered:
        return []
    cx, cy, w, h = np.array(
        [(d.bbox.cx, d.bbox.cy, d.bbox.w, d.bbox.h) for d in ordered], dtype=np.float64
    ).T
    classes = np.array([d.class_id for d in ordered])
    edges = np.stack([cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2, w * h])
    # `iou` gives 0 for a box of non-positive area: an empty interval keeps
    # it from overlapping anything, and a positive stand-in area keeps every
    # union it enters positive, so its IoU is exactly 0 too.
    edges[:, ~(edges[4] > 0)] = np.array([[np.inf], [-np.inf], [np.inf], [-np.inf], [1.0]])
    keep = []
    for class_id in np.unique(classes):
        members = np.flatnonzero(classes == class_id)
        left, right, top, bottom, area = edges[:, members]
        alive = np.ones(members.size, dtype=bool)
        for p in range(members.size):
            if not alive[p]:
                continue
            later = slice(p + 1, None)
            iw = np.minimum(right[p], right[later]) - np.maximum(left[p], left[later])
            ih = np.minimum(bottom[p], bottom[later]) - np.maximum(top[p], top[later])
            # Sides clipped at 0: unchanged where both are positive, a zero
            # intersection (so IoU 0) elsewhere.
            inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
            alive[later] &= ~(inter / (area[p] + area[later] - inter) > iou_threshold)
        keep.extend(members[alive].tolist())
    return [ordered[k] for k in sorted(keep)]


def detect(
    image: np.ndarray,
    spec: NetworkSpec,
    weights: WeightStore,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    nms_iou: float = DEFAULT_NMS_IOU,
) -> list:
    """Full pipeline on a preprocessed input tensor: execute, decode, NMS.

    Raises NonFiniteOutputError when the forward pass overflows float32
    (see execute) or a prediction grid holds NaN or inf without a float
    error on the way (a NaN bias), so no score reaches decode or NMS
    undefined.
    """
    grids = execute(spec, weights, image)
    candidates: list = []
    for tag, grid in zip(SCALE_TAGS, grids):
        if not np.isfinite(grid).all():
            raise NonFiniteOutputError(f"the {tag} prediction grid has non-finite values")
        if tag not in spec.anchors:
            raise ConfigError(f"spec has no anchors for scale {tag!r}")
        candidates.extend(decode_predictions(grid, spec.anchors[tag], conf_threshold))
    return nms(candidates, nms_iou)


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

    def box_to_original(self, box: BBox) -> BBox:
        return BBox(
            cx=(box.cx * self.target_w - self.pad_x) / self.scale / self.orig_w,
            cy=(box.cy * self.target_h - self.pad_y) / self.scale / self.orig_h,
            w=box.w * self.target_w / self.scale / self.orig_w,
            h=box.h * self.target_h / self.scale / self.orig_h,
        )

    def box_to_letterboxed(self, box: BBox) -> BBox:
        return BBox(
            cx=(box.cx * self.orig_w * self.scale + self.pad_x) / self.target_w,
            cy=(box.cy * self.orig_h * self.scale + self.pad_y) / self.target_h,
            w=box.w * self.orig_w * self.scale / self.target_w,
            h=box.h * self.orig_h * self.scale / self.target_h,
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
    if image.dtype == np.uint8:
        pixels = image.astype(np.float32) / 255.0
    else:
        pixels = image.astype(np.float32)
    h, w = pixels.shape[:2]
    target_h, target_w = target_hw
    scale = min(target_w / w, target_h / h)
    new_w = max(1, round(w * scale))
    new_h = max(1, round(h * scale))
    src_rows = np.minimum((np.arange(new_h) * h) // new_h, h - 1)
    src_cols = np.minimum((np.arange(new_w) * w) // new_w, w - 1)
    resized = pixels[src_rows][:, src_cols]
    canvas = np.full((target_h, target_w, 3), 0.5, dtype=np.float32)
    pad_y = (target_h - new_h) // 2
    pad_x = (target_w - new_w) // 2
    canvas[pad_y:pad_y + new_h, pad_x:pad_x + new_w] = resized
    tensor = np.ascontiguousarray(canvas.transpose(2, 0, 1)[None])
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

    Scores matter only through their ordering, so any strictly monotone
    rescoring leaves the result unchanged.
    """
    class_ids = sorted({t.class_id for truths in truths_by_image.values() for t in truths})
    ap_by_class = {}
    for class_id in class_ids:
        flat = [
            (det.score, image_id, det)
            for image_id in sorted(detections_by_image)
            for det in detections_by_image[image_id]
            if det.class_id == class_id
        ]
        flat.sort(key=lambda item: -item[0])
        n_truth = sum(
            1 for truths in truths_by_image.values() for t in truths if t.class_id == class_id
        )
        matched: set = set()
        tp = np.zeros(len(flat))
        fp = np.zeros(len(flat))
        for rank, (_, image_id, det) in enumerate(flat):
            truths = [
                (idx, t)
                for idx, t in enumerate(truths_by_image.get(image_id, []))
                if t.class_id == class_id
            ]
            best_iou, best_idx = 0.0, None
            for idx, t in truths:
                overlap = iou(det.bbox, t.bbox)
                if overlap > best_iou:
                    best_iou, best_idx = overlap, idx
            if best_idx is not None and best_iou >= iou_threshold and (image_id, best_idx) not in matched:
                matched.add((image_id, best_idx))
                tp[rank] = 1
            else:
                fp[rank] = 1
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum(fp)
        recalls = cum_tp / n_truth
        precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1)
        ap_by_class[class_id] = _ap_11point(recalls, precisions) if len(flat) else 0.0
    mean_ap = sum(ap_by_class.values()) / len(ap_by_class) if ap_by_class else 0.0
    return MapResult(mean_ap=mean_ap, ap_by_class=ap_by_class)


def _iou_wh(wh: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """IoU of width/height pairs anchored at a common corner: (n, k)."""
    inter = np.minimum(wh[:, None, 0], centers[None, :, 0]) * np.minimum(
        wh[:, None, 1], centers[None, :, 1]
    )
    union = wh[:, 0] * wh[:, 1]
    union = union[:, None] + centers[None, :, 0] * centers[None, :, 1] - inter
    return inter / np.maximum(union, 1e-12)


def kmeans_anchors(box_whs, k: int, seed: int = 0, iters: int = 100) -> list:
    """Cluster (w, h) pairs under 1 - IoU distance; returns k anchors by area."""
    wh = np.asarray(box_whs, dtype=np.float64).reshape(-1, 2)
    if len(wh) < k:
        raise ConfigError(f"need at least k={k} boxes, got {len(wh)}")
    rng = np.random.default_rng(seed)
    centers = wh[rng.choice(len(wh), size=k, replace=False)].copy()
    assign = np.full(len(wh), -1)
    for _ in range(iters):
        new_assign = _iou_wh(wh, centers).argmax(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = wh[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    order = np.argsort(centers[:, 0] * centers[:, 1])
    return [Anchor(float(w), float(h)) for w, h in centers[order]]


def format_detection_line(image_id: str, det: Detection) -> str:
    b = det.bbox
    return (
        f"{image_id} {det.class_id} {det.score:.6f} "
        f"{b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}"
    )


def format_ground_truth_line(image_id: str, truth: GroundTruth) -> str:
    b = truth.bbox
    return f"{image_id} {truth.class_id} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}"


def _parse_line(line: str, line_no: int, with_score: bool) -> tuple:
    fields = line.split()
    expected = 7 if with_score else 6
    if len(fields) != expected:
        raise DetectionFormatError(
            f"line {line_no}: expected {expected} fields, got {len(fields)}"
        )
    try:
        image_id = fields[0]
        class_id = int(fields[1])
        numbers = [float(f) for f in fields[2:]]
    except ValueError:
        raise DetectionFormatError(f"line {line_no}: non-numeric field in {line!r}") from None
    if class_id < 0:
        raise DetectionFormatError(f"line {line_no}: negative class id")
    return image_id, class_id, numbers


def parse_detections(text: str) -> dict:
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        image_id, class_id, nums = _parse_line(line, line_no, with_score=True)
        det = Detection(bbox=BBox(*nums[1:]), class_id=class_id, score=nums[0])
        out.setdefault(image_id, []).append(det)
    return out


def parse_ground_truths(text: str) -> dict:
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        image_id, class_id, nums = _parse_line(line, line_no, with_score=False)
        out.setdefault(image_id, []).append(GroundTruth(bbox=BBox(*nums), class_id=class_id))
    return out
