"""Per-box records, the scalar IoU and mAP, and box helpers that only
tests run, kept as test oracles.

`detection` holds boxes only as `Boxes` columns.  The records here are
the per-box form the columnar code replaced: `iou` is the scalar IoU that
`detection._iou` repeats, and `evaluate_map` the per-detection scan that
`detection.evaluate_map` must reproduce exactly.  `as_boxes` and
`as_detections` convert between the two forms, and `checked_map` scores
records with the columnar `evaluate_map`, checked against the scan.
`box_to_letterboxed` is the inverse of `LetterboxTransform.box_to_original`,
and `kmeans_anchors` derives anchors of the form an `anchors` line takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from compactdet import detection
from compactdet.detection import DEFAULT_MATCH_IOU, Boxes, LetterboxTransform, MapResult, _ap_11point
from compactdet.tensor_core import ConfigError


@dataclass(frozen=True)
class BBox:
    cx: float
    cy: float
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


def evaluate_map(
    detections_by_image: dict,
    truths_by_image: dict,
    iou_threshold: float = DEFAULT_MATCH_IOU,
) -> MapResult:
    """VOC2007 11-point mAP over lists of Detection and GroundTruth, one
    detection at a time."""
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


def as_boxes(records) -> Boxes:
    """List of Detection or GroundTruth -> Boxes, row k from records[k]; a
    GroundTruth row gets score 1.0, as `parse_ground_truths` gives it."""
    return Boxes(
        *(np.array([getattr(r.bbox, f) for r in records], dtype=np.float64) for f in ("cx", "cy", "w", "h")),
        class_id=np.array([r.class_id for r in records], dtype=np.int64),
        score=np.array([getattr(r, "score", 1.0) for r in records], dtype=np.float64),
    )


def as_detections(boxes: Boxes) -> list:
    """Boxes -> list of Detection with Python float and int fields."""
    rows = zip(*(getattr(boxes, f).tolist() for f in ("cx", "cy", "w", "h", "class_id", "score")))
    return [Detection(BBox(cx, cy, w, h), class_id, score) for cx, cy, w, h, class_id, score in rows]


def as_columns(records_by_image: dict) -> dict:
    """{image_id: list of records} -> {image_id: Boxes}, the form that
    `detection.evaluate_map` takes."""
    return {image_id: as_boxes(records) for image_id, records in records_by_image.items()}


def checked_map(dets: dict, truths: dict, **kwargs) -> MapResult:
    """`detection.evaluate_map` on {image_id: list of records}; the scalar
    `evaluate_map` must give the same result exactly (`==`)."""
    got = detection.evaluate_map(as_columns(dets), as_columns(truths), **kwargs)
    assert got == evaluate_map(dets, truths, **kwargs)
    return got


def box_to_letterboxed(t: LetterboxTransform, box):
    """Map a box (any dataclass with cx, cy, w, h) from original-image to
    letterboxed coordinates: the inverse of `t.box_to_original`."""
    return replace(
        box,
        cx=(box.cx * t.orig_w * t.scale + t.pad_x) / t.target_w,
        cy=(box.cy * t.orig_h * t.scale + t.pad_y) / t.target_h,
        w=box.w * t.orig_w * t.scale / t.target_w,
        h=box.h * t.orig_h * t.scale / t.target_h,
    )


def _iou_wh(wh: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """IoU of width/height pairs anchored at a common corner: (n, k)."""
    inter = np.minimum(wh[:, None, 0], centers[None, :, 0]) * np.minimum(
        wh[:, None, 1], centers[None, :, 1]
    )
    union = wh[:, 0] * wh[:, 1]
    union = union[:, None] + centers[None, :, 0] * centers[None, :, 1] - inter
    return inter / np.maximum(union, 1e-12)


def kmeans_anchors(box_whs, k: int, seed: int = 0, iters: int = 100) -> list:
    """Cluster finite, positive (w, h) pairs, as an `anchors` line takes,
    under 1 - IoU distance; returns k (w, h) anchor tuples by area."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    wh = np.asarray(box_whs, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(wh) & (wh > 0)).all():
        raise ConfigError("box sizes must be positive and finite")
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
    return [(float(w), float(h)) for w, h in centers[order]]
