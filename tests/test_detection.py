"""Decoding, suppression, evaluation, and image-plumbing tests.

Decode and NMS get independent scalar re-implementations (plain Python
loops, math.exp); the mAP examples are enumerated by hand on paper so the
expected values are literals, not regenerated numbers.  `decode_predictions`
and `nms` work on column arrays (`Boxes`); `decode_list` and `nms_objects`
are the thin list-level wrappers through which they meet the scalar
oracles.  The tiled `nms` is also checked object for object against
`nms_scalar`, the pairwise scan it replaced, on hypothesis-drawn scenes, on
classes larger than a tile and on one dense frame.  The per-box records,
the scalar `iou` and the per-detection `evaluate_map` it replaced live in
`box_oracles`: `_edges` + `_iou` and the columnar `evaluate_map` must
give their values exactly.
"""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from box_oracles import (
    BBox, Detection, GroundTruth, as_boxes, as_columns, as_detections, box_to_letterboxed, checked_map,
    iou, kmeans_anchors,
)
from compactdet.arch_graph import SCALE_TAGS, WeightStore, execute, load_bundled_config
from compactdet import detection
from compactdet.detection import (
    NMS_BLOCK,
    NMS_TILE,
    Boxes,
    DEFAULT_CONF_THRESHOLD,
    DetectionFormatError,
    NonFiniteOutputError,
    _edges,
    _iou,
    decode_predictions,
    detect,
    evaluate_map,
    format_detection_line,
    letterbox_image,
    nms,
    parse_detections,
    parse_ground_truths,
)
from compactdet.tensor_core import ConfigError


def iou_reference(a, b):
    """Corner-form IoU with no shortcuts."""
    ax1, ay1 = a.cx - a.w / 2, a.cy - a.h / 2
    ax2, ay2 = a.cx + a.w / 2, a.cy + a.h / 2
    bx1, by1 = b.cx - b.w / 2, b.cy - b.h / 2
    bx2, by2 = b.cx + b.w / 2, b.cy + b.h / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def decode_reference(raw, anchors, conf_threshold):
    """Cell-by-cell scalar decode in the documented channel order."""
    n_anchors = len(anchors)
    per_anchor = raw.shape[1] // n_anchors
    num_classes = per_anchor - 5
    grid_h, grid_w = raw.shape[2], raw.shape[3]
    maps = raw[0].reshape(n_anchors, per_anchor, grid_h, grid_w)
    out = []
    for a in range(n_anchors):
        for i in range(grid_h):
            for j in range(grid_w):
                obj = sigmoid(float(maps[a, 4, i, j]))
                best_c, best_p = 0, sigmoid(float(maps[a, 5, i, j]))
                for c in range(1, num_classes):
                    p = sigmoid(float(maps[a, 5 + c, i, j]))
                    if p > best_p:
                        best_c, best_p = c, p
                score = obj * best_p
                if score >= conf_threshold:
                    out.append(
                        Detection(
                            bbox=BBox(
                                cx=(j + sigmoid(float(maps[a, 0, i, j]))) / grid_w,
                                cy=(i + sigmoid(float(maps[a, 1, i, j]))) / grid_h,
                                w=anchors[a][0] * math.exp(float(maps[a, 2, i, j])),
                                h=anchors[a][1] * math.exp(float(maps[a, 3, i, j])),
                            ),
                            class_id=best_c,
                            score=score,
                        )
                    )
    return out


def nms_reference(detections, iou_threshold):
    """Quadratic scan-based greedy suppression."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    kept = []
    for i in order:
        d = detections[i]
        ok = True
        for k in kept:
            if k.class_id == d.class_id and iou_reference(k.bbox, d.bbox) > iou_threshold:
                ok = False
                break
        if ok:
            kept.append(d)
    return kept


def nms_scalar(detections, iou_threshold):
    """The pairwise greedy scan on `iou`, kept as the oracle of `nms`."""
    ordered = sorted(detections, key=lambda d: -d.score)
    kept = []
    for det in ordered:
        suppressed = any(
            k.class_id == det.class_id and iou(k.bbox, det.bbox) > iou_threshold for k in kept
        )
        if not suppressed:
            kept.append(det)
    return kept


def decode_list(raw, anchors, conf_threshold=DEFAULT_CONF_THRESHOLD):
    return as_detections(decode_predictions(raw, anchors, conf_threshold))


def nms_objects(detections, iou_threshold):
    """`nms` on a list: the very Detection objects it keeps, in its order."""
    return [detections[k] for k in nms(as_boxes(detections), iou_threshold)]


def assert_same_objects(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def iou_columns(a, b):
    """`_edges` + `_iou` on one pair of BBox, as a Python float."""
    edges = [_edges(as_boxes([Detection(box, 0, 0.5)])) for box in (a, b)]
    return _iou(edges[0][:, :, None], edges[1]).item()


class TestIou:
    """`_edges` + `_iou` give the scalar oracle `iou`'s value exactly."""

    def test_hand_cases(self):
        a = BBox(0.5, 0.5, 0.4, 0.4)
        assert iou_columns(a, a) == iou(a, a) == pytest.approx(1.0)
        assert iou_columns(a, BBox(0.9, 0.9, 0.1, 0.1)) == 0.0
        # Shift by half a side: intersection 0.2*0.4, union 2*0.16 - 0.08.
        shifted = BBox(0.7, 0.5, 0.4, 0.4)
        assert iou_columns(a, shifted) == iou(a, shifted) == pytest.approx(1 / 3)

    def test_degenerate_boxes(self):
        """Zero or negative sides: IoU 0 with everything, themselves too."""
        a = BBox(0.5, 0.5, 0.0, 0.4)
        for b in (a, BBox(0.5, 0.5, 0.2, 0.2), BBox(0.5, 0.5, -0.2, 0.2), BBox(0.5, 0.5, -0.2, -0.2)):
            assert iou_columns(a, b) == iou_columns(b, a) == iou(a, b) == 0.0
            assert iou_columns(b, b) == iou(b, b)

    def test_matches_reference_and_symmetry(self):
        rng = np.random.default_rng(81)
        for _ in range(500):
            a = BBox(*rng.uniform(0.05, 0.95, 2), *rng.uniform(0.01, 0.6, 2))
            b = BBox(*rng.uniform(0.05, 0.95, 2), *rng.uniform(0.01, 0.6, 2))
            want = iou_reference(a, b)
            assert iou_columns(a, b) == iou(a, b) == pytest.approx(want, abs=1e-12)
            assert iou_columns(b, a) == iou(b, a) == pytest.approx(want, abs=1e-12)
            assert 0.0 <= want <= 1.0

    def test_table_matches_scalar_pairs(self):
        """One (n, m) table holds each pair's scalar IoU, degenerate boxes
        included."""
        rng = np.random.default_rng(80)
        boxes = [BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(-0.1, 0.5, 2)) for _ in range(40)]
        edges = _edges(as_boxes([Detection(b, 0, 0.5) for b in boxes]))
        table = _iou(edges[:, :30, None], edges[:, 30:])
        assert table.tolist() == [[iou(a, b) for b in boxes[30:]] for a in boxes[:30]]


class TestDecode:
    def random_grid(self, rng):
        n_anchors = int(rng.integers(1, 4))
        num_classes = int(rng.integers(1, 6))
        s = int(rng.choice([1, 2, 4]))
        raw = rng.standard_normal((1, n_anchors * (5 + num_classes), s, s)) * 2
        anchors = [(float(w), float(h)) for w, h in rng.uniform(0.05, 0.8, (n_anchors, 2))]
        return raw.astype(np.float64), anchors

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            raw, anchors = self.random_grid(rng)
            threshold = float(rng.choice([0.0, 0.1, 0.25, 0.5]))
            got = decode_list(raw, anchors, threshold)
            want = decode_reference(raw, anchors, threshold)
            assert len(got) == len(want)
            got_s = sorted(got, key=lambda d: (d.bbox.cx, d.bbox.cy, d.class_id, d.score))
            want_s = sorted(want, key=lambda d: (d.bbox.cx, d.bbox.cy, d.class_id, d.score))
            for g, w in zip(got_s, want_s):
                assert g.class_id == w.class_id
                assert g.score == pytest.approx(w.score, abs=1e-9)
                for field in ("cx", "cy", "w", "h"):
                    assert getattr(g.bbox, field) == pytest.approx(
                        getattr(w.bbox, field), abs=1e-9
                    )

    def test_candidates_in_anchor_row_col_order(self):
        """The single-pass gather emits the scalar decoder's order."""
        rng = np.random.default_rng(88)
        for _ in range(50):
            raw, anchors = self.random_grid(rng)
            got = decode_predictions(raw, anchors, 0.1)
            want = decode_reference(raw, anchors, 0.1)
            assert got.class_id.tolist() == [d.class_id for d in want]
            for g, w in zip(as_detections(got), want):
                assert (g.bbox.cx, g.bbox.cy) == pytest.approx((w.bbox.cx, w.bbox.cy), abs=1e-9)
            assert got.score.dtype == np.float64 and got.class_id.dtype.kind == "i"

    def test_zero_logits_decode(self):
        """All-zero grid: center of each cell, anchor-sized box, score 0.25."""
        raw = np.zeros((1, 1 * (5 + 3), 2, 2))
        dets = decode_list(raw, [(0.3, 0.4)], conf_threshold=0.2)
        assert len(dets) == 4
        centers = sorted((d.bbox.cx, d.bbox.cy) for d in dets)
        assert centers == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
        for d in dets:
            assert d.score == pytest.approx(0.25)
            assert (d.bbox.w, d.bbox.h) == (0.3, 0.4)
            assert d.class_id == 0

    def test_threshold_respected(self):
        rng = np.random.default_rng(83)
        raw, anchors = self.random_grid(rng)
        for threshold in (0.1, 0.3, 0.6):
            assert (decode_predictions(raw, anchors, threshold).score >= threshold).all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            decode_predictions(np.zeros((2, 24, 4, 4)), [(0.5, 0.5)])
        with pytest.raises(ConfigError):
            decode_predictions(np.zeros((1, 25, 4, 4)), [(0.5, 0.5), (0.2, 0.2)])
        for anchors in ([(0.3,)], [(0.3, 0.4, 0.5)], [(0.3, 0.4), (0.5,)], []):
            with pytest.raises(ConfigError, match="anchors must be"):
                decode_predictions(np.zeros((1, 8, 4, 4)), anchors)

    def test_hostile_logits_saturate(self):
        """Untrained weights can emit huge logits; decode must stay finite
        (size exponents clip at +-30) and must not trip overflow."""
        raw = np.zeros((1, 8, 1, 1))
        raw[0, 2:4, 0, 0] = (5000.0, -5000.0)   # tw, th
        raw[0, 4:7, 0, 0] = (1000.0, 1000.0, -1000.0)  # objectness, class logits
        with np.errstate(over="raise"):
            (det,) = decode_list(raw, [(0.3, 0.4)], conf_threshold=0.2)
        assert det.bbox.w == pytest.approx(0.3 * np.exp(30.0))
        assert det.bbox.h == pytest.approx(0.4 * np.exp(-30.0))
        assert det.score == pytest.approx(1.0)
        assert np.isfinite([det.bbox.w, det.bbox.h, det.score]).all()

    def test_saturated_class_tie_picks_lower_id(self):
        """Logits 40 and 50 both give sigmoid 1.0: the argmax runs over the
        sigmoids, so the tie goes to the lower class id, not to the larger
        logit."""
        raw = np.zeros((1, 8, 1, 1))
        raw[0, 4:8, 0, 0] = (40.0, -1.0, 40.0, 50.0)  # objectness, class logits
        (det,) = decode_list(raw, [(0.3, 0.4)], conf_threshold=0.5)
        assert det.class_id == 1
        assert det.score == 1.0

    def test_score_equal_to_threshold_is_kept(self):
        rng = np.random.default_rng(89)
        raw = rng.standard_normal((1, 2 * 8, 3, 3))
        for det in decode_list(raw, [(0.3, 0.4), (0.2, 0.1)], conf_threshold=0.0):
            (kept,) = [
                d for d in decode_list(raw, [(0.3, 0.4), (0.2, 0.1)], conf_threshold=det.score)
                if d.bbox == det.bbox
            ]
            assert kept == det
        # Zero logits score exactly 0.5 * 0.5.
        assert len(decode_list(np.zeros((1, 8, 2, 2)), [(0.3, 0.4)], 0.25)) == 4

    def test_class_sigmoids_only_on_cells_that_pass_objectness(self, monkeypatch):
        """A cell whose objectness is below the threshold cannot score above
        it, so its class logits never reach a sigmoid."""
        marker = 123.25
        raw = np.full((1, 8, 3, 3), marker)
        raw[0, :4] = 0.0
        raw[0, 4] = -20.0    # objectness far below any useful threshold
        raw[0, 4, 1, 2] = 20.0
        raw[0, 5:, 1, 2] = (0.0, 2.0, 1.0)
        seen = []
        real = detection._sigmoid

        def spy(z):
            seen.append(np.array(z))
            return real(z)

        monkeypatch.setattr(detection, "_sigmoid", spy)
        (det,) = decode_list(raw, [(0.3, 0.4)], conf_threshold=0.25)
        assert det.class_id == 1
        assert (det.bbox.cx, det.bbox.cy) == (2.5 / 3, 1.5 / 3)
        assert not any((z == marker).any() for z in seen)
        assert sum(z.size for z in seen) == 9 + 3 + 2  # objectness, one cell's classes, its offsets


class TestNms:
    def random_scene(self, rng):
        n = int(rng.integers(0, 11))
        scores = rng.permutation(np.linspace(0.05, 0.95, n))  # distinct scores
        return [
            Detection(
                bbox=BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.5, 2)),
                class_id=int(rng.integers(0, 3)),
                score=float(scores[i]),
            )
            for i in range(n)
        ]

    def test_matches_reference_1000_scenes(self):
        rng = np.random.default_rng(84)
        for _ in range(1000):
            dets = self.random_scene(rng)
            threshold = float(rng.choice([0.3, 0.45, 0.6]))
            assert nms_objects(dets, threshold) == nms_reference(dets, threshold)

    def test_keeps_cross_class_overlaps(self):
        a = Detection(BBox(0.5, 0.5, 0.4, 0.4), class_id=0, score=0.9)
        b = Detection(BBox(0.5, 0.5, 0.4, 0.4), class_id=1, score=0.8)
        assert nms_objects([a, b], 0.45) == [a, b]

    def test_suppresses_same_class_duplicate(self):
        a = Detection(BBox(0.5, 0.5, 0.4, 0.4), class_id=0, score=0.9)
        b = Detection(BBox(0.52, 0.5, 0.4, 0.4), class_id=0, score=0.8)
        assert nms_objects([a, b], 0.45) == [a]

    def test_boundary_iou_not_suppressed(self):
        """Suppression needs IoU strictly greater than the threshold."""
        a = Detection(BBox(0.3, 0.5, 0.2, 0.2), class_id=0, score=0.9)
        # Same-size box shifted to exactly IoU = 1/3.
        b = Detection(BBox(0.4, 0.5, 0.2, 0.2), class_id=0, score=0.8)
        assert iou(a.bbox, b.bbox) == pytest.approx(1 / 3)
        assert nms_objects([a, b], 1 / 3) == [a, b]

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(85)
        for _ in range(50):
            kept = nms_objects(self.random_scene(rng), 0.45)
            scores = [d.score for d in kept]
            assert scores == sorted(scores, reverse=True)


# Scene parts for the property test.  Grid values make exact score ties,
# shared edges and exact IoU boundaries (two 0.2-wide boxes 0.1 apart meet at
# IoU 1/3) common; sides run from non-positive (IoU 0 with everything) up to
# the anchor * e^30 boxes that clipped untrained size logits produce.
GRID = [k / 10 for k in range(-2, 13)]
CENTERS = st.one_of(st.sampled_from(GRID), st.floats(-1.0, 2.0))
SIDES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.2, 0.1, 0.2, 0.4]),
    st.floats(-1.0, 0.0),
    st.floats(1e-15, 1e13),
)
BOXES = st.builds(BBox, CENTERS, CENTERS, SIDES, SIDES)
SCORES = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def nms_scenes(draw):
    """(detections, threshold): up to 300 boxes over up to 20 classes.

    Boxes are picked from a drawn pool, so duplicates are common.  The
    threshold is a fixed or free value, or the exact IoU of two drawn boxes.
    """
    n_classes = draw(st.integers(1, 20))
    pool = draw(st.lists(BOXES, min_size=1, max_size=300))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(0, n_classes - 1), SCORES),
            max_size=300,
        )
    )
    dets = [Detection(pool[b], class_id, score) for b, class_id, score in picks]
    threshold = draw(
        st.one_of(st.sampled_from([-0.1, 0.0, 1 / 3, 0.45, 0.5, 1.0]), st.floats(-0.5, 1.5))
    )
    if dets and draw(st.booleans()):
        a, b = draw(st.tuples(*[st.integers(0, len(dets) - 1)] * 2))
        threshold = iou(dets[a].bbox, dets[b].bbox)
    return dets, threshold


def dense_frame_candidates():
    """The candidates of `TestNmsAgainstScalarScan.test_dense_frame`: raw
    random weights on the reference config, one noise frame."""
    spec = load_bundled_config("reference")
    store = WeightStore.random(spec, seed=0)
    image = np.random.default_rng(0).integers(0, 256, size=(416, 416, 3), dtype=np.uint8)
    x, _ = letterbox_image(image, spec.input_shape[1:])
    return Boxes.concat([
        decode_predictions(grid, spec.anchors[tag])
        for tag, grid in zip(SCALE_TAGS, execute(spec, store, x))
    ])


class TestNmsAgainstScalarScan:
    """`nms` returns the very objects `nms_scalar` keeps, in the same order.

    Values are finite only: `detect` refuses a non-finite prediction grid
    before decode (NonFiniteOutputError, exit 3), so no NaN or inf box or
    score reaches `nms` on the detect path.
    """

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(nms_scenes())
    def test_same_objects_as_scalar_scan(self, scene):
        dets, threshold = scene
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = nms_objects(dets, threshold)
        assert_same_objects(got, nms_scalar(dets, threshold))

    def test_degenerate_and_negative_threshold(self):
        """Non-positive-area boxes have IoU 0 with everything, themselves
        included; below 0 that IoU suppresses."""
        flat = Detection(BBox(0.5, 0.5, 0.0, 0.4), class_id=0, score=0.9)
        inverted = Detection(BBox(0.5, 0.5, -0.4, 0.4), class_id=0, score=0.85)
        box = Detection(BBox(0.5, 0.5, 0.4, 0.4), class_id=0, score=0.8)
        far = Detection(BBox(0.9, 0.9, 0.1, 0.1), class_id=1, score=0.7)
        scene = [box, far, inverted, flat]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert_same_objects(nms_objects(scene, 0.45), [flat, inverted, box, far])
            assert_same_objects(nms_objects(scene, -0.1), [flat, far])
            assert_same_objects(nms_objects([inverted, box], -0.1), [inverted])

    def test_dense_frame(self):
        """Raw random weights on the reference config saturate every logit:
        thousands of candidates on one noise frame, in a few big classes."""
        spec = load_bundled_config("reference")
        store = WeightStore.random(spec, seed=0)
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(416, 416, 3), dtype=np.uint8)
        x, _ = letterbox_image(image, spec.input_shape[1:])
        candidates = Boxes.concat([
            decode_predictions(grid, spec.anchors[tag])
            for tag, grid in zip(SCALE_TAGS, execute(spec, store, x))
        ])
        assert len(candidates) >= 1000
        assert max(np.bincount(candidates.class_id)) > 10 * NMS_TILE
        dets = as_detections(candidates)
        assert_same_objects([dets[k] for k in nms(candidates, 0.45)], nms_scalar(dets, 0.45))

    def test_dense_frame_iou_blocks(self, monkeypatch):
        """Every `_iou` call on the dense frame returns at most NMS_BLOCK
        values, so the working set stays in cache.  A smaller block splits
        a tile's pairs, and single rows, across calls and keeps the same rows."""
        candidates = dense_frame_candidates()
        want = nms(candidates, 0.45)
        shapes = []
        real_iou = detection._iou

        def recorded(a, b):
            overlaps = real_iou(a, b)
            shapes.append(overlaps.shape)
            return overlaps

        monkeypatch.setattr(detection, "_iou", recorded)
        assert np.array_equal(nms(candidates, 0.45), want)
        assert max(math.prod(shape) for shape in shapes) <= NMS_BLOCK
        monkeypatch.setattr(detection, "NMS_BLOCK", 1000)
        shapes.clear()
        assert np.array_equal(nms(candidates, 0.45), want)
        pair_blocks = [shape[0] for shape in shapes if len(shape) == 1]
        assert max(pair_blocks) == 1000 and len(pair_blocks) > 50


class TestNmsAcrossTiles:
    """Classes with more boxes than an NMS tile, with score ties across tile
    edges, so that a tile's kept boxes suppress boxes of later tiles."""

    def crowded_scene(self, rng, n, n_scores):
        """n boxes mostly of class 0 in a small region, so that many pairs
        overlap; n_scores distinct scores make ties common."""
        scores = rng.choice(np.linspace(0.3, 0.9, n_scores), size=n)
        return [
            Detection(
                bbox=BBox(*rng.uniform(0.4, 0.6, 2), *rng.uniform(0.05, 0.3, 2)),
                class_id=int(rng.random() < 0.1),
                score=float(scores[k]),
            )
            for k in range(n)
        ]

    def test_matches_scalar_scan(self):
        rng = np.random.default_rng(97)
        cross_tile = 0
        for trial in range(12):
            n = int(rng.integers(NMS_TILE + 1, 4 * NMS_TILE))
            dets = self.crowded_scene(rng, n, n_scores=int(rng.choice([3, 17, n])))
            threshold = float(rng.choice([0.0, 0.3, 0.45, 0.7]))
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = nms_objects(dets, threshold)
            assert_same_objects(got, nms_scalar(dets, threshold))
            # Boxes of the first tile (score order) that are kept, against
            # later boxes of their class that are dropped.
            ordered = sorted(dets, key=lambda d: -d.score)
            first = [d for d in ordered if d.class_id == 0][:NMS_TILE]
            kept = {id(d) for d in got}
            later = [d for d in ordered if d.class_id == 0][NMS_TILE:]
            cross_tile += sum(
                id(d) not in kept
                and any(id(k) in kept and iou(k.bbox, d.bbox) > threshold for k in first)
                for d in later
            )
        assert cross_tile > 0

    def test_tie_at_the_tile_edge(self):
        """Two equal boxes with equal scores at sorted positions
        NMS_TILE - 1 and NMS_TILE: the one first in input order is kept and
        suppresses the other from across the tile edge."""
        leaders = [
            Detection(BBox(0.01 * (k % 50), 0.02 * (k // 50), 0.001, 0.001), 0, 0.9)
            for k in range(NMS_TILE - 1)
        ]
        box = BBox(0.5, 0.5, 0.2, 0.2)
        first, second = Detection(box, 0, 0.5), Detection(box, 0, 0.5)
        tail = [Detection(BBox(0.9, 0.9, 0.05, 0.05), 0, 0.1)]
        dets = tail + [first] + leaders + [second]
        got = nms_objects(dets, 0.45)
        assert_same_objects(got, leaders + [first] + tail)
        assert_same_objects(got, nms_scalar(dets, 0.45))

    def test_kept_rows_of_the_input(self):
        """`nms` returns row numbers of its input, by descending score."""
        rng = np.random.default_rng(98)
        dets = self.crowded_scene(rng, 3 * NMS_TILE, n_scores=5)
        boxes = as_boxes(dets)
        keep = nms(boxes, 0.45)
        assert keep.dtype.kind == "i"
        assert (np.diff(boxes.score[keep]) <= 0).all()
        assert len(boxes[keep]) == len(keep)
        assert len(nms(boxes[:0], 0.45)) == 0

    def rounded_pairs(self, rng, n_pairs, smaller_first):
        """n_pairs same-centre squares of sides w and 1.5 * w, w about
        1e-15, all of class 0.  Each pair's true IoU is 1 / 2.25 = 0.444,
        but sides this near their centres' ulp round, and the computed IoU
        exceeds 0.45 for about half of the pairs.  One box of each pair
        scores above every box of the other kind, so a pair spans tiles."""
        dets = []
        for k in range(n_pairs):
            cx, cy = rng.uniform(0.5, 0.99, 2)
            w = rng.uniform(0.8e-15, 1.2e-15)
            small, big = BBox(cx, cy, w, w), BBox(cx, cy, 1.5 * w, 1.5 * w)
            first, second = (small, big) if smaller_first else (big, small)
            dets += [Detection(first, 0, 0.9 - k * 1e-4), Detection(second, 0, 0.5 - k * 1e-4)]
        return dets

    @pytest.mark.parametrize("smaller_first", [True, False])
    def test_rounded_edges_across_tiles(self, smaller_first):
        """Computed IoUs above the threshold between areas 2.25 apart: a
        range on true areas alone, [t * a, a / t], would leave these pairs
        out and keep boxes that the scalar scan drops."""
        rng = np.random.default_rng(99)
        dets = self.rounded_pairs(rng, NMS_TILE, smaller_first)
        assert sum(iou(a.bbox, b.bbox) > 0.45 for a, b in zip(dets[::2], dets[1::2])) > NMS_TILE // 4
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = nms_objects(dets, 0.45)
        assert_same_objects(got, nms_scalar(dets, 0.45))

    @pytest.mark.parametrize("threshold", [-0.1, 0.0, 0.45, 1.0, 1.5, math.nan])
    def test_every_threshold_on_a_class_larger_than_a_tile(self, threshold):
        """Thresholds with no area range (at most 0, NaN) and with one give
        the scalar scan's rows, and no float error."""
        rng = np.random.default_rng(100)
        dets = self.crowded_scene(rng, 3 * NMS_TILE, n_scores=7) + self.rounded_pairs(rng, NMS_TILE, True)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = nms_objects(dets, threshold)
        assert_same_objects(got, nms_scalar(dets, threshold))


def map_scene(rng):
    """(detections, truths) by image id, as lists of records.

    Centers and sides come from a coarse grid half of the time, so shared
    edges and equal IoUs are common; sides may be zero or negative.  Scores
    come from four values half of the time, so ties within and across
    images are common.  An image may have truths and no detections, or
    detections and no truths (absent, or an empty list), and some
    detections copy a truth box exactly.  Image ids are not in sorted
    order, so the ranking's image-id tie order is exercised.
    """
    n_classes = int(rng.integers(1, 4))

    def box():
        if rng.random() < 0.5:
            return BBox(*rng.choice(np.arange(11) / 10, 2), *rng.choice([-0.2, 0.0, 0.1, 0.2, 0.3], 2))
        return BBox(*rng.uniform(0.0, 1.0, 2), *rng.uniform(-0.1, 0.5, 2))

    def score():
        return float(rng.choice([0.25, 0.5, 0.75, 1.0]) if rng.random() < 0.5 else rng.random())

    truths, dets = {}, {}
    for k in rng.permutation(int(rng.integers(0, 5))):  # ids out of sorted order
        image_id = f"im{k}"
        if rng.random() < 0.8:
            truths[image_id] = [
                GroundTruth(box(), int(rng.integers(0, n_classes))) for _ in range(rng.integers(0, 4))
            ]
        if rng.random() < 0.8:
            pool = [t.bbox for t in truths.get(image_id, [])]
            dets[image_id] = [
                Detection(
                    pool[rng.integers(len(pool))] if pool and rng.random() < 0.5 else box(),
                    int(rng.integers(0, n_classes)),
                    score(),
                )
                for _ in range(rng.integers(0, 6))
            ]
    return dets, truths


class TestEvaluateMap:
    def test_false_positive_outscores_the_hit(self):
        """1 truth; a disjoint detection at 0.95 then the true hit at 0.90.

        Ranked PR points: (recall 0, precision 0) then (1.0, 0.5).  Every
        recall grid point finds max precision 0.5, so AP = 0.5.
        """
        truth = {"img": [GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0)]}
        dets = {
            "img": [
                Detection(BBox(0.1, 0.1, 0.05, 0.05), 0, 0.95),
                Detection(BBox(0.5, 0.5, 0.2, 0.2), 0, 0.90),
            ]
        }
        result = checked_map(dets, truth)
        assert result.mean_ap == pytest.approx(0.5)
        assert result.ap_by_class == {0: pytest.approx(0.5)}

    def test_second_truth_caps_recall(self):
        """Same detections with 2 truths: PR points (0, 0), (0.5, 0.5).

        Grid points 0.0-0.5 (six of them) see precision 0.5, the rest 0.
        AP = 6 * 0.5 / 11 = 3/11.
        """
        truth = {
            "img": [
                GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0),
                GroundTruth(BBox(0.8, 0.2, 0.1, 0.1), 0),
            ]
        }
        dets = {
            "img": [
                Detection(BBox(0.1, 0.1, 0.05, 0.05), 0, 0.95),
                Detection(BBox(0.5, 0.5, 0.2, 0.2), 0, 0.90),
            ]
        }
        assert checked_map(dets, truth).mean_ap == pytest.approx(3 / 11)

    def test_perfect_detections(self):
        rng = np.random.default_rng(86)
        truths, dets = {}, {}
        for i in range(5):
            image_id = f"img{i}"
            truths[image_id] = [
                GroundTruth(BBox(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.1, 0.3, 2)), int(c))
                for c in rng.integers(0, 3, size=3)
            ]
            dets[image_id] = [
                Detection(t.bbox, t.class_id, float(rng.uniform(0.5, 1.0)))
                for t in truths[image_id]
            ]
        result = checked_map(dets, truths)
        assert result.mean_ap == pytest.approx(1.0)

    def test_no_detections_scores_zero(self):
        truth = {"img": [GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0)]}
        assert checked_map({}, truth).mean_ap == 0.0

    def test_empty_truths_give_zero(self):
        assert checked_map({}, {}).mean_ap == 0.0

    def test_classes_without_truth_ignored(self):
        truth = {"img": [GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0)]}
        dets = {"img": [Detection(BBox(0.5, 0.5, 0.2, 0.2), 7, 0.9)]}
        result = checked_map(dets, truth)
        assert set(result.ap_by_class) == {0}
        assert result.mean_ap == 0.0

    def test_duplicate_hits_count_once(self):
        """Two detections on one truth: the lower-ranked one is a FP."""
        truth = {"img": [GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0)]}
        dets = {
            "img": [
                Detection(BBox(0.5, 0.5, 0.2, 0.2), 0, 0.9),
                Detection(BBox(0.5, 0.5, 0.21, 0.21), 0, 0.8),
            ]
        }
        # First detection: TP at precision 1. AP stays 1.0 at every grid
        # point (max precision at recall >= t is taken over later points
        # too, and precision 1.0 occurs at recall 1.0).
        assert checked_map(dets, truth).mean_ap == pytest.approx(1.0)

    def test_match_threshold_splits_loose_hit(self):
        """An IoU-1/3 detection matches at threshold 0.3, misses at 0.5."""
        truth = {"img": [GroundTruth(BBox(0.5, 0.5, 0.2, 0.2), 0)]}
        dets = {"img": [Detection(BBox(0.6, 0.5, 0.2, 0.2), 0, 0.9)]}
        assert checked_map(dets, truth, iou_threshold=0.3).mean_ap == pytest.approx(1.0)
        assert checked_map(dets, truth, iou_threshold=0.5).mean_ap == 0.0

    def test_monotone_rescore_invariance(self):
        """Any strictly increasing score map leaves the mAP unchanged."""
        rng = np.random.default_rng(87)
        for _ in range(20):
            truths, dets = {}, {}
            for i in range(4):
                image_id = f"im{i}"
                truths[image_id] = [
                    GroundTruth(BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2)), int(c))
                    for c in rng.integers(0, 3, size=int(rng.integers(1, 4)))
                ]
                scores = rng.permutation(np.linspace(0.1, 0.9, 5))
                dets[image_id] = [
                    Detection(
                        BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2)),
                        int(rng.integers(0, 3)),
                        float(scores[j]),
                    )
                    for j in range(5)
                ]
            base = checked_map(dets, truths).mean_ap
            squeezed = {
                k: [Detection(d.bbox, d.class_id, 0.05 + 0.4 * d.score) for d in v]
                for k, v in dets.items()
            }
            assert checked_map(squeezed, truths).mean_ap == pytest.approx(base, abs=1e-12)


    def test_matches_scalar_oracle_on_seeded_scenes(self):
        """The columnar `evaluate_map` equals the per-detection scan, `==`
        on every AP, over 1,200 scenes and thresholds that include 0 and 1."""
        rng = np.random.default_rng(99)
        seen = dict.fromkeys(("tie across images", "tie within an image", "degenerate box",
                              "images without truths", "truths without detections", "hit"), 0)
        for _ in range(1200):
            dets, truths = map_scene(rng)
            threshold = float(rng.choice([0.0, 1 / 3, 0.5, 1.0, rng.random()]))
            result = checked_map(dets, truths, iou_threshold=threshold)
            scores = [[d.score for d in v] for v in dets.values()]
            flat = sum(scores, [])
            seen["tie across images"] += len(set(flat)) < len(flat) and len(flat) > max(map(len, scores))
            seen["tie within an image"] += any(len(set(v)) < len(v) for v in scores)
            seen["degenerate box"] += any(d.bbox.w <= 0 for v in dets.values() for d in v)
            seen["images without truths"] += any(not truths.get(k) for k in dets)
            seen["truths without detections"] += any(v and not dets.get(k) for k, v in truths.items())
            seen["hit"] += result.mean_ap > 0
        assert min(seen.values()) >= 50, seen

    def test_refuses_non_finite_values(self):
        """A NaN score would make the result depend on input order (this
        scene gave 0.5 one way round and 1.0 the other); any non-finite
        score or box field is refused, naming its image."""
        box, far = BBox(0.5, 0.5, 0.2, 0.2), BBox(0.1, 0.1, 0.05, 0.05)
        truths = as_columns({"img": [GroundTruth(box, 0)]})
        scene = [Detection(far, 0, 0.5), Detection(box, 0, math.nan), Detection(box, 0, 0.4)]
        for dets in (scene, scene[::-1]):
            with pytest.raises(DetectionFormatError, match="image img: a score or box field is not finite"):
                evaluate_map(as_columns({"img": dets}), truths)
        for field in ("cx", "cy", "w", "h"):
            for value in (math.nan, math.inf, -math.inf):
                bad = as_columns({"bad": [Detection(box, 0, 0.9)]})
                getattr(bad["bad"], field)[0] = value
                with pytest.raises(DetectionFormatError, match="image bad"):
                    evaluate_map(bad, truths)
                with pytest.raises(DetectionFormatError, match="image bad"):
                    evaluate_map(as_columns({"img": [Detection(box, 0, 0.9)]}), bad)


class TestLetterbox:
    def test_wide_image_geometry(self):
        """100x50 image into 64x64: scale 0.64, 32 rows of content, 16-pad."""
        image = np.zeros((50, 100, 3), dtype=np.uint8)
        tensor, t = letterbox_image(image, (64, 64))
        assert tensor.shape == (1, 3, 64, 64)
        assert t.scale == pytest.approx(0.64)
        assert (t.pad_x, t.pad_y) == (0, 16)
        # Pad rows carry the gray fill, content rows the (black) image.
        assert np.all(tensor[0, :, :16, :] == 0.5)
        assert np.all(tensor[0, :, 48:, :] == 0.5)
        assert np.all(tensor[0, :, 16:48, :] == 0.0)

    def test_round_trip_box_mapping(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            h, w = int(rng.integers(10, 200)), int(rng.integers(10, 200))
            _, t = letterbox_image(np.zeros((h, w, 3), dtype=np.uint8), (96, 96))
            box = BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2))
            back = t.box_to_original(box_to_letterboxed(t, box))
            for field in ("cx", "cy", "w", "h"):
                assert getattr(back, field) == pytest.approx(getattr(box, field), abs=1e-9)

    def test_uint8_scaled_to_unit_range(self):
        image = np.full((10, 10, 3), 255, dtype=np.uint8)
        tensor, _ = letterbox_image(image, (10, 10))
        assert tensor.max() == pytest.approx(1.0)
        assert tensor.dtype == np.float32

    def test_nearest_neighbour_mapping(self):
        """Resized pixel (y, x) equals source pixel ((y*h)//new_h, ...)."""
        rng = np.random.default_rng(92)
        image = rng.integers(0, 256, size=(30, 20, 3), dtype=np.uint8)
        tensor, t = letterbox_image(image, (60, 60))
        # Height dominates: scale 2.0, new size 60x40, pad_x 10.
        assert t.scale == pytest.approx(2.0)
        for y, x in [(0, 0), (59, 39), (17, 23)]:
            src = image[(y * 30) // 60, (x * 20) // 40].astype(np.float32) / 255.0
            np.testing.assert_allclose(tensor[0, :, y, x + t.pad_x], src, rtol=1e-6)

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(93)
        image = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
        a, _ = letterbox_image(image, (64, 64))
        b, _ = letterbox_image(image, (64, 64))
        assert a.tobytes() == b.tobytes()

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            letterbox_image(np.zeros((10, 10), dtype=np.uint8), (32, 32))

    @pytest.mark.parametrize(
        "h, w, target",
        [(37, 53, (64, 64)), (1, 1, (32, 32)), (1, 500, (416, 416)), (500, 1, (416, 416)),
         (3, 700, (32, 96)), (480, 640, (416, 416)), (416, 416, (416, 416))],
    )
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_same_bytes_as_convert_then_gather(self, h, w, target, dtype):
        """Gathering the sampled pixels before converting them gives the
        bytes of converting the whole image first."""
        rng = np.random.default_rng(h * 1000 + w)
        if dtype == np.uint8:
            image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            pixels = image.astype(np.float32) / 255.0
        else:
            image = rng.random((h, w, 3)).astype(dtype)
            pixels = image.astype(np.float32)
        tensor, t = letterbox_image(image, target)
        new_h, new_w = round(h * t.scale) or 1, round(w * t.scale) or 1
        src_rows = np.minimum((np.arange(new_h) * h) // new_h, h - 1)
        src_cols = np.minimum((np.arange(new_w) * w) // new_w, w - 1)
        canvas = np.full((*target, 3), 0.5, dtype=np.float32)
        canvas[t.pad_y:t.pad_y + new_h, t.pad_x:t.pad_x + new_w] = pixels[src_rows][:, src_cols]
        want = np.ascontiguousarray(canvas.transpose(2, 0, 1)[None])
        assert tensor.dtype == np.float32 and tensor.tobytes() == want.tobytes()


class TestKmeansAnchors:
    def test_recovers_tight_clusters(self):
        rng = np.random.default_rng(94)
        means = np.array([[0.1, 0.15], [0.4, 0.3], [0.8, 0.7]])
        boxes = np.concatenate(
            [m + rng.normal(0, 0.004, size=(60, 2)) for m in means]
        ).clip(0.01, 0.99)
        anchors = kmeans_anchors(boxes, 3, seed=5)
        assert all(type(a) is tuple and len(a) == 2 for a in anchors)
        got = np.array(anchors)
        areas = got[:, 0] * got[:, 1]
        assert np.all(np.diff(areas) > 0)  # sorted by area
        for m in means:
            assert np.min(np.abs(got - m).sum(axis=1)) < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(95)
        boxes = rng.uniform(0.05, 0.9, size=(100, 2))
        a = kmeans_anchors(boxes, 4, seed=1)
        b = kmeans_anchors(boxes, 4, seed=1)
        assert a == b

    def test_needs_enough_boxes(self):
        with pytest.raises(ConfigError):
            kmeans_anchors(np.ones((2, 2)) * 0.5, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ConfigError, match=f"k must be >= 1, got {k}"):
            kmeans_anchors(np.ones((4, 2)) * 0.5, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.3])
    def test_refuses_sizes_an_anchors_line_refuses(self, bad):
        """Such a size would come back as an anchor that no config takes."""
        with pytest.raises(ConfigError, match="positive and finite"):
            kmeans_anchors([[0.1, 0.2], [bad, 0.3], [0.4, 0.5], [0.2, 0.2]], 2)


class TestInterchangeFormat:
    def test_detection_round_trip(self):
        rng = np.random.default_rng(96)
        originals = {}
        lines = []
        for i in range(50):
            image_id = f"frame{i % 7}"
            det = Detection(
                bbox=BBox(*(round(v, 6) for v in rng.uniform(0.01, 0.99, 4))),
                class_id=int(rng.integers(0, 20)),
                score=round(float(rng.uniform(0, 1)), 6),
            )
            originals.setdefault(image_id, []).append(det)
            lines.append(
                format_detection_line(image_id, det.class_id, det.score, *astuple(det.bbox))
            )
        parsed = parse_detections("\n".join(lines))
        assert list(parsed) == list(originals)
        for image_id, boxes in parsed.items():
            assert boxes.class_id.dtype == np.int64 and boxes.score.dtype == np.float64
            assert as_detections(boxes) == originals[image_id]

    def test_ground_truth_round_trip(self):
        """A truth line parses to one row of Boxes columns, score 1.0, and
        its fields format back to the line."""
        line = "img1 3 0.500000 0.250000 0.125000 0.062500"
        (truths,) = parse_ground_truths(line).values()
        assert as_detections(truths) == [Detection(BBox(0.5, 0.25, 0.125, 0.0625), 3, 1.0)]
        cx, cy, w, h = (getattr(truths, f)[0] for f in ("cx", "cy", "w", "h"))
        assert f"img1 {truths.class_id[0]} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}" == line

    def test_line_layout(self):
        line = format_detection_line("x", 4, 0.875, 0.5, 0.25, 0.1, 0.2)
        assert line == "x 4 0.875000 0.500000 0.250000 0.100000 0.200000"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nimg 0 0.5 0.5 0.5 0.1 0.1\n"
        assert len(parse_detections(text)["img"]) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "img 0 0.5 0.5 0.1 0.1",           # missing score field
            "img 0 0.5 0.5 0.5 0.1 0.1 0.9",   # extra field
            "img x 0.5 0.5 0.5 0.1 0.1",       # class not an int
            "img -1 0.5 0.5 0.5 0.1 0.1",      # negative class
            "img 0 a 0.5 0.5 0.1 0.1",
            "img 1_0 0.5 0.5 0.5 0.1 0.1",     # class ids are ASCII decimal [0-9]+
            "img +3 0.5 0.5 0.5 0.1 0.1",
            "img \u0663 0.5 0.5 0.5 0.1 0.1",
            "img 2147483648 0.5 0.5 0.5 0.1 0.1",  # above MAX_INT
            "img 0 1_0 0.5 0.5 0.1 0.1",       # float fields: no digit-group underscores
            "img 0 0.5 0.5 0.5 0.1 0_1",
            "img 0 0.5 \u0663 0.5 0.1 0.1",     # float fields are ASCII
            "img 0 \u0660.5 0.5 0.5 0.1 0.1",
        ],
    )
    def test_rejects_malformed_detection_lines(self, line):
        with pytest.raises(DetectionFormatError):
            parse_detections(line)

    @pytest.mark.parametrize("line", ["img 0 1_0 0.5 0.1 0.1", "img 0 0.5 0.5 0.1 \u0663"])
    def test_rejects_non_ascii_and_underscored_ground_truth_floats(self, line):
        with pytest.raises(DetectionFormatError, match="line 1: non-numeric"):
            parse_ground_truths(line)

    def test_nan_and_inf_still_parse(self):
        """The reader takes nan and inf (evaluate_map refuses them), so a
        checker downstream can see and count a non-finite score."""
        boxes = parse_detections("img 0 nan 0.5 0.5 0.1 0.1\nimg 0 0.5 inf 0.5 0.1 -inf\n")["img"]
        assert np.isnan(boxes.score[0]) and np.isinf(boxes.cx[1]) and boxes.h[1] == -np.inf

    def test_error_names_line(self):
        with pytest.raises(DetectionFormatError, match="line 2"):
            parse_ground_truths("img 0 0.5 0.5 0.1 0.1\nimg 0 bad 0.5 0.1 0.1\n")


class TestDetectPipeline:
    def test_zero_weights_emit_cell_centers(self):
        """Zero network: every head logit is 0, score 0.25 everywhere; NMS
        keeps one box per class-free cluster of overlapping cells."""
        spec = load_bundled_config("explore-proto")
        store = WeightStore.zeros(spec)
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        dets = detect(x, spec, store, conf_threshold=0.25, nms_iou=0.45)
        assert len(dets) > 0
        assert dets.score.tolist() == pytest.approx([0.25] * len(dets))
        assert (dets.class_id == 0).all()

    def test_rerun_identical(self):
        spec = load_bundled_config("explore-proto")
        store = WeightStore.random(spec, seed=17)
        rng = np.random.default_rng(18)
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        first, second = detect(x, spec, store, 0.01, 0.45), detect(x, spec, store, 0.01, 0.45)
        for f in fields(Boxes):
            assert getattr(first, f.name).tobytes() == getattr(second, f.name).tobytes()

    def test_scores_sorted(self):
        spec = load_bundled_config("explore-proto")
        store = WeightStore.random(spec, seed=19)
        rng = np.random.default_rng(20)
        x = rng.random((1, 3, 64, 64), dtype=np.float32)
        scores = detect(x, spec, store, 0.01, 0.45).score.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_refuses_overflowing_network(self):
        """Finite weights that overflow float32 on the way through the network
        end in an error, not in NaN scores handed to decode and NMS."""
        spec = load_bundled_config("explore-proto")
        store = WeightStore.random(spec, seed=17)
        store.params[0].kernel *= np.float32(1e36)
        assert np.isfinite(store.params[0].kernel).all()
        x = np.random.default_rng(18).random((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(NonFiniteOutputError, match=r"^node 6 \(fca\): float32 overflow$"):
            detect(x, spec, store)

    @pytest.mark.parametrize("tag", SCALE_TAGS)
    def test_refuses_a_tag_without_anchors(self, tag):
        spec = load_bundled_config("explore-proto")
        spec.anchors = {t: pairs for t, pairs in spec.anchors.items() if t != tag}
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(ConfigError, match=f"^spec has no anchors for scale '{tag}'$"):
            detect(x, spec, WeightStore.zeros(spec))

    @pytest.mark.parametrize("tag", SCALE_TAGS)
    def test_error_names_the_non_finite_grid(self, tag):
        spec = load_bundled_config("explore-proto")
        store = WeightStore.zeros(spec)
        head = {n.op.scale_tag: n.input_id for n in spec.detect_nodes()}[tag]
        store.params[head].bias[0] = np.nan
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(NonFiniteOutputError, match=f"the {tag} prediction grid"):
            detect(x, spec, store)
