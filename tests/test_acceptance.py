"""Acceptance suite: one test per shipped acceptance criterion.

Each test asserts its criterion at the stated tolerance and runtime
budget, then prints a single "[criterion NN] PASS ..." line (run with
`pytest tests/test_acceptance.py -v -s` to see the lines; a pytest FAILED
line for a test here is the corresponding criterion failing).

Oracles in this file are written independently of the per-module test
suites: naive direct convolution in float64, a scalar decoder, a
quadratic greedy NMS, and hand-enumerated PR curves.  The per-box records
and the scalar mAP come from `box_oracles`, the one copy that
test_detection.py uses too.  Criterion 9's `fake_quantize` and criterion
10's `brute_force_search` come from `references`, as test_complexity.py
and test_explorer.py take them.
"""

import copy
import math
from importlib import resources
from time import perf_counter

import numpy as np
import pytest

from box_oracles import BBox, Detection, GroundTruth, as_boxes, as_detections, checked_map
from compactdet import cli
from compactdet.arch_graph import (
    WeightStore,
    execute,
    init_params,
    load_bundled_config,
    parse_network_spec,
)
from compactdet.complexity import (
    ConstraintSet,
    count_network,
    model_size_bytes,
    quantize_tensor,
    save_weights,
)
from compactdet.detection import decode_predictions, nms
from compactdet.explorer import explore, parse_design_space, synthetic_evaluator
from compactdet.nn_modules import (
    EpConfig,
    FcaConfig,
    PepConfig,
    ep_forward,
    fca_forward,
    fca_bottleneck_width,
    param_tensors,
    pep_forward,
)
from compactdet.tensor_core import (
    ConvWeights,
    channel_scale,
    conv2d,
    dense,
    depthwise_conv2d,
    global_avg_pool,
    leaky_relu,
    sigmoid,
)
from references import brute_force_search, fake_quantize

# Calibration targets for the shipped reference design and the third-party
# tiny-yolov3 counting anchor, under the ops = 2 * MACs convention.
REFERENCE_OPS_TARGET = 4.57e9
TINY_YOLOV3_OPS_TARGET = 5.52e9
REFERENCE_SIZE8_TARGET = 4.0e6


def report(num: int, msg: str):
    print(f"\n[criterion {num:02d}] PASS {msg}")


def bundled(name: str) -> str:
    return str(resources.files("compactdet.configs") / name)


# ---------------------------------------------------------------- 1-3: totals


def test_criterion_01_reference_ops_total():
    """Reference design total ops within 5% of 4.57e9, counted in < 1 s."""
    t0 = perf_counter()
    rep = count_network(load_bundled_config("reference"))
    elapsed = perf_counter() - t0
    rel = (rep.total_ops - REFERENCE_OPS_TARGET) / REFERENCE_OPS_TARGET
    assert abs(rel) <= 0.05
    assert elapsed < 1.0
    report(1, f"reference total ops {rep.total_ops} vs 4.57e9 target ({rel:+.2%}), "
              f"{elapsed * 1e3:.1f} ms")


def test_criterion_02_tiny_yolov3_ops_total():
    """Counting-convention anchor: tiny-yolov3 within 5% of 5.52e9."""
    t0 = perf_counter()
    rep = count_network(load_bundled_config("tiny-yolov3"))
    elapsed = perf_counter() - t0
    rel = (rep.total_ops - TINY_YOLOV3_OPS_TARGET) / TINY_YOLOV3_OPS_TARGET
    assert abs(rel) <= 0.05
    assert elapsed < 1.0
    report(2, f"tiny-yolov3 total ops {rep.total_ops} vs 5.52e9 target ({rel:+.2%}), "
              f"{elapsed * 1e3:.1f} ms")


def test_criterion_03_reference_8bit_size():
    """8-bit model size of the reference design within 10% of 4.0 MB."""
    t0 = perf_counter()
    size = model_size_bytes(load_bundled_config("reference"), bits_per_weight=8)
    elapsed = perf_counter() - t0
    rel = (size - REFERENCE_SIZE8_TARGET) / REFERENCE_SIZE8_TARGET
    assert abs(rel) <= 0.10
    assert elapsed < 1.0
    report(3, f"reference 8-bit size {size} bytes vs 4.0 MB target ({rel:+.2%}), "
              f"{elapsed * 1e3:.1f} ms")


# ------------------------------------------------------ 4: documented latency


def test_criterion_04_local_latency_documented():
    """Trained-model accuracy and embedded-device frame rates need trained
    weights and target hardware, neither of which exists here.  The
    substitute is the property suite in this module plus a measured local
    forward latency for the reference design, reported below and in the
    README."""
    spec = load_bundled_config("reference")
    store = WeightStore.random(spec, seed=0)
    x = np.random.default_rng(0).random((1, 3, 416, 416), dtype=np.float32)
    execute(spec, store, x)  # warm-up
    times = []
    for _ in range(3):
        t0 = perf_counter()
        execute(spec, store, x)
        times.append(perf_counter() - t0)
    median_ms = sorted(times)[1] * 1e3
    assert median_ms > 0.0
    report(4, f"reference 416x416 forward median {median_ms:.0f} ms over 3 runs "
              f"on this machine (documented stand-in for device figures)")


# --------------------------------------------------------- 5: kernel oracles


def conv2d_direct(x, kernel, bias, stride, padding, groups):
    """Naive direct convolution, float64, loops all the way down."""
    n, c_in, h, w = x.shape
    c_out, cpg, kh, kw = kernel.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    opg = c_out // groups
    for b in range(n):
        for oc in range(c_out):
            g = oc // opg
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = float(bias[oc])
                    for ic in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[b, g * cpg + ic, oy * stride + ky, ox * stride + kx]
                                    * kernel[oc, ic, ky, kx]
                                )
                    out[b, oc, oy, ox] = acc
    return out


def test_criterion_05_kernel_oracles():
    """conv2d and depthwise_conv2d agree with the direct oracle on 200
    random instances at relative error <= 1e-5."""
    rng = np.random.default_rng(2024)
    t0 = perf_counter()
    worst = 0.0
    for trial in range(200):
        depthwise = trial >= 120
        k = int(rng.choice([1, 3])) if not depthwise else 3
        stride = int(rng.integers(1, 3))
        padding = k // 2
        h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        if depthwise:
            c_in = c_out = groups = int(rng.integers(1, 9))
            kernel = rng.standard_normal((c_out, 1, k, k)).astype(np.float32)
        else:
            groups = 1
            c_in, c_out = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            kernel = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32)
        x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
        kernel_fn = depthwise_conv2d if depthwise else conv2d
        got = kernel_fn(x, ConvWeights(kernel, bias, groups=groups), stride=stride)
        want = conv2d_direct(x.astype(np.float64), kernel.astype(np.float64),
                             bias.astype(np.float64), stride, padding, groups)
        err = float(np.max(np.abs(got.astype(np.float64) - want)))
        scale = max(float(np.max(np.abs(want))), 1e-12)
        worst = max(worst, err / scale)
    elapsed = perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 30.0
    report(5, f"conv2d/depthwise vs direct oracle, 200 instances, worst relative "
              f"error {worst:.2e}, {elapsed:.1f} s")


# ----------------------------------------------- 6: module composition


def test_criterion_06_module_composition():
    """PEP/EP/FCA forwards equal hand-composed kernel chains on 100 random
    instances each at 1e-6, and zero weights leave residual-eligible
    blocks as the exact identity."""
    rng = np.random.default_rng(77)
    t0 = perf_counter()
    worst = 0.0

    def gauge(got, want):
        nonlocal worst
        err = float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))))
        worst = max(worst, err)

    for _ in range(100):
        c_in = int(rng.integers(1, 9))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)

        cfg = PepConfig(proj1_channels=int(rng.integers(1, 5)),
                        expansion_channels=int(rng.integers(4, 10)),
                        out_channels=int(rng.integers(1, 9)),
                        stride=int(rng.integers(1, 3)))
        p = init_params(cfg, c_in, rng=np.random.default_rng(rng.integers(1 << 30)))
        y = leaky_relu(conv2d(x, p.project_in))
        y = leaky_relu(conv2d(y, p.expand))
        y = leaky_relu(depthwise_conv2d(y, p.depthwise, cfg.stride))
        y = conv2d(y, p.project_out)
        if cfg.stride == 1 and cfg.out_channels == c_in:
            y = y + x
        gauge(pep_forward(x, cfg, p), y)

        ecfg = EpConfig(expansion_channels=int(rng.integers(4, 10)),
                        out_channels=int(rng.integers(1, 9)),
                        stride=int(rng.integers(1, 3)))
        ep = init_params(ecfg, c_in, rng=np.random.default_rng(rng.integers(1 << 30)))
        y = leaky_relu(conv2d(x, ep.expand))
        y = leaky_relu(depthwise_conv2d(y, ep.depthwise, ecfg.stride))
        y = conv2d(y, ep.project)
        if ecfg.stride == 1 and ecfg.out_channels == c_in:
            y = y + x
        gauge(ep_forward(x, ecfg, ep), y)

        fcfg = FcaConfig(reduction_ratio=int(rng.integers(1, 5)))
        fp = init_params(fcfg, c_in, rng=np.random.default_rng(rng.integers(1 << 30)))
        mid = fca_bottleneck_width(c_in, fcfg.reduction_ratio)
        assert mid == max(1, c_in // fcfg.reduction_ratio)
        g = global_avg_pool(x)[0, :, 0, 0]
        g = leaky_relu(dense(g, fp.reduce_weight, fp.reduce_bias))
        g = sigmoid(dense(g, fp.restore_weight, fp.restore_bias))
        gauge(fca_forward(x, fcfg, fp), channel_scale(x, g[None, :]))

    assert worst <= 1e-6

    # Zero-weight residual identity, exact to the bit.
    for c, h, w, stride in [(3, 5, 5, 1), (8, 4, 6, 1), (1, 2, 2, 1)]:
        x = np.random.default_rng(c).standard_normal((1, c, h, w)).astype(np.float32)
        pcfg = PepConfig(2, 4, c, stride)
        ecfg = EpConfig(4, c, stride)
        assert np.array_equal(pep_forward(x, pcfg, init_params(pcfg, c)), x)
        assert np.array_equal(ep_forward(x, ecfg, init_params(ecfg, c)), x)

    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"PEP/EP/FCA vs hand-composed chains, 100 instances each, worst "
              f"error {worst:.2e}; zero-weight residual identity exact, {elapsed:.1f} s")


# --------------------------------------------------------- 7: detection suite


def sigmoid_scalar(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def decode_scalar(raw, anchors, conf):
    """Cell-by-cell scalar decoder."""
    n_anchors = len(anchors)
    per = raw.shape[1] // n_anchors
    n_classes = per - 5
    gh, gw = raw.shape[2], raw.shape[3]
    out = []
    for a in range(n_anchors):
        for i in range(gh):
            for j in range(gw):
                ch = lambda c: float(raw[0, a * per + c, i, j])
                class_scores = [sigmoid_scalar(ch(5 + c)) for c in range(n_classes)]
                best = max(range(n_classes), key=lambda c: class_scores[c])
                score = sigmoid_scalar(ch(4)) * class_scores[best]
                if score >= conf:
                    out.append(Detection(
                        bbox=BBox(cx=(j + sigmoid_scalar(ch(0))) / gw,
                                  cy=(i + sigmoid_scalar(ch(1))) / gh,
                                  w=anchors[a][0] * math.exp(ch(2)),
                                  h=anchors[a][1] * math.exp(ch(3))),
                        class_id=best, score=score))
    return out


def iou_scalar(a: BBox, b: BBox) -> float:
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def nms_exhaustive(dets, thr):
    ordered = sorted(dets, key=lambda d: -d.score)
    kept = []
    for d in ordered:
        if all(k.class_id != d.class_id or iou_scalar(k.bbox, d.bbox) <= thr for k in kept):
            kept.append(d)
    return kept


def test_criterion_07_detection_suite():
    """Decode matches the scalar decoder, NMS matches the exhaustive greedy
    oracle on 1000 instances, and evaluate_map reproduces hand-enumerated
    PR curves."""
    rng = np.random.default_rng(404)
    t0 = perf_counter()

    key = lambda d: (d.class_id, round(d.score, 9), round(d.bbox.cx, 9), round(d.bbox.cy, 9))
    for _ in range(50):
        n_anchors = int(rng.integers(1, 4))
        n_classes = int(rng.integers(1, 6))
        s = int(rng.integers(1, 6))
        anchors = [(float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8)))
                   for _ in range(n_anchors)]
        raw = rng.normal(0, 2, size=(1, n_anchors * (5 + n_classes), s, s))
        got = sorted(as_detections(decode_predictions(raw, anchors, conf_threshold=0.3)), key=key)
        want = sorted(decode_scalar(raw, anchors, 0.3), key=key)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.class_id == w.class_id
            assert abs(g.score - w.score) < 1e-9
            for attr in ("cx", "cy", "w", "h"):
                assert abs(getattr(g.bbox, attr) - getattr(w.bbox, attr)) < 1e-9

    for trial in range(1000):
        n = int(rng.integers(0, 11))
        dets = [Detection(bbox=BBox(*(float(v) for v in rng.uniform(0.1, 0.9, 4))),
                          class_id=int(rng.integers(0, 3)),
                          score=float(rng.random()))
                for _ in range(n)]
        thr = float(rng.uniform(0.2, 0.7))
        assert [dets[k] for k in nms(as_boxes(dets), thr)] == nms_exhaustive(dets, thr)

    # Hand-enumerated PR curves.  One truth, a false positive outscoring the
    # hit: ranked points are (P=0, R=0) then (P=0.5, R=1), so all eleven
    # interpolation thresholds see precision 0.5 and AP = 0.5.
    box = BBox(0.5, 0.5, 0.2, 0.2)
    far = BBox(0.1, 0.1, 0.05, 0.05)
    dets = {"img": [Detection(far, 0, 0.95), Detection(box, 0, 0.90)]}
    truths = {"img": [GroundTruth(box, 0)]}
    assert checked_map(dets, truths).mean_ap == pytest.approx(0.5, abs=1e-6)

    # With a second, unmatched truth the hit only reaches recall 0.5, so
    # six thresholds (0.0 .. 0.5) see precision 0.5: AP = 6 * 0.5 / 11.
    box2 = BBox(0.8, 0.8, 0.1, 0.1)
    truths2 = {"img": [GroundTruth(box, 0), GroundTruth(box2, 0)]}
    assert checked_map(dets, truths2).mean_ap == pytest.approx(6 * 0.5 / 11, abs=1e-6)

    # Perfect detections.
    perfect = {"img": [Detection(box, 0, 0.9), Detection(box2, 1, 0.8)]}
    ptruth = {"img": [GroundTruth(box, 0), GroundTruth(box2, 1)]}
    assert checked_map(perfect, ptruth).mean_ap == pytest.approx(1.0, abs=1e-12)

    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"decode vs scalar oracle (50 grids), NMS vs exhaustive oracle "
              f"(1000 scenes), AP hand curves 0.5 / {6 * 0.5 / 11:.6f} / 1.0, {elapsed:.1f} s")


# ------------------------------------------------------------ 8: shape contract


def test_criterion_08_reference_shape_contract():
    """416x416 input yields 13/26/52 grids with anchors*(5+classes) channels."""
    t0 = perf_counter()
    spec = load_bundled_config("reference")
    store = WeightStore.random(spec, seed=0)
    x = np.random.default_rng(1).random((1, 3, 416, 416), dtype=np.float32)
    grids = execute(spec, store, x)
    elapsed = perf_counter() - t0
    channels = spec.anchors_per_scale * (5 + spec.num_classes)
    assert channels == 75
    assert [g.shape for g in grids] == [
        (1, channels, 13, 13), (1, channels, 26, 26), (1, channels, 52, 52)]
    assert elapsed < 5.0
    report(8, f"reference grids 13/26/52 with {channels} channels, {elapsed:.1f} s")


# ------------------------------------------------------------- 9: quantization


def test_criterion_09_quantization():
    """Round-trip error <= scale/2 on 1000 random tensors (grid error,
    reconstructed in float64), and the execution deviation of fixed random
    networks falls monotonically over 4/8/12-bit weight grids."""
    rng = np.random.default_rng(909)
    t0 = perf_counter()
    for _ in range(1000):
        shape = tuple(int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 4))))
        scale_factor = 10.0 ** rng.uniform(-3, 3)
        offset = rng.uniform(-2, 2) * scale_factor
        w = (rng.standard_normal(shape) * scale_factor + offset).astype(np.float32)
        codes, scale, zero_point = quantize_tensor(w)
        recon = (codes.astype(np.float64) - zero_point) * scale
        err = float(np.max(np.abs(w.astype(np.float64) - recon)))
        assert err <= scale / 2 + scale * 1e-9

    spec = parse_network_spec(
        (resources.files("compactdet.configs") / "explore-proto.cfg").read_text())
    x = np.random.default_rng(7).random((1, 3, 64, 64), dtype=np.float32)
    for net_seed in (0, 1, 2):
        store = WeightStore.random(spec, seed=net_seed)
        exact = execute(spec, store, x)
        devs = []
        for bits in (4, 8, 12):
            qstore = copy.deepcopy(store)
            for params in qstore.params:
                for name, arr in param_tensors(params):
                    if "bias" not in name:
                        arr[...] = fake_quantize(arr, bits)
            outs = execute(spec, qstore, x)
            devs.append(max(float(np.max(np.abs(o - e))) for o, e in zip(outs, exact)))
        assert devs[0] > devs[1] > devs[2]

    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    report(9, f"1000 round-trips within scale/2; execution deviation falls "
              f"4 -> 8 -> 12 bits on 3 random networks, {elapsed:.1f} s")


# ---------------------------------------------------------------- 10: explorer


# One slottable field per node of the bundled prototype, with its base value.
SLOT_POOL = [
    ("n0.out", 8), ("n1.expansion", 8), ("n2.expansion", 16), ("n3.expansion", 12),
    ("n4.expansion", 24), ("n5.expansion", 16), ("n6.reduction", 4),
    ("n7.expansion", 32), ("n8.expansion", 24), ("n9.expansion", 48),
]


def random_space_doc(rng) -> str:
    """A random enumerable design-space document over the bundled prototype."""
    n_slots = int(rng.integers(2, 5))
    picks = sorted(rng.choice(len(SLOT_POOL), size=n_slots, replace=False))
    lines = []
    for idx in picks:
        name, base = SLOT_POOL[idx]
        candidates = sorted({max(1, base // 2), base, base + max(1, base // 2), 2 * base})
        extras = [v for v in candidates if v != base]
        take = int(rng.integers(1, len(extras) + 1))
        chosen = sorted([base] + list(rng.choice(extras, size=take, replace=False)))
        lines.append(f"slot {name} values {','.join(str(int(v)) for v in chosen)}")
    if rng.random() < 0.5:
        lines.append("fca_site n6 optional")
    if rng.random() < 0.4:
        lines.append(f"repeat n5 min 0 max {int(rng.integers(1, 3))}")
    return "\n".join(lines) + "\n"


def test_criterion_10_explorer_vs_brute_force():
    """On 20 random enumerable spaces (<= 4096 points) with the synthetic
    evaluator and budget 4x space size, explore returns the brute-force
    constrained optimum in >= 18/20; best-feasible u is non-decreasing
    and every returned candidate satisfies the constraints."""
    base = parse_network_spec(
        (resources.files("compactdet.configs") / "explore-proto.cfg").read_text())
    evaluator = synthetic_evaluator()
    base_ops = count_network(base).total_ops
    t0 = perf_counter()
    matches, feasible_spaces, sizes = 0, 0, []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        space = parse_design_space(random_space_doc(rng), base)
        size = space.size()
        sizes.append(size)
        assert size <= 4096
        constraints = ConstraintSet(max_ops=int(base_ops * rng.uniform(0.8, 1.35)))

        result = explore(space, constraints, evaluator, budget=4 * size, seed=i)
        reference = brute_force_search(space, constraints, evaluator)

        trajectory = [-math.inf]
        for entry in result.history:
            assert entry.feasible == (entry.candidate.ops <= constraints.max_ops)
            if entry.feasible:
                trajectory.append(max(trajectory[-1], entry.candidate.u_value))
        assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))
        best_so_far = trajectory[-1]

        if result.best is None:
            assert reference is None
            matches += 1
            continue
        feasible_spaces += 1
        assert result.best.ops <= constraints.max_ops
        assert result.best.u_value == best_so_far
        if (result.best.point, result.best.u_value) == (reference.point, reference.u_value):
            matches += 1

    elapsed = perf_counter() - t0
    assert matches >= 18
    assert elapsed < 300.0
    report(10, f"explorer matched brute force {matches}/20 spaces "
               f"({feasible_spaces} feasible, sizes {min(sizes)}..{max(sizes)}), {elapsed:.1f} s")


# ------------------------------------------------------------ 11: determinism


def test_criterion_11_determinism(tmp_path):
    """Fixed-seed explore and detect reruns are byte-identical."""
    t0 = perf_counter()
    outs, logs = [], []
    for tag in ("a", "b"):
        out, log = tmp_path / f"best-{tag}.cfg", tmp_path / f"log-{tag}.txt"
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(out), "--log", str(log), "--budget", "48", "--seed", "11",
        ])
        assert rc == 0
        outs.append(out.read_bytes())
        logs.append(log.read_bytes())
    assert outs[0] == outs[1] and logs[0] == logs[1]

    spec_text = (resources.files("compactdet.configs") / "explore-proto.cfg").read_text()
    spec = parse_network_spec(spec_text)
    cfg = tmp_path / "net.cfg"
    cfg.write_text(spec_text)
    weights = tmp_path / "net.w"
    save_weights(weights, spec, WeightStore.random(spec, seed=4), bits=32)
    image = tmp_path / "frame.ppm"
    cli.write_ppm(image, np.random.default_rng(4).integers(0, 256, (64, 64, 3), dtype=np.uint8))
    dets = []
    for tag in ("a", "b"):
        out = tmp_path / f"dets-{tag}.txt"
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights),
            "--image", str(image), "--out", str(out), "--conf", "0.4",
        ])
        assert rc == 0
        dets.append(out.read_bytes())
    assert dets[0] == dets[1]
    elapsed = perf_counter() - t0
    report(11, f"explore and detect reruns byte-identical, {elapsed:.1f} s")
