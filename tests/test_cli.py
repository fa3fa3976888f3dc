"""End-to-end CLI tests, in-process through main().

The detect scenario is constructed so the whole pipeline output is
derivable on paper: zero stem weights make the feature maps zero for any
image, and head biases then place one anchor's boxes at every cell center
of the coarse grid with score sigmoid(10)^2 while silencing the rest.
"""

import contextlib
import hashlib
import io
import re
import struct
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactdet import arch_graph, cli, complexity
from compactdet.arch_graph import (
    SCALE_TAGS,
    WeightStore,
    load_bundled_config,
    parse_network_spec,
)
from compactdet.cli import PpmError, read_ppm, write_ppm
from compactdet.complexity import load_weights, save_weights
from compactdet.detection import parse_detections
from compactdet.explorer import Candidate, HistoryEntry
from compactdet.nn_modules import param_tensors
from compactdet.tensor_core import ConfigError

HEAD_CFG = """\
input 3 16 16
classes 1
anchors large 0.5,0.5 0.4,0.4 0.3,0.3
anchors medium 0.2,0.2 0.15,0.15 0.12,0.12
anchors small 0.1,0.1 0.08,0.08 0.06,0.06
conv 3 8 2
conv 3 8 2
conv 1 18 1
detect large
from 1
conv 1 18 1
detect medium
from 0
conv 1 18 1
detect small
"""


PROTO_CFG = (resources.files("compactdet.configs") / "explore-proto.cfg").read_text()

# An ep, not a conv, feeds the large detect node.
EP_HEAD_CFG = """\
input 3 16 16
classes 1
conv 3 8 2
ep 18 18 2
detect large
from 0
conv 1 18 1
detect medium
from 0
conv 1 18 1
detect small
"""


def bundled(name: str) -> str:
    return str(resources.files("compactdet.configs") / name)


@pytest.fixture
def head_setup(tmp_path):
    """Config + weights where only large-grid anchor 0 fires (bias +10)."""
    cfg = tmp_path / "net.cfg"
    cfg.write_text(HEAD_CFG)
    spec = parse_network_spec(HEAD_CFG)
    store = WeightStore.zeros(spec)
    large_head, medium_head, small_head = 2, 4, 6
    store.params[large_head].bias[4] = 10.0    # anchor 0 objectness
    store.params[large_head].bias[5] = 10.0    # anchor 0 class logit
    for a in (1, 2):
        store.params[large_head].bias[a * 6 + 4] = -10.0
    for head in (medium_head, small_head):
        for a in range(3):
            store.params[head].bias[a * 6 + 4] = -10.0
    weights = tmp_path / "net.w"
    save_weights(weights, spec, store, bits=32)
    rng = np.random.default_rng(0)
    image = tmp_path / "frame.ppm"
    write_ppm(image, rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    return cfg, weights, image


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(9, 13, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        pixels = bytes(range(12)) * 1
        path.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img[0, 0, 0] == 0 and img[1, 1, 2] == 11

    MALFORMED = {  # file bytes -> the refusal's text
        b"P5\n2 2\n255\n" + bytes(12): "not a binary PPM",
        b"P6\n2 2\n99\n" + bytes(12): "only maxval 255 is supported, got 99",
        b"P6\n2 2\n255\n" + bytes(5): "raster has 5 bytes, expected 12",
        b"P6\n0 2\n255\n": "bad dimensions 0x2",
        b"P6\ntwo 2\n255\n" + bytes(12): "non-numeric header field",
        b"P6": "truncated header",
        b"P6\n2 2\n": "truncated header",  # no maxval
        b"P6\n+2 10\n255\n" + bytes(60): "non-numeric header field",  # signed width
        b"P6\n2 1_0\n255\n" + bytes(60): "non-numeric header field",  # underscore in height
        b"P6\n2 2\n+255\n" + bytes(12): "non-numeric header field",  # signed maxval
    }

    @pytest.mark.parametrize("data", list(MALFORMED))
    def test_rejects_malformed(self, tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(PpmError, match=f"^{self.MALFORMED[data]}"):
            read_ppm(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(PpmError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))


class TestDescribe:
    def test_reports_shapes_costs_sizes(self, capsys):
        rc = cli.main(["describe", "--config", bundled("explore-proto.cfg")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "node_id\tkind\tchannels\theight\twidth" in out
        assert "node_id\tkind\tmacs\tops\tparams" in out
        assert "TOTAL\t-\t" in out
        assert "model_size_8bit:" in out and "model_size_32bit:" in out
        assert "nodes: 16" in out

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("input 3 8 8\nconv nope 4 1\n")
        rc = cli.main(["describe", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2" in err

    def test_integer_above_bound_exits_2(self, tmp_path, capsys):
        """Integer fields stop at 2**31 - 1 (one above is refused, the bound
        itself is not), so no count reaches float overflow."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text("input 3 8 8\nconv 3 2147483648 1\n")
        assert cli.main(["describe", "--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err
        cfg.write_text("input 3 8 8\nconv 3 2147483647 1\n")
        assert cli.main(["describe", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("dims", ["0.2_79,0.216", "\u0660.\u0662\u0667\u0669,0.216", "x,0.216"])
    def test_non_numeric_anchor_exits_2(self, tmp_path, capsys, dims):
        """Anchor dims take the interchange's number rule: no digit-group
        underscore and no non-ASCII digit (Arabic-Indic 0.279 here)."""
        text = (resources.files("compactdet.configs") / "reference.cfg").read_text()
        line_no = text.splitlines().index("anchors large 0.279,0.216 0.375,0.476 0.897,0.784") + 1
        cfg = tmp_path / "anchors.cfg"
        cfg.write_text(text.replace("0.279,0.216", dims), encoding="utf-8")
        assert cli.main(["describe", "--config", str(cfg)]) == 2
        assert f"line {line_no}: anchor {dims!r} is not numeric" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys):
        rc = cli.main(["describe", "--config", "/nonexistent/net.cfg"])
        assert rc == 3

    def test_shape_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("input 3 8 8\nconv 1 20 1\ndetect large\n")
        rc = cli.main(["describe", "--config", str(cfg)])
        assert rc == 2


class TestDetect:
    def test_grid_of_cell_centers(self, head_setup, tmp_path, capsys):
        cfg, weights, image = head_setup
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights),
            "--image", str(image), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        # 4x4 large grid, one anchor over threshold per cell: 16 boxes with
        # cell-center coordinates, anchor-sized, score sigmoid(10)^2.
        assert len(lines) == 16
        first = lines[0].split()
        assert first[0] == "frame"          # image id is the file stem
        assert first[1] == "0"
        assert first[2] == "0.999909"
        centers = {(0.5 + k) / 4 for k in range(4)}
        for line in lines:
            _, class_id, score, cx, cy, w, h = line.split()
            assert (class_id, score, w, h) == ("0", "0.999909", "0.500000", "0.500000")
            assert float(cx) in centers and float(cy) in centers

    def test_rerun_byte_identical(self, head_setup, tmp_path):
        cfg, weights, image = head_setup
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.main([
                "detect", "--config", str(cfg), "--weights", str(weights),
                "--image", str(image), "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_conf_one_silences_everything(self, head_setup, tmp_path):
        cfg, weights, image = head_setup
        out = tmp_path / "none.txt"
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights),
            "--image", str(image), "--out", str(out), "--conf", "1.0",
        ])
        assert rc == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--conf", "nan"), ("--conf", "-0.1"), ("--conf", "1.5"),
         ("--nms-iou", "nan"), ("--nms-iou", "inf"), ("--nms-iou", "-1")],
    )
    def test_bad_threshold_exits_2(self, head_setup, tmp_path, capsys, flag, value):
        """A threshold that is NaN or outside [0, 1] is refused before any
        output: NaN would pass no score, and as an IoU it suppresses nothing."""
        cfg, weights, image = head_setup
        out = tmp_path / "dets.txt"
        base = ["detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image), flag, value]
        for argv in (base, base + ["--out", str(out)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag} must be in [0, 1], got {float(value)}" in captured.err
        assert not out.exists()

    def test_output_parses_as_interchange(self, head_setup, tmp_path):
        cfg, weights, image = head_setup
        out = tmp_path / "dets.txt"
        cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights),
            "--image", str(image), "--out", str(out),
        ])
        parsed = parse_detections(out.read_text())
        assert set(parsed) == {"frame"}
        assert len(parsed["frame"]) == 16

    def test_corrupt_weights_exit_3(self, head_setup, tmp_path, capsys):
        cfg, weights, image = head_setup
        bad = tmp_path / "bad.w"
        bad.write_bytes(b"NOPE" + weights.read_bytes()[4:])
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(bad), "--image", str(image),
        ])
        assert rc == 3
        assert "magic" in capsys.readouterr().err

    def test_mismatched_weights_exit_3(self, head_setup, tmp_path):
        cfg, weights, image = head_setup
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(HEAD_CFG.replace("conv 3 8 2", "conv 3 9 2", 1))
        rc = cli.main([
            "detect", "--config", str(other_cfg), "--weights", str(weights),
            "--image", str(image),
        ])
        assert rc == 3

    @pytest.mark.parametrize(
        "bits, offset, patch",
        [
            (8, 0, struct.pack("<f", float("nan"))),   # first scale NaN
            (8, 0, struct.pack("<f", -1.0)),           # negative scale
            (8, 4, struct.pack("<i", 999)),            # zero point out of range
            (32, 0, struct.pack("<f", float("nan"))),  # NaN in an f32 payload
        ],
        ids=["nan-scale", "negative-scale", "zero-point-999", "nan-f32"],
    )
    def test_corrupted_weights_values_exit_3(
        self, head_setup, tmp_path, capsys, bits, offset, patch
    ):
        """A file whose numbers break the format's invariants is a format
        error (exit 3, nothing on stdout), not silent NaN weights."""
        cfg, weights, image = head_setup
        spec = parse_network_spec(cfg.read_text())
        store, _ = load_weights(weights, spec)
        bad = tmp_path / "bad.w"
        save_weights(bad, spec, store, bits=bits)
        data = bytearray(bad.read_bytes())
        start = 7 + offset  # after the 7-byte header, at the first tensor
        data[start:start + len(patch)] = patch
        bad.write_bytes(bytes(data))
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(bad), "--image", str(image),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "node 0" in captured.err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_overflowing_weights_exit_3(self, head_setup, tmp_path, capsys, to_file):
        """Finite weights whose forward pass overflows float32: exit 3 naming
        the first overflowing node, with no warning before the error line,
        nothing on stdout and no detections file."""
        cfg, _, image = head_setup
        spec = parse_network_spec(cfg.read_text())
        store = WeightStore.random(spec, seed=0)
        for node in (0, 1):
            store.params[node].kernel *= np.float32(1e36)
        weights = tmp_path / "huge.w"
        save_weights(weights, spec, store, bits=32)
        out = tmp_path / "dets.txt"
        argv = ["detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image)]
        rc = cli.main(argv + (["--out", str(out)] if to_file else []))
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "error: node 1 (conv): float32 overflow\n"
        assert not out.exists()

    @pytest.mark.parametrize("bits", [32, 8], ids=["nan-f32-bias", "zero-8bit-scale"])
    def test_bad_last_node_exits_3_with_nothing_written(self, head_setup, tmp_path, capsys, bits):
        """Tensors are checked when the forward pass reads them, and a bad
        tensor in the last weighted node (node 6, the small head: an
        (18, 8, 1, 1) kernel, then 18 biases) still ends detect before any
        output: exit 3, one error line, empty stdout and no --out file."""
        cfg, weights, image = head_setup
        spec = parse_network_spec(cfg.read_text())
        bad = tmp_path / "bad.w"
        save_weights(bad, spec, load_weights(weights, spec)[0], bits=bits)
        data = bytearray(bad.read_bytes())
        if bits == 32:
            data[-4:] = struct.pack("<f", float("nan"))  # the last bias
            want = "error: node 6 (conv) tensor bias: non-finite values\n"
        else:
            start = len(data) - 4 * 18 - 18 * 8 - 8  # the kernel's scale
            data[start:start + 4] = struct.pack("<f", 0.0)
            want = "error: node 6 (conv) tensor 0: scale must be positive, got 0.0\n"
        bad.write_bytes(bytes(data))
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(bad), "--image", str(image),
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == want
        assert not out.exists()

    def test_stray_blas_flag_keeps_output(self, tmp_path, request):
        """A status flag on every finite BLAS product (conv2d's and the FCA
        dense layers') changes nothing: the reference network with seed-0
        weights on a noise frame, a thousand boxes, gives the same bytes."""
        spec = load_bundled_config("reference")
        weights = tmp_path / "ref.w"
        save_weights(weights, spec, WeightStore.random(spec, seed=0), bits=32)
        image = tmp_path / "frame0.ppm"
        write_ppm(image, np.random.default_rng(0).integers(0, 256, size=(416, 416, 3), dtype=np.uint8))
        argv = ["detect", "--config", bundled("reference.cfg"), "--weights", str(weights),
                "--image", str(image)]
        clean = run_quietly(argv)
        ranks = request.getfixturevalue("stray_blas_flag")
        assert run_quietly(argv) == clean
        assert clean[0] == 0 and clean[1].count("\n") > 1000
        assert {3, 5} <= set(ranks)

    def test_dense_frame_matches_the_pinned_digest(self, tmp_path, monkeypatch):
        """The benchmark's detect-dense frame0, rebuilt: reference.cfg,
        seed-0 random weights saved as float32, the seed-0 416x416 noise
        frame, --conf 0.25 --nms-iou 0.45.  Its output hashes to a copy of
        the benchmark's pinned digest, so a kernel change that moves one byte
        fails here without running the benchmark.  The digest holds only
        under the BLAS runtime it was measured with."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        if workloads.blas_runtime() != workloads.PINNED_BLAS:
            pytest.skip(f"digest pinned under {workloads.PINNED_BLAS!r}")
        spec = load_bundled_config("reference")
        weights = tmp_path / "model-f32.w"
        save_weights(weights, spec, WeightStore.random(spec, seed=0), bits=32)
        image = tmp_path / "frame0.ppm"
        write_ppm(image, np.random.default_rng(0).integers(0, 256, size=(416, 416, 3), dtype=np.uint8))
        out = tmp_path / "frame0.txt"
        rc, _, _ = run_quietly([
            "detect", "--config", bundled("reference.cfg"), "--weights", str(weights),
            "--image", str(image), "--out", str(out), "--conf", "0.25", "--nms-iou", "0.45",
        ])
        assert rc == 0
        digest = hashlib.sha256(out.read_text().encode()).hexdigest()
        assert digest == "9783d2123046d7cf5000101c50aff8bc09e0fb4dc8cd552c294684924fa91342"

    @staticmethod
    def tiny_yolov3_detects_twice_alike(tmp_path, quantized: bool):
        """Seed-0 random float32 Tiny YOLOv3 weights, or their `quantize`d
        8-bit file, and a seeded frame give lines that all parse, twice alike."""
        spec = load_bundled_config("tiny-yolov3")
        weights = tmp_path / "tiny-f32.w"
        save_weights(weights, spec, WeightStore.random(spec, seed=0), bits=32)
        if quantized:
            f32, weights = weights, tmp_path / "tiny-8bit.w"
            rc, _, _ = run_quietly([
                "quantize", "--config", bundled("tiny-yolov3.cfg"), "--weights", str(f32),
                "--out", str(weights),
            ])
            assert rc == 0 and load_weights(weights, spec)[1] == 8
        image = tmp_path / "frame0.ppm"
        write_ppm(image, np.random.default_rng(0).integers(0, 256, size=(416, 416, 3), dtype=np.uint8))
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"dets-{tag}.txt"
            rc, _, _ = run_quietly([
                "detect", "--config", bundled("tiny-yolov3.cfg"), "--weights", str(weights),
                "--image", str(image), "--out", str(out),
            ])
            assert rc == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        assert lines and len(parse_detections(texts[0])["frame0"]) == len(lines)

    def test_tiny_yolov3_detects_and_reruns_byte_identical(self, tmp_path):
        """Criterion 11 for the paper's baseline, on float32 weights."""
        self.tiny_yolov3_detects_twice_alike(tmp_path, quantized=False)

    def test_tiny_yolov3_8bit_detects_and_reruns_byte_identical(self, tmp_path):
        """The same on the 8-bit file `quantize` writes: its largest tensor,
        1024x512x3x3, goes through quantize_tensor and dequantize_tensor."""
        self.tiny_yolov3_detects_twice_alike(tmp_path, quantized=True)

    def test_network_without_detect_node_exits_2(self, tmp_path):
        """execute refuses a network with no detect node, so detect exits 2
        and not with a traceback from concatenating no candidates."""
        text = "input 3 16 16\nconv 3 8 2\n"
        spec = parse_network_spec(text)
        store = WeightStore.random(spec, seed=0)
        with pytest.raises(ConfigError, match="^a runnable detection network needs a detect node"):
            arch_graph.execute(spec, store, np.zeros((1, 3, 16, 16), dtype=np.float32))
        cfg, weights, image = tmp_path / "net.cfg", tmp_path / "net.w", tmp_path / "frame.ppm"
        cfg.write_text(text)
        save_weights(weights, spec, store, bits=32)
        write_ppm(image, np.zeros((16, 16, 3), dtype=np.uint8))
        rc, out, err = run_quietly([
            "detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image),
        ])
        assert (rc, out) == (2, "")
        assert err == "error: a runnable detection network needs a detect node, and this one has none\n"

    def test_non_finite_anchor_exit_2(self, head_setup, tmp_path, capsys):
        cfg, weights, image = head_setup
        bad = tmp_path / "nan.cfg"
        bad.write_text(HEAD_CFG.replace("anchors large 0.5,0.5", "anchors large nan,0.5"))
        rc = cli.main([
            "detect", "--config", str(bad), "--weights", str(weights), "--image", str(image),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "'nan,0.5'" in captured.err

    def test_short_weights_refused_before_allocating(self, head_setup, tmp_path, capsys):
        """A header-only file for a ~216 GiB layer is refused as truncated
        from its size, without allocating a tensor."""
        _, weights, image = head_setup
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("input 3 8 8\nconv 3 2147483647 1\n")
        header = tmp_path / "header.w"
        header.write_bytes(weights.read_bytes()[:7])
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(header), "--image", str(image),
        ])
        assert rc == 3
        assert "truncated" in capsys.readouterr().err

    def test_bad_image_exit_3(self, head_setup, tmp_path, capsys):
        cfg, weights, _ = head_setup
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n255\nxx")
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights), "--image", str(bad),
        ])
        assert rc == 3

    @pytest.mark.parametrize("stem", ["#frame", "a b"])
    def test_unparsable_image_id_exits_2_before_loading(self, head_setup, tmp_path, capsys, monkeypatch, stem):
        """The image id is the file stem and leads every output line:
        parse_detections would skip "#frame ..." lines as comments and
        split "a b ..." into 8 fields, so such a stem is refused before
        the spec or the weights are loaded."""
        cfg, weights, image = head_setup

        def never(*args, **kwargs):
            raise AssertionError("the spec or the weights were loaded")

        monkeypatch.setattr(arch_graph, "parse_network_spec", never)
        monkeypatch.setattr(complexity, "load_weights", never)
        named = tmp_path / f"{stem}.ppm"
        named.write_bytes(image.read_bytes())
        rc = cli.main(["detect", "--config", str(cfg), "--weights", str(weights), "--image", str(named)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            f"error: image id {stem!r} (the --image file stem) must be one token not starting with '#'\n"
        )


BOX, FAR, BOX2 = "0.5 0.5 0.2 0.2", "0.1 0.1 0.05 0.05", "0.8 0.8 0.1 0.1"


class TestEvaluate:
    def run(self, tmp_path, dets: str, truths) -> tuple:
        """evaluate on the two texts written to files; truths None leaves
        its file missing."""
        dets_path, truths_path = tmp_path / "dets.txt", tmp_path / "truths.txt"
        dets_path.write_text(dets)
        if truths is not None:
            truths_path.write_text(truths)
        return run_quietly(["evaluate", "--detections", str(dets_path), "--truths", str(truths_path)])

    def test_detect_output_scores_one_against_itself(self, head_setup, tmp_path):
        """Truths are detect's own lines with the score column dropped.  Its
        16 anchor-sized boxes overlap each other at IoU <= 1/3, so each box
        matches only its own truth."""
        cfg, weights, image = head_setup
        out = tmp_path / "frame.txt"
        assert cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image), "--out", str(out),
        ]) == 0
        rows = [line.split() for line in out.read_text().splitlines()]
        assert len(rows) == 16
        truths = "".join(" ".join(row[:2] + row[3:]) + "\n" for row in rows)
        assert self.run(tmp_path, out.read_text(), truths) == (0, "class\tap\n0\t1.000000\nmAP\t1.000000\n", "")

    @pytest.mark.parametrize(
        "dets, truths, table",
        [
            # A false positive outscores the hit: AP = 0.5 at all eleven points.
            (f"img 0 0.95 {FAR}\nimg 0 0.90 {BOX}\n", f"img 0 {BOX}\n", "0\t0.500000\nmAP\t0.500000\n"),
            # A second, unmatched truth: six points see precision 0.5, 6 * 0.5 / 11.
            (f"img 0 0.95 {FAR}\nimg 0 0.90 {BOX}\n", f"img 0 {BOX}\nimg 0 {BOX2}\n",
             "0\t0.272727\nmAP\t0.272727\n"),
            # Perfect detections in two classes.
            (f"img 0 0.9 {BOX}\nimg 1 0.8 {BOX2}\n", f"img 0 {BOX}\nimg 1 {BOX2}\n",
             "0\t1.000000\n1\t1.000000\nmAP\t1.000000\n"),
        ],
        ids=["false-positive-first", "unmatched-truth", "perfect"],
    )
    def test_hand_enumerated_curves(self, tmp_path, dets, truths, table):
        """Criterion 7's hand-computed cases, written to files."""
        assert self.run(tmp_path, dets, truths) == (0, "class\tap\n" + table, "")

    @pytest.mark.parametrize(
        "dets, truths, message",
        [
            (f"img 0 0.9 {BOX}\n", f"img 0 0.9 {BOX}\n", "line 1: expected 6 fields, got 7"),
            (f"img 0 nan {BOX}\n", f"img 0 {BOX}\n", "image img: a score or box field is not finite"),
            # Finite, but w * h and the edges overflow: the IoU would be NaN.
            ("img 0 0.9 0.5 0.5 1e308 1e308\n", "img 0 0.5 0.5 1e308 1e308\n", "image img: box IoU overflows float64"),
            (f"img 0 0.9 {BOX}\n", None, "No such file"),
        ],
        ids=["score-in-truths", "nan", "overflow", "missing-file"],
    )
    def test_bad_file_exits_3(self, tmp_path, dets, truths, message):
        rc, out, err = self.run(tmp_path, dets, truths)
        assert rc == 3 and out == "" and err.startswith("error: ") and message in err

    def test_missing_truths_flag_exits_2(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text(f"img 0 0.9 {BOX}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--detections", str(dets)])
        assert exc.value.code == 2
        assert "--truths" in capsys.readouterr().err


class TestQuantize:
    def test_produces_loadable_8bit_file(self, head_setup, tmp_path, capsys):
        cfg, weights, _ = head_setup
        out = tmp_path / "net8.w"
        rc = cli.main([
            "quantize", "--config", str(cfg), "--weights", str(weights), "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "8-bit" in stdout and "max round-trip error" in stdout
        spec = parse_network_spec(HEAD_CFG)
        _, bits = load_weights(out, spec)
        assert bits == 8

    def test_quantized_net_detects_like_original(self, head_setup, tmp_path):
        """Zero weights quantize exactly, so detections are unchanged."""
        cfg, weights, image = head_setup
        q = tmp_path / "net8.w"
        cli.main(["quantize", "--config", str(cfg), "--weights", str(weights), "--out", str(q)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["detect", "--config", str(cfg), "--weights", str(weights),
                  "--image", str(image), "--out", str(a)])
        cli.main(["detect", "--config", str(cfg), "--weights", str(q),
                  "--image", str(image), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_8bit_input(self, head_setup, tmp_path, capsys):
        cfg, weights, _ = head_setup
        q = tmp_path / "net8.w"
        cli.main(["quantize", "--config", str(cfg), "--weights", str(weights), "--out", str(q)])
        rc = cli.main(["quantize", "--config", str(cfg), "--weights", str(q),
                       "--out", str(tmp_path / "again.w")])
        assert rc == 2
        assert "already 8-bit" in capsys.readouterr().err

    def test_corrupt_input_exit_3(self, head_setup, tmp_path):
        cfg, weights, _ = head_setup
        bad = tmp_path / "bad.w"
        bad.write_bytes(b"????" + bytes(16))
        rc = cli.main(["quantize", "--config", str(cfg), "--weights", str(bad),
                       "--out", str(tmp_path / "x.w")])
        assert rc == 3

    @pytest.fixture
    def random_proto_weights(self, tmp_path, monkeypatch):
        """explore-proto with seed-0 random f32 weights in in.w, cwd tmp_path."""
        monkeypatch.chdir(tmp_path)
        spec = load_bundled_config("explore-proto")
        store = WeightStore.random(spec, seed=0)
        save_weights("in.w", spec, store, bits=32)
        return bundled("explore-proto.cfg"), store

    def test_stdout_and_file_digests(self, random_proto_weights, capsys):
        cfg, _ = random_proto_weights
        assert cli.main(["quantize", "--config", cfg, "--weights", "in.w", "--out", "out.w"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "dbe24db8074ea10b99334d57bf51d76c5e272cd45411f0b9e1118ef7da4e9dc3"
        )
        assert hashlib.sha256(Path("out.w").read_bytes()).hexdigest() == (
            "51f9b96b18e6791b6a9350459bb9279878baf6996e8d3c5244de3a4b7d4861d8"
        )

    def test_in_place_reports_input_size(self, random_proto_weights, capsys):
        """--out may name the --weights file: the report gives the size of
        the 32-bit input, read before the 8-bit file replaces it."""
        cfg, _ = random_proto_weights
        in_size = Path("in.w").stat().st_size
        assert cli.main(["quantize", "--config", cfg, "--weights", "in.w", "--out", "in.w"]) == 0
        out_size = Path("in.w").stat().st_size
        assert out_size < in_size
        assert f"wrote in.w: {out_size} bytes (8-bit), input {in_size} bytes (32-bit)\n" in (
            capsys.readouterr().out
        )
        assert load_weights("in.w", load_bundled_config("explore-proto"))[1] == 8

    @pytest.mark.parametrize("failing", ["writing", "report"])
    @pytest.mark.parametrize("out", ["in.w", "out.w"])
    def test_failure_leaves_out_as_it_was(self, random_proto_weights, monkeypatch, capsys, out, failing):
        """An OSError while the 8-bit file is written (at the 5th tensor) or
        while its report is made (at the worst tensor's bound, after the
        file is read back) exits 3 and leaves --out, the input itself or an
        existing file, byte for byte as it was, with no file beside it."""
        cfg, store = random_proto_weights
        if out == "out.w":
            Path("out.w").write_bytes(b"an older output")
        before = {path.name: path.read_bytes() for path in Path().iterdir()}
        weight_tensors = sum(
            not name.endswith("bias") for params in store.params for name, _ in param_tensors(params)
        )
        fail_at = 5 if failing == "writing" else weight_tensors + 1
        calls = []
        real = complexity.quantize_tensor

        def failing_call(w):
            calls.append(w.shape)
            if len(calls) == fail_at:
                raise OSError("injected write failure")
            return real(w)

        monkeypatch.setattr(complexity, "quantize_tensor", failing_call)
        assert cli.main(["quantize", "--config", cfg, "--weights", "in.w", "--out", out]) == 3
        assert len(calls) == fail_at
        assert "injected write failure" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in Path().iterdir()} == before

    def test_replaced_out_keeps_its_mode(self, random_proto_weights):
        """An existing --out is replaced whole and keeps its mode; a new one
        gets the mode open() gives a new file, and no other file is left."""
        cfg, _ = random_proto_weights
        Path("old.w").write_bytes(b"an older output")
        Path("old.w").chmod(0o640)
        for out in ("old.w", "new.w"):
            assert cli.main(["quantize", "--config", cfg, "--weights", "in.w", "--out", out]) == 0
        assert Path("old.w").read_bytes() == Path("new.w").read_bytes()
        assert Path("old.w").stat().st_mode & 0o7777 == 0o640
        Path("umask.w").write_bytes(b"")
        assert Path("new.w").stat().st_mode & 0o7777 == Path("umask.w").stat().st_mode & 0o7777
        assert sorted(path.name for path in Path().iterdir()) == ["in.w", "new.w", "old.w", "umask.w"]

    def test_quantizes_each_weight_tensor_once(self, random_proto_weights, monkeypatch):
        """One call per weight tensor to write the file, one more for the
        worst tensor's bound; the report reads the file back instead."""
        cfg, store = random_proto_weights
        calls = []
        real = complexity.quantize_tensor

        def counting(w):
            calls.append(w.shape)
            return real(w)

        monkeypatch.setattr(complexity, "quantize_tensor", counting)
        assert cli.main(["quantize", "--config", cfg, "--weights", "in.w", "--out", "out.w"]) == 0
        weight_tensors = sum(
            not name.endswith("bias") for params in store.params for name, _ in param_tensors(params)
        )
        assert weight_tensors > 0
        assert len(calls) <= weight_tensors + 1


class TestOutputPathChecks:
    """detect and quantize refuse an --out path in a missing directory, or
    one that names a directory, before they load anything."""

    @pytest.mark.parametrize("command", ["detect", "quantize"])
    @pytest.mark.parametrize("where", ["directory", "missing"])
    def test_exits_3_before_loading_weights(self, head_setup, tmp_path, capsys, monkeypatch, command, where):
        cfg, weights, image = head_setup

        def never(*args, **kwargs):
            raise AssertionError("load_weights was reached")

        monkeypatch.setattr(complexity, "load_weights", never)
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
            want = f"error: {out} is a directory, not a file\n"
        else:
            out = tmp_path / "missing" / "dets.txt"
            want = f"error: no directory {tmp_path / 'missing'} for {out}\n"
        before = sorted(tmp_path.iterdir())
        argv = [command, "--config", str(cfg), "--weights", str(weights), "--out", str(out)]
        rc = cli.main(argv + (["--image", str(image)] if command == "detect" else []))
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "" and captured.err == want
        assert sorted(tmp_path.iterdir()) == before


class TestExplore:
    def run(self, tmp_path, tag, *extra):
        out = tmp_path / f"best-{tag}.cfg"
        log = tmp_path / f"log-{tag}.txt"
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(out), "--log", str(log),
            "--budget", "40", "--seed", "5", *extra,
        ])
        return rc, out, log

    def test_writes_best_config_and_log(self, tmp_path, capsys):
        rc, out, log = self.run(tmp_path, "a")
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "best: u " in stdout and "evaluated 40 of 4374 points" in stdout
        best = parse_network_spec(out.read_text())  # must parse cleanly
        assert any(n.kind == "detect" for n in best.nodes)
        log_lines = log.read_text().splitlines()
        assert log_lines[0].startswith("# gen seed feasible ops params score u ")
        assert len(log_lines) == 41  # header + one line per evaluation
        assert all(line.split()[1] == "5" for line in log_lines[1:])

    def test_rerun_byte_identical(self, tmp_path):
        _, out_a, log_a = self.run(tmp_path, "a")
        _, out_b, log_b = self.run(tmp_path, "b")
        assert out_a.read_bytes() == out_b.read_bytes()
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_infeasible_exits_4(self, tmp_path, capsys):
        rc, out, log = self.run(tmp_path, "x", "--min-score", "2.0")
        assert rc == 4
        summary, *rest = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"explore: 40 evaluations in \d+\.\d{3} s \(\d+/s\); infeasible: "
            r"0 over --max-ops, 40 under --min-score, 0 non-finite score",
            summary,
        )
        assert rest == ["no feasible candidate in 40 evaluations over 4374 points"]
        assert not out.exists()      # no best config written
        assert log.exists()          # the log still documents the attempt

    def test_summary_counts_points_over_max_ops(self, tmp_path, capsys):
        cap = 2500000
        rc, _, log = self.run(tmp_path, "c", "--max-ops", str(cap))
        assert rc == 0
        over = sum(
            int(line.split()[3]) > cap for line in log.read_text().splitlines()[1:]
        )
        summary = capsys.readouterr().err.splitlines()
        assert len(summary) == 1 and summary[0].startswith("explore: 40 evaluations in ")
        assert summary[0].endswith(
            f"infeasible: {over} over --max-ops, 0 under --min-score, 0 non-finite score"
        )
        assert over > 0

    def test_summary_counts_each_point_under_its_first_failed_check(self):
        spec = load_bundled_config("explore-proto")

        def entry(ops, score):
            cand = Candidate(spec=spec, ops=ops, params=1, score=score, u_value=0.0)
            return HistoryEntry(gen=0, failed=complexity.failed_constraint(ops, score, constraints), candidate=cand)

        constraints = complexity.ConstraintSet(max_ops=100, min_score=0.5)
        history = [
            entry(50, 0.9),            # feasible
            entry(150, 0.9),           # over --max-ops
            entry(150, float("nan")),  # over --max-ops, checked first
            entry(50, 0.1),            # under --min-score
            entry(50, float("nan")),   # non-finite score
            entry(50, float("nan")),
        ]
        assert cli._search_summary(history, 2.0) == (
            "explore: 6 evaluations in 2.000 s (3/s); "
            "infeasible: 2 over --max-ops, 1 under --min-score, 2 non-finite score"
        )

    @pytest.mark.parametrize("log_name", ["same.cfg", "sub/../same.cfg"])
    def test_out_equal_to_log_exits_2_before_search(self, tmp_path, capsys, monkeypatch, log_name):
        """--out and --log naming one file would leave only the best config:
        refused before any search or output."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(tmp_path / "same.cfg"), "--log", log_name, "--budget", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: --out and --log name the same file")
        assert not (tmp_path / "same.cfg").exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_missing_directory_exits_3_before_search(self, tmp_path, capsys, flag):
        """A best config or log path whose directory does not exist is
        refused before the search: nothing is evaluated or written."""
        paths = {"--out": tmp_path / "best.cfg", "--log": tmp_path / "log.txt"}
        paths[flag] = tmp_path / "missing" / "x"
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(paths["--out"]), "--log", str(paths["--log"]), "--budget", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == f"error: no directory {tmp_path / 'missing'} for {paths[flag]}\n"
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_directory_path_exits_3_before_search(self, tmp_path, capsys, flag):
        """A best config or log path that names an existing directory is
        refused before the search: nothing is evaluated or written."""
        paths = {"--out": tmp_path / "best.cfg", "--log": tmp_path / "log.txt"}
        paths[flag] = tmp_path / "taken"
        paths[flag].mkdir()
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(paths["--out"]), "--log", str(paths["--log"]), "--budget", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == f"error: {paths[flag]} is a directory, not a file\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "taken"]
        assert list(paths[flag].iterdir()) == []

    def test_directory_default_log_exits_3_before_search(self, tmp_path, capsys):
        """Without --log the log goes to OUT.log; a directory there is
        refused before the search as well."""
        (tmp_path / "best.cfg.log").mkdir()
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", bundled("explore-space.txt"),
            "--out", str(tmp_path / "best.cfg"), "--budget", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == f"error: {tmp_path / 'best.cfg.log'} is a directory, not a file\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "best.cfg.log"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_score_exits_2(self, tmp_path, capsys, value):
        rc, out, log = self.run(tmp_path, "m", f"--min-score={value}")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "--min-score must be finite" in captured.err
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_max_ops_exits_2(self, tmp_path, capsys, value):
        rc, out, log = self.run(tmp_path, "o", f"--max-ops={value}")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and f"--max-ops must be >= 0, got {value}" in captured.err
        assert not out.exists() and not log.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc, out, log = self.run(tmp_path, "s", "--seed", "-1")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "seed must be >= 0, got -1" in captured.err
        assert not out.exists() and not log.exists()

    def test_best_config_digest(self, tmp_path):
        rc, out, _ = self.run(tmp_path, "d")
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "41a995d72628ac2dac2ac5f409bbc623375cc689ba46665a8d4b158f7bb9916b"
        )

    def test_weightless_network(self, tmp_path, capsys):
        """A network with no parameters ranks at u -inf instead of
        dividing by zero."""
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("input 75 13 13\nclasses 20\nupsample 1\ndetect large\n")
        space = tmp_path / "space.txt"
        space.write_text("")
        rc = cli.main(["explore", "--config", str(cfg), "--space", str(space), "--budget", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "best: u -inf " in captured.out
        assert "evaluated 1 of 1 points" in captured.out
        assert "Traceback" not in captured.err

    def test_slotless_space_best_line_has_no_trailing_space(self, tmp_path, capsys):
        """A space with no slots has one empty point: the best line ends at
        `point`, as the log's header and lines end at their last field."""
        space = tmp_path / "space.txt"
        space.write_text("")
        out = tmp_path / "best.cfg"
        argv = ["explore", "--config", bundled("explore-proto.cfg"), "--space", str(space)]
        rc = cli.main(argv + ["--out", str(out), "--budget", "4"])
        best, evaluated = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert re.fullmatch(r"best: u \S+ score \S+ ops \d+ params \d+ point", best)
        assert evaluated == "evaluated 1 of 1 points"
        assert (tmp_path / "best.cfg.log").read_text().splitlines()[0] == (
            "# gen seed feasible ops params score u"
        )

    def test_constraint_respected(self, tmp_path, capsys):
        cap = 2500000
        rc, out, _ = self.run(tmp_path, "c", "--max-ops", str(cap))
        assert rc == 0
        stdout = capsys.readouterr().out
        ops = int(stdout.split("ops ")[1].split()[0])
        assert ops <= cap

    def test_bad_space_doc_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "space.txt"
        doc.write_text("slot n99.out values 1,2\n")
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"),
            "--space", str(doc), "--out", str(tmp_path / "o.cfg"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "config, doc, line",
        [
            (PROTO_CFG, "slot n0.out values 8,12\nslot n0.out values 16\n", 2),
            (PROTO_CFG, "fca_site n6 optional\nrepeat n11 min 0 max 2\n", 2),
            (PROTO_CFG, "repeat n11 min 0 max 0\n", 1),
            (EP_HEAD_CFG, "slot n1.out values 18,20\n", 1),
            (EP_HEAD_CFG.replace("ep 18 18 2\n", "ep 18 18 2\nfca 2\n"), "fca_site n2 optional\n", 1),
        ],
        ids=["duplicate-slot", "repeat-detect", "repeat-detect-to-0", "slot-on-detect-input",
             "fca-site-on-detect-input"],
    )
    def test_refused_statement_exits_2_before_search(self, tmp_path, capsys, config, doc, line):
        """A duplicate statement, a repeated detect node, and a slot or an
        fca_site on a detect node's input each exit 2 naming their line; no
        point is evaluated, and neither the best config nor the log is
        written."""
        cfg, space, log = tmp_path / "net.cfg", tmp_path / "space.txt", tmp_path / "log.txt"
        cfg.write_text(config)
        space.write_text(doc)
        rc = cli.main([
            "explore", "--config", str(cfg), "--space", str(space), "--log", str(log),
            "--out", str(tmp_path / "best.cfg"),
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["net.cfg", "space.txt"]

    def test_slot_value_above_bound_exits_2(self, tmp_path, capsys):
        """A slot value past 2**31 - 1 is a parse error on its line, not an
        overflow in the cost totals."""
        doc = tmp_path / "space.txt"
        doc.write_text("# huge\nslot n0.out values 8,1" + "0" * 305 + "\n")
        rc = cli.main([
            "explore", "--config", bundled("explore-proto.cfg"), "--space", str(doc),
            "--log", str(tmp_path / "log.txt"),
        ])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


class TestBench:
    def test_reports_latency(self, capsys):
        rc = cli.main([
            "bench", "--config", bundled("explore-proto.cfg"), "--iterations", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency_ms mean" in out
        assert "total_ops: 2411510" in out
        assert "iterations: 3" in out

    def test_accepts_weights_file(self, head_setup, capsys):
        cfg, weights, _ = head_setup
        rc = cli.main([
            "bench", "--config", str(cfg), "--weights", str(weights), "--iterations", "2",
        ])
        assert rc == 0

    def test_reads_weights_once_before_timing(self, head_setup, monkeypatch, capsys):
        """The store is read from the file once, before the warm-up, so the
        timed passes time the forward pass and not the file."""
        cfg, weights, _ = head_setup
        reads = []
        real = complexity._read_node

        def reading(fh, node, entries):
            reads.append(node.id)
            return real(fh, node, entries)

        monkeypatch.setattr(complexity, "_read_node", reading)
        rc = cli.main([
            "bench", "--config", str(cfg), "--weights", str(weights), "--iterations", "3",
        ])
        assert rc == 0
        assert reads == list(range(len(parse_network_spec(HEAD_CFG).nodes)))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_no_iterations(self, count, capsys):
        """A count below 1 is a config error, like explore --budget 0, and
        not a statistics traceback."""
        rc = cli.main(["bench", "--config", bundled("explore-proto.cfg"), "--iterations", count])
        assert rc == 2
        assert f"iterations must be >= 1, got {count}" in capsys.readouterr().err

    def test_rejects_negative_seed(self, capsys):
        rc = cli.main(["bench", "--config", bundled("explore-proto.cfg"), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "seed must be >= 0, got -1" in captured.err


class TestOutOfMemory:
    """A network too big to allocate exits 2 with one error line.  The
    kernel that would allocate is patched to raise, so no test allocates
    for real: a real allocation that size can be granted and then written."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise MemoryError(
            "Unable to allocate 6.98 TiB for an array with shape "
            "(1, 3, 800000, 800000) and data type float32"
        )

    def test_bench_names_the_failed_allocation(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(HEAD_CFG.replace("input 3 16 16", "input 3 8 8\nupsample 100000", 1))
        monkeypatch.setattr(arch_graph, "upsample_nearest", self.refuse)
        rc = cli.main(["bench", "--config", str(cfg), "--iterations", "1"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            "error: Unable to allocate 6.98 TiB for an array with shape "
            "(1, 3, 800000, 800000) and data type float32\n"
        )

    def test_detect_without_numpy_message(self, head_setup, tmp_path, capsys, monkeypatch):
        cfg, weights, image = head_setup

        def refuse(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(arch_graph, "conv2d", refuse)
        out = tmp_path / "dets.txt"
        rc = cli.main([
            "detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image),
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert captured.err == "error: out of memory\n"
        assert not out.exists()


class TestGoldenOutput:
    """Full stdout pinned by sha256, so any byte that changes is caught.

    Run from the bundled configs directory with relative paths, so the
    `config:` line does not depend on where the package is installed.
    """

    DIGESTS = {
        ("describe", "reference.cfg"):
            "ce4510c1cf2368297bc143fde066bda5831195f560afa8acd9f603bf35dcf6b7",
        ("describe", "tiny-yolov3.cfg"):
            "a8e3680ad00054c6b4cae21d50b9196017415304a779e756a118987942917223",
        ("describe", "explore-proto.cfg"):
            "959aa539beeb99ac0b9069008f879435cc5bcb4360d36fa4598110ab98f766cc",
        ("explore", "0"):
            "fb98387b0252c622299ff07ab9cbb7d19dffe59c7c2faf5dab45f21dc39100e1",
        ("explore", "1"):
            "81aed2f629283b8abce8b97dd2d69df9fa65630627e07195c3444fe6d1c32043",
    }

    @pytest.mark.parametrize("command, arg", sorted(DIGESTS))
    def test_stdout_digest(self, command, arg, monkeypatch, capsys):
        monkeypatch.chdir(bundled(""))
        if command == "describe":
            argv = ["describe", "--config", arg]
        else:  # no --out or --log: the evaluation log goes to stdout too
            argv = ["explore", "--config", "explore-proto.cfg", "--space", "explore-space.txt",
                    "--budget", "64", "--max-ops", "2500000", "--seed", arg]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.DIGESTS[(command, arg)]

    # The benchmark's pinned explore-search digests (bench/workloads.py
    # PINNED_DIGESTS), copied: sha256 of stdout, best config and log joined
    # by NUL, at the benchmark's budget and ops cap.
    BENCHMARK_DEPTH = {
        "0": "b088d561d576eaebd4f4afb4467c2175b33f9cc46154321e5c918b36729f38cd",
        "1": "b8fef8dbb372cfd21546cc2aec440804186fbd8abaa29f623c3dfe1ee06be588",
        "2": "4bb2b408e8454510e291415a70fb57b1361a7b3461504e205d66ad4e6fc22073",
    }

    @pytest.mark.parametrize("seed", sorted(BENCHMARK_DEPTH))
    def test_benchmark_depth_explore_digest(self, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(bundled(""))
        best, log = tmp_path / "best.cfg", tmp_path / "best.log"
        argv = ["explore", "--config", "explore-proto.cfg", "--space", "explore-space.txt",
                "--out", str(best), "--log", str(log), "--budget", "1024",
                "--max-ops", "2500000", "--seed", seed]
        assert cli.main(argv) == 0
        joined = "\0".join((capsys.readouterr().out, best.read_text(), log.read_text()))
        assert hashlib.sha256(joined.encode()).hexdigest() == self.BENCHMARK_DEPTH[seed]


def run_quietly(argv) -> tuple:
    """cli.main with stdout and stderr captured; any exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def head_net(tmp_path_factory):
    """HEAD_CFG with zero weights, plus a directory for mutated inputs."""
    directory = tmp_path_factory.mktemp("mutations")
    cfg = directory / "net.cfg"
    cfg.write_text(HEAD_CFG)
    weights = directory / "net.w"
    spec = parse_network_spec(HEAD_CFG)
    save_weights(weights, spec, WeightStore.zeros(spec), bits=32)
    return directory, cfg, weights


ODD_INTEGERS = [
    "+2", "1_0", "-1", "0", "00016", "16.0", "0x10", "1e1", " 16", "\u0661\u0666",
    "\uff11\uff16", "\u00b2", "255", "256", "65535", "99999999999", "#", "",
]


@st.composite
def mutated_ppms(draw):
    """A valid PPM whose header tokens, separators, raster length or bytes
    are changed; width x height may be any factoring of the raster.

    Returns (bytes, refuse): refuse is set when the header plainly holds a
    numeric field that is not [0-9]+, which must not load."""
    w, h = draw(st.sampled_from([(16, 16), (256, 1), (1, 256), (32, 8), (8, 32)]))
    tokens = [b"P6", str(w).encode(), str(h).encode(), b"255"]
    seps = [b"\n", b" ", b"\n", b"\n"]  # the last is the single byte before the raster
    raster = bytes(range(256)) * 3
    odd = st.one_of(
        st.sampled_from([t.encode() for t in ODD_INTEGERS] + [b"P3", b"P5", b"P6"]),
        st.integers(-2, 300).map(lambda v: str(v).encode()),
        st.binary(max_size=4),
    )
    odd_seps = st.sampled_from([b"", b"\t", b"\r\n", b"  ", b"\n# c\n", b"#", b"\x00", b"\xa0"])
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["token", "token", "sep", "truncate", "append", "flip"]))
        if action == "token":
            tokens[draw(st.integers(0, 3))] = draw(odd)
        elif action == "sep":
            seps[draw(st.integers(0, 3))] = draw(odd_seps)
        elif action == "truncate":
            raster = raster[: draw(st.integers(0, len(raster)))]
        elif action == "append":
            raster += draw(st.binary(min_size=1, max_size=8))
        elif raster:
            i = draw(st.integers(0, len(raster) - 1))
            raster = raster[:i] + bytes([raster[i] ^ 0xFF]) + raster[i + 1:]
    refuse = (
        any(not re.fullmatch(rb"[0-9]+", t) for t in tokens[1:])
        and all(re.fullmatch(rb"[^\s#]+", t) for t in tokens)
        and all(re.fullmatch(rb"\s+", sep) for sep in seps[:3])
    )
    return b"".join(t + sep for t, sep in zip(tokens, seps)) + raster, refuse


SPACE_LINES = [
    line.split()
    for line in (resources.files("compactdet.configs") / "explore-space.txt").read_text().splitlines()
    if line.split("#", 1)[0].strip()
]
SPACE_STATEMENT = re.compile(
    r"slot n[0-9]+\.[a-z0-9]+ values [0-9]+(,[0-9]+)*|fca_site n[0-9]+ optional"
    r"|repeat n[0-9]+ min [0-9]+ max ([0-9]|[1-5][0-9]|6[0-4])"
)
SPACE_TOKENS = ODD_INTEGERS + [
    "n5", "n6", "n11", "n99", "n+5", "n\u0665", "n-1", "n", "8,12", "8,,16", ",", "1_6,8", "8,+12",
    "64", "65", "5000", "slot", "values", "fca_site", "optional", "repeat", "min", "max",
    "n0.out", "n1.proj1", "n6.present", "n10.out", "n5.out",
]


def mutate_lines(draw, lines: list, tokens) -> bytes:
    """lines (lists of str tokens) as bytes, with 1-3 changes: a token
    replaced by a draw from tokens or dropped, a line dropped or doubled."""
    lines = [[token.encode() for token in line] for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["replace", "replace", "drop token", "drop line", "double line"]))
        if action == "replace":
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(tokens)
        elif action == "drop token" and len(lines[i]) > 1:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif action == "drop line" and len(lines) > 1:
            del lines[i]
        elif action == "double line":
            lines.insert(i, list(lines[i]))
    return b"\n".join(b" ".join(line) for line in lines) + b"\n"


@st.composite
def mutated_spaces(draw):
    """The bundled design-space document, as bytes, with tokens replaced
    (also by raw bytes) or dropped, lines dropped or doubled."""
    tokens = st.one_of(
        st.sampled_from(SPACE_TOKENS).map(str.encode),
        st.integers(-2, 100).map(lambda v: str(v).encode()),
        st.lists(st.integers(-1, 70), min_size=1, max_size=4).map(
            lambda v: ",".join(map(str, v)).encode()
        ),
        st.binary(min_size=1, max_size=3),
    )
    return mutate_lines(draw, SPACE_LINES, tokens)


DETECTION_LINES = [
    f"img0 0 0.900000 {BOX}", f"img0 1 0.800000 {BOX2}", f"img0 0 0.700000 {FAR}", f"img1 1 0.600000 {BOX}",
]
INTERCHANGE_TOKENS = ODD_INTEGERS + [
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308", "1e400", "1e-320", "-0.0", "-0.5",
    ".5", "5.", "1e", "0x1p3", "1_0.5", "\u0660.5", "img0", "img1", "#img0", "0.900000",
]


@st.composite
def mutated_interchange(draw):
    """(detections, truths) files as bytes: a few detection lines, and
    truths made from them with the score column dropped, each mutated as
    mutate_lines does, also to any float."""
    tokens = st.one_of(
        st.sampled_from(INTERCHANGE_TOKENS).map(str.encode),
        st.floats().map(lambda v: repr(v).encode()),
        st.binary(min_size=1, max_size=3),
    )
    detections = [line.split() for line in DETECTION_LINES]
    truths = [fields[:2] + fields[3:] for fields in detections]
    return mutate_lines(draw, detections, tokens), mutate_lines(draw, truths, tokens)


class TestInputMutations:
    """Whatever the bytes, a PPM image, design-space document or
    interchange file either loads or ends in its documented exit code,
    never in an exception."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=mutated_ppms())
    def test_ppm_loads_or_exits_3(self, head_net, case):
        data, refuse = case
        directory, cfg, weights = head_net
        image = directory / "frame.ppm"
        image.write_bytes(data)
        rc, out, err = run_quietly(
            ["detect", "--config", str(cfg), "--weights", str(weights), "--image", str(image)]
        )
        if rc == 0 and not refuse:
            parse_detections(out)
        else:
            assert rc == 3 and err.startswith("error: ") and not out

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(doc=mutated_spaces())
    def test_space_loads_or_exits_2_or_3(self, head_net, doc):
        directory, _, _ = head_net
        space, log, best = directory / "space.txt", directory / "explore.log", directory / "best.cfg"
        space.write_bytes(doc)
        best.unlink(missing_ok=True)
        rc, out, err = run_quietly([
            "explore", "--config", bundled("explore-proto.cfg"), "--space", str(space),
            "--log", str(log), "--out", str(best), "--budget", "4",
        ])
        if rc == 0:
            assert out.startswith("best: u ")
            # What loaded used only [0-9]+ integers, repeat max <= 64 and
            # each statement target once.
            statements = [" ".join(raw.split("#", 1)[0].split()) for raw in doc.decode().splitlines()]
            statements = [statement for statement in statements if statement]
            for statement in statements:
                assert SPACE_STATEMENT.fullmatch(statement), statement
            targets = {tuple(statement.split()[:2]) for statement in statements}
            assert len(targets) == len(statements)
            # The best point is a detector the detect command can run.
            tags = [node.op.scale_tag for node in parse_network_spec(best.read_text()).detect_nodes()]
            assert sorted(tags) == sorted(SCALE_TAGS)
        else:
            assert rc in (2, 3) and err.startswith("error: ") and not out

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=mutated_interchange())
    def test_interchange_scores_or_exits_3(self, head_net, case):
        directory, _, _ = head_net
        dets, truths = directory / "dets.txt", directory / "truths.txt"
        dets.write_bytes(case[0])
        truths.write_bytes(case[1])
        rc, out, err = run_quietly(["evaluate", "--detections", str(dets), "--truths", str(truths)])
        if rc == 0:
            header, *rows = out.splitlines()
            assert header == "class\tap" and rows[-1].startswith("mAP\t") and not err
            assert all(0.0 <= float(row.split("\t")[1]) <= 1.0 for row in rows)
        else:
            assert rc == 3 and err.startswith("error: ") and not out
