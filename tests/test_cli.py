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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactdet import cli, complexity
from compactdet.arch_graph import WeightStore, load_bundled_config, param_tensors, parse_network_spec
from compactdet.cli import PpmError, read_ppm, write_ppm
from compactdet.complexity import load_weights, save_weights
from compactdet.detection import parse_detections

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

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 2\n255\n" + bytes(12),        # wrong magic
            b"P6\n2 2\n99\n" + bytes(12),         # unsupported maxval
            b"P6\n2 2\n255\n" + bytes(5),         # truncated raster
            b"P6\n0 2\n255\n",                     # zero dimension
            b"P6\ntwo 2\n255\n" + bytes(12),      # non-numeric
            b"P6",                                 # truncated header
            b"P6\n+2 10\n255\n" + bytes(60),      # signed width
            b"P6\n2 1_0\n255\n" + bytes(60),      # underscore in height
            b"P6\n2 2\n+255\n" + bytes(12),      # signed maxval
        ],
    )
    def test_rejects_malformed(self, tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(PpmError):
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
        assert hashlib.sha256(open("out.w", "rb").read()).hexdigest() == (
            "51f9b96b18e6791b6a9350459bb9279878baf6996e8d3c5244de3a4b7d4861d8"
        )

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
        assert capsys.readouterr().err == "no feasible candidate in 40 evaluations over 4374 points\n"
        assert not out.exists()      # no best config written
        assert log.exists()          # the log still documents the attempt

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_no_iterations(self, count, capsys):
        """A count below 1 is a config error, like explore --budget 0, and
        not a statistics traceback."""
        rc = cli.main(["bench", "--config", bundled("explore-proto.cfg"), "--iterations", count])
        assert rc == 2
        assert f"iterations must be >= 1, got {count}" in capsys.readouterr().err


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
    r"slot n[0-9]+\.[a-z0-9]+ values [0-9,]+|fca_site n[0-9]+ optional"
    r"|repeat n[0-9]+ min [0-9]+ max ([0-9]|[1-5][0-9]|6[0-4])"
)
SPACE_TOKENS = ODD_INTEGERS + [
    "n5", "n6", "n99", "n+5", "n\u0665", "n-1", "n", "8,12", "8,,16", ",", "1_6,8", "8,+12",
    "64", "65", "5000", "slot", "values", "fca_site", "optional", "repeat", "min", "max",
    "n0.out", "n1.proj1", "n6.present", "n10.out", "n5.out",
]


@st.composite
def mutated_spaces(draw):
    """The bundled design-space document, as bytes, with tokens replaced
    (also by raw bytes) or dropped, lines dropped or doubled."""
    lines = [[token.encode() for token in line] for line in SPACE_LINES]
    tokens = st.one_of(
        st.sampled_from(SPACE_TOKENS).map(str.encode),
        st.integers(-2, 100).map(lambda v: str(v).encode()),
        st.lists(st.integers(-1, 70), min_size=1, max_size=4).map(
            lambda v: ",".join(map(str, v)).encode()
        ),
        st.binary(min_size=1, max_size=3),
    )
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


class TestInputMutations:
    """Whatever the bytes, a PPM image or design-space document either
    loads or ends in its documented exit code, never in an exception."""

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
        space, log = directory / "space.txt", directory / "explore.log"
        space.write_bytes(doc)
        rc, out, err = run_quietly([
            "explore", "--config", bundled("explore-proto.cfg"), "--space", str(space),
            "--log", str(log), "--budget", "4",
        ])
        if rc == 0:
            assert out.startswith("best: u ")
            # What loaded used only [0-9]+ integers and repeat max <= 64.
            for raw in doc.decode().splitlines():
                statement = " ".join(raw.split("#", 1)[0].split())
                assert not statement or SPACE_STATEMENT.fullmatch(statement), statement
        else:
            assert rc in (2, 3) and err.startswith("error: ") and not out
