"""The benchmark's workloads: input generation, one operation, output checks.

Every operation goes through the public entry point ``compactdet.cli.main``
in-process, exactly as ``compactdet <command> ...`` would run it, so what is
timed is what a user of the command pays minus interpreter start-up.

Inputs come only from the workload seed.  The detector weights are a fixed
model (``MODEL_SEED``), the same on every run; see README.md for why the
weights are not redrawn per seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

MODEL_SEED = 0
DEFAULT_SEED = 0
# Half the frames are square at the network input size, half are 4:3 and get
# letterboxed; the detect workloads cycle over them in this order.
FRAME_SIZES = ((416, 416), (480, 640))  # (height, width)
CONF = 0.25
NMS_IOU = 0.45
# Sparse recipe: head logits rescaled to unit spread on a calibration frame,
# objectness logit bias set to this value.  Gives tens of candidates per frame.
SPARSE_OBJECTNESS_BIAS = -3.25
EXPLORE_BUDGET = 1024
EXPLORE_MAX_OPS = 2_500_000
# Explore calls cycle over seeds seed, seed+1, ..., seed+EXPLORE_SEEDS-1, so
# that every call has a warm-up twin to be compared with.
EXPLORE_SEEDS = 3

# sha256 of each operation's output at the default seed, measured at the
# commit that added the benchmark.  Detect: the interchange text per frame.
# Explore: stdout, log and best config per explore seed.  float32 matmul
# results depend on the BLAS build, its CPU kernel and its thread count (the
# sparse outputs differ between 1 and 2 OpenBLAS threads), so the detect
# digests are checked only under the BLAS runtime they were measured with.
PINNED_BLAS = "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64; threads 2"
PINNED_DIGESTS = {
    "detect-dense": {
        "frame0": "9783d2123046d7cf5000101c50aff8bc09e0fb4dc8cd552c294684924fa91342",
        "frame1": "77b11ca29ddee8efe5658f9407ac6d6d5ab19c9b3b27a2b3f2859e4a5aa0f81e",
    },
    "detect-sparse": {
        "frame0": "4e82b607b616ae73d1512388f58aefa6070abebe0438deaa52df906ef0564e96",
        "frame1": "10fae902525d01bcc175442e084fb77951a044466b615b6f04d4b1bfe36ddb4a",
    },
    "explore-search": {
        "seed0": "b088d561d576eaebd4f4afb4467c2175b33f9cc46154321e5c918b36729f38cd",
        "seed1": "b8fef8dbb372cfd21546cc2aec440804186fbd8abaa29f623c3dfe1ee06be588",
        "seed2": "4bb2b408e8454510e291415a70fb57b1361a7b3461504e205d66ad4e6fc22073",
    },
}


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, bad inputs)."""


def ensure_package():
    """Put the checkout's ``src`` first on sys.path; fail if it is missing."""
    if not (SRC / "compactdet" / "__init__.py").is_file():
        raise BenchSetupError(f"no compactdet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def blas_runtime() -> str:
    """OpenBLAS build string and thread count as the loaded library reports them."""
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return "unknown"
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if config is not None and threads is not None:
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return f"{' '.join(config().decode().split())}; threads {threads()}"
    return "unknown"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> tuple:
    """Call compactdet.cli.main(argv); returns (exit code, stdout, stderr)."""
    from compactdet import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the command would die with a traceback: exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def bundled_text(name: str) -> str:
    return (SRC / "compactdet" / "configs" / name).read_text()


def check_detect_text(text: str, image_id: str) -> str:
    """Return why a detect output is malformed, or '' when it is well formed."""
    from compactdet import detection

    try:
        parsed = detection.parse_detections(text)
    except detection.DetectionFormatError as exc:
        return f"unparsable output: {exc}"
    if set(parsed) - {image_id}:
        return f"unexpected image ids {sorted(set(parsed) - {image_id})}"
    for det in parsed.get(image_id, []):
        if not (math.isfinite(det.score) and CONF <= det.score <= 1.0):
            return f"score {det.score!r} outside [{CONF}, 1]"
    return ""


class Workload:
    """One operation type, its inputs and its reference outputs.

    ``prepare`` writes the inputs into a directory; ``warm_up`` runs every
    distinct operation once and keeps its outputs as the reference; ``run``
    performs operation i and ``check`` says why its output is wrong, if it is.
    Subclasses supply ``keys``, ``prepare``, ``run``, ``validate`` (is the
    output well formed) and ``digest`` (what must repeat exactly).
    """

    name = ""
    ops_per_call = 1  # units of work per operation, for throughput
    calibration = ("python",)  # calibrate slice kinds that track this work's speed
    blas_dependent = False  # do outputs go through float32 matmuls

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = None
        self.reference = {}   # key -> digest
        self.warmup_errors = {}

    def pinned(self) -> dict:
        if self.seed != DEFAULT_SEED:
            return {}
        if self.blas_dependent and blas_runtime() != PINNED_BLAS:
            return {}
        return PINNED_DIGESTS[self.name]

    def keys(self) -> list:
        raise NotImplementedError

    def key(self, i: int):
        keys = self.keys()
        return keys[i % len(keys)]

    def prepare(self, directory: Path):
        raise NotImplementedError

    def run(self, i: int) -> int:
        raise NotImplementedError

    def validate(self, i: int, rc: int) -> str:
        raise NotImplementedError

    def digest(self, i: int) -> str:
        raise NotImplementedError

    def regime_error(self) -> str:
        """Why the warm-up outputs fall outside this workload's regime, or ''."""
        return ""

    def warm_up(self, between=lambda: None):
        """Run each distinct operation once and record its output digests.

        ``between`` is called after each operation.
        """
        for i, key in enumerate(self.keys()):
            rc = self.run(i)
            between()
            why = self.validate(i, rc)
            if why:
                self.warmup_errors[key] = why
            else:
                self.reference[key] = self.digest(i)
        self.pin_check()

    def pin_check(self):
        for key, want in self.pinned().items():
            have = self.reference.get(key)
            if have is not None and have != want:
                self.warmup_errors[key] = f"warm-up digest {have[:12]} != pinned {want[:12]}"
                self.reference[key] = None

    def check(self, i: int, rc: int) -> str:
        key = self.key(i)
        if self.reference.get(key) is None:
            return f"no valid reference for {key}: {self.warmup_errors.get(key, 'missing')}"
        why = self.validate(i, rc)
        if why:
            return why
        if self.digest(i) != self.reference[key]:
            return "output differs from the warm-up output"
        return ""


class DetectWorkload(Workload):
    """``compactdet detect`` on reference.cfg over seeded noise PPM frames."""

    bits = 32
    blas_dependent = True
    calibration = ("python", "numpy")  # NMS and decode; the forward pass
    min_kept, max_kept = 0, math.inf  # boxes per frame in the warm-up outputs

    def keys(self) -> list:
        return [f"frame{k}" for k in range(len(FRAME_SIZES))]

    def prepare(self, directory: Path):
        import numpy as np
        from compactdet import arch_graph, cli, complexity

        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "reference.cfg"
        self.config.write_text(bundled_text("reference.cfg"))
        spec = arch_graph.parse_network_spec(self.config.read_text())
        store = arch_graph.WeightStore.random(spec, seed=MODEL_SEED)
        self.adjust_weights(spec, store)
        f32 = self.dir / "model-f32.w"
        complexity.save_weights(f32, spec, store, bits=32)
        self.weights = f32
        if self.bits == 8:
            self.weights = self.dir / "model-8bit.w"
            rc, _out, err = run_cli([
                "quantize", "--config", str(self.config), "--weights", str(f32),
                "--out", str(self.weights),
            ])
            if rc != 0:
                raise BenchSetupError(f"quantize failed with exit {rc}: {err.strip()}")
        rng = np.random.default_rng(self.seed)
        self.frames = []
        for key, (h, w) in zip(self.keys(), FRAME_SIZES):
            path = self.dir / f"{key}.ppm"
            cli.write_ppm(path, rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
            self.frames.append(path)

    def adjust_weights(self, spec, store):
        """Hook for weight recipes; the dense workload uses the raw draw."""

    def out_path(self, i: int) -> Path:
        return self.dir / f"{self.key(i)}.txt"

    def argv(self, i: int) -> list:
        return [
            "detect", "--config", str(self.config), "--weights", str(self.weights),
            "--image", str(self.frames[i % len(self.frames)]), "--out", str(self.out_path(i)),
            "--conf", str(CONF), "--nms-iou", str(NMS_IOU),
        ]

    def run(self, i: int) -> int:
        path = self.out_path(i)
        if path.exists():
            path.unlink()
        rc, _out, _err = run_cli(self.argv(i))
        return rc

    def text(self, i: int) -> str:
        path = self.out_path(i)
        return path.read_text() if path.exists() else ""

    def validate(self, i: int, rc: int) -> str:
        if rc != 0:
            return f"exit code {rc}"
        return check_detect_text(self.text(i), self.key(i))

    def digest(self, i: int) -> str:
        return sha256(self.text(i))

    def detections(self, i: int) -> int:
        return sum(1 for line in self.text(i).splitlines() if line.strip())

    def regime_error(self) -> str:
        for i in range(len(self.frames)):
            kept = self.detections(i)
            if not self.min_kept <= kept <= self.max_kept:
                return f"{self.key(i)} kept {kept} boxes, outside [{self.min_kept}, {self.max_kept}]"
        return ""


class DenseDetect(DetectWorkload):
    """Raw random f32 weights: saturated logits, thousands of candidates."""

    name = "detect-dense"
    # Kept boxes bound candidates from below; the traced run checks
    # candidates >= 1000 directly.
    min_kept = 500


class SparseDetect(DetectWorkload):
    """Rescaled heads, lowered objectness bias, 8-bit: tens of candidates."""

    name = "detect-sparse"
    bits = 8
    max_kept = 200

    def adjust_weights(self, spec, store):
        import numpy as np
        from compactdet import arch_graph, detection

        calibration = np.random.default_rng(MODEL_SEED).integers(
            0, 256, size=(*spec.input_shape[1:], 3), dtype=np.uint8
        )
        tensor, _ = detection.letterbox_image(calibration, spec.input_shape[1:])
        grids = dict(zip(arch_graph.SCALE_TAGS, arch_graph.execute(spec, store, tensor)))
        tag_of = {n.input_id: n.op.scale_tag for n in spec.detect_nodes()}
        per_anchor = 5 + spec.num_classes
        for node_id in sorted(arch_graph.linear_conv_ids(spec)):
            head = store.params[node_id]
            spread = float(grids[tag_of[node_id]].std())
            head.kernel[...] *= np.float32(1.0 / spread)
            head.bias[...] = 0.0
            head.bias[4::per_anchor] = SPARSE_OBJECTNESS_BIAS


_BEST_LINE = re.compile(r"^best: u \S+ score \S+ ops (\d+) params (\d+) point ", re.M)


class ExploreSearch(Workload):
    """``compactdet explore`` on the bundled prototype and design space."""

    name = "explore-search"

    def __init__(self, seed: int, budget: int = EXPLORE_BUDGET):
        super().__init__(seed)
        self.budget = budget
        self.ops_per_call = budget
        self.stdout = {}

    def keys(self) -> list:
        return [f"seed{self.seed + k}" for k in range(EXPLORE_SEEDS)]

    def prepare(self, directory: Path):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.proto = self.dir / "explore-proto.cfg"
        self.space = self.dir / "explore-space.txt"
        self.proto.write_text(bundled_text("explore-proto.cfg"))
        self.space.write_text(bundled_text("explore-space.txt"))

    def paths(self, i: int) -> tuple:
        key = self.key(i)
        return self.dir / f"best-{key}.cfg", self.dir / f"best-{key}.log"

    def run(self, i: int) -> int:
        best, log = self.paths(i)
        for path in (best, log):
            if path.exists():
                path.unlink()
        rc, out, _err = run_cli([
            "explore", "--config", str(self.proto), "--space", str(self.space),
            "--out", str(best), "--log", str(log), "--budget", str(self.budget),
            "--seed", str(self.seed + i % EXPLORE_SEEDS), "--max-ops", str(EXPLORE_MAX_OPS),
        ])
        self.stdout[i % EXPLORE_SEEDS] = out
        return rc

    def files(self, i: int) -> tuple:
        best, log = self.paths(i)
        return (
            self.stdout.get(i % EXPLORE_SEEDS, ""),
            best.read_text() if best.exists() else "",
            log.read_text() if log.exists() else "",
        )

    def validate(self, i: int, rc: int) -> str:
        from compactdet import arch_graph, complexity

        if rc != 0:
            return f"exit code {rc}"
        out, best, log = self.files(i)
        match = _BEST_LINE.search(out)
        if not match:
            return "no best line on stdout"
        ops = int(match.group(1))
        if ops > EXPLORE_MAX_OPS:
            return f"best point has {ops} ops, above --max-ops {EXPLORE_MAX_OPS}"
        try:
            spec = arch_graph.parse_network_spec(best)
        except arch_graph.ParseError as exc:
            return f"best config does not parse: {exc}"
        if complexity.count_network(spec).total_ops != ops:
            return "best config's counted ops differ from the reported ops"
        log_lines = [line for line in log.splitlines() if line and not line.startswith("#")]
        if len(log_lines) != self.budget:
            return f"log has {len(log_lines)} evaluations, expected {self.budget}"
        return ""

    def digest(self, i: int) -> str:
        return sha256("\0".join(self.files(i)))


WORKLOADS = {cls.name: cls for cls in (DenseDetect, SparseDetect, ExploreSearch)}
