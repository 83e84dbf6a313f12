"""The benchmark's closed-loop workloads and their output checks.

Every workload is a single client in one process: the next training step
or image pair starts only after the previous one has finished.  The
workload seed picks the synthetic scenes and the model initialisation; the
program only sees the generated files and configs.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from mambafuse import checkpoint, data, detect
from mambafuse import model as model_mod
from mambafuse.config import ModelConfig, TrainConfig, tiny_config

# `from mambafuse import train` gives the function, not the module
train_mod = importlib.import_module("mambafuse.train")
# program functions are called through their modules' attributes, so the
# tracer's wrappers are seen when installed

SCENES = 8            # synthetic image pairs per workload
RECIPE_STEPS = 400    # lr schedule length of the pinned overfit recipe
INFER_CONF = 0.005    # below every score of an untrained head (~0.01), so
                      # every pair hands all anchors to NMS as candidates
INFER_NMS_IOU = 0.5
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups
PROBE_SHARE = 0.05    # share of the timed phase spent on speed probes


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                 # "train" or "infer"
    model: Callable[[], ModelConfig]
    size: int
    # the speed probe's best time on the machine the benchmark was defined on
    # (2-core Intel Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS); reported
    # times are scaled to this speed
    probe_ref_ms: float
    batch: int = 1
    threads: int = 1

    def scan_block(self) -> tuple:
        """Shape [4*batch, L, D, N] of the state of the four-way scans at
        the FFAR level, the largest arrays a step or pair sweeps over."""
        cfg = self.model()
        side = self.size // cfg.ffar_stride
        return (4 * self.batch, side * side, cfg.base_width * cfg.ssm_expand, cfg.ssm_state)


WORKLOADS = {s.name: s for s in (
    Spec("train_tiny128", "train", tiny_config, 128, batch=8, probe_ref_ms=18.0),
    Spec("train_default64", "train", lambda: ModelConfig(input_size=64), 64, batch=2,
         probe_ref_ms=12.5),
    Spec("train_tiny128_threads2", "train", tiny_config, 128, batch=8, threads=2,
         probe_ref_ms=18.0),
    Spec("infer_tiny128", "infer", tiny_config, 128, probe_ref_ms=12.5),
)}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


@dataclass
class Outcome:
    """What one run measured; times are in seconds."""
    setup_times: list = field(default_factory=list)
    op_times: list = field(default_factory=list)   # timed ops, in order
    traced_from: int | None = None                 # index of first traced op
    samples_per_op: int = 1
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    checks_ok: bool = True
    counts: dict = field(default_factory=dict)
    loss_final: float | None = None

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


class SpeedProbe:
    """A fixed kernel, independent of mambafuse, timed between operations to
    follow the machine's speed.

    On a shared machine the same code runs up to 2x slower for seconds to
    minutes at a time, and code with a larger working set slows more.  The
    probe mixes what the workloads spend time on: elementwise passes and a
    gather over a block shaped like the workload's scan state (so it meets
    the same cache and memory pressure), an im2col-shaped matmul, many small
    array ops, and interpreter work.  Its times say how fast the machine was,
    so reported times can be scaled to a fixed reference speed (see run.py)."""

    def __init__(self, block_shape):
        rng = np.random.default_rng(0)
        self.block = rng.standard_normal(block_shape).astype(np.float32)
        self.cols = rng.standard_normal((8192, 98)).astype(np.float32)
        self.wmat = rng.standard_normal((98, 8)).astype(np.float32)
        self.idx = rng.integers(0, self.block.size, 200_000)
        self.small = rng.standard_normal((16, 32, 32)).astype(np.float32)
        self.square = rng.standard_normal((128, 128)).astype(np.float32)
        self.times: list = []
        self()                    # the first call pays for page faults
        self.times.clear()

    def __call__(self) -> None:
        t0 = perf_counter()
        e = np.exp(self.block * 0.1) * self.block + self.block
        e.ravel()[self.idx].sum()
        y = self.cols @ self.wmat
        g = self.cols.T @ y
        acc = 0
        for i in range(60_000):
            acc += i * i
        x = self.small
        for _ in range(150):
            x = np.exp(x * 0.01) + self.small
        for _ in range(30):
            g = self.square @ self.square
        self.times.append(perf_counter() - t0)


class _Done(Exception):
    """Raised from the train log callback to end a training run."""


class Clock:
    """Deadline for the timed phase, speed probes between operations, and
    when a traced run starts tracing.

    A traced run traces its set-up, times the first ``untraced_share`` of
    ``seconds`` with the tracer removed, then re-installs it for the rest,
    so one run gives both the per-layer numbers and the tracing overhead."""

    def __init__(self, seconds: float, probe: SpeedProbe, tracer=None,
                 untraced_share: float = 0.4):
        self.seconds = seconds
        self.probe = probe
        self.tracer = tracer
        self.untraced_share = untraced_share
        self.start = None
        self.tracing = tracer is not None
        self.setup_probes: list = []

    def begin(self) -> None:
        """Start the timed phase; the probes so far were taken in set-up."""
        self.setup_probes = list(self.probe.times)
        self.start = perf_counter()
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracing = False

    def before_op(self, op_id, outcome: Outcome) -> None:
        # probe between ops until probes fill PROBE_SHARE of the timed phase:
        # several per op when ops are long, one every few ops when short
        done = len(self.setup_probes)
        while sum(self.probe.times[done:]) < PROBE_SHARE * (perf_counter() - self.start):
            self.probe()
        if self.tracer is None:
            return
        if not self.tracing and perf_counter() - self.start >= self.seconds * self.untraced_share:
            self.tracer.install()
            self.tracing = True
            outcome.traced_from = len(outcome.op_times)
        self.tracer.op = op_id

    def done(self) -> bool:
        return perf_counter() - self.start >= self.seconds

    def end(self) -> None:
        """Mark what follows (the output checks) as outside every op."""
        if self.tracer is not None:
            self.tracer.op = "teardown"


def _model_counts(model) -> dict:
    named = list(model.named_parameters())
    return {"params": int(sum(p.data.size for _, p in named)), "tensors": len(named)}


# ---------------------------------------------------------------------------
# training

def check_loss_line(line: str, step: int) -> str | None:
    """None if ``line`` is a well-formed ``step total cls box dfl lr`` log
    line for ``step`` with a finite total loss, else the reason."""
    parts = line.split()
    if len(parts) != 6:
        return f"step {step}: malformed log line {line!r}"
    try:
        if int(parts[0]) != step:
            return f"step {step}: log line numbered {parts[0]}"
        values = [float(x) for x in parts[1:]]
    except ValueError:
        return f"step {step}: unparsable log line {line!r}"
    if not all(math.isfinite(v) for v in values):
        return f"step {step}: non-finite loss in {line!r}"
    return None


def check_checkpoint(path, model) -> str | None:
    """Save the model, reload it through checkpoint.load, and compare tensor
    names, order and float32 bits."""
    state = model.state_dict()
    checkpoint.save(path, state)
    back = checkpoint.load(path)
    if list(back) != list(state):
        return "checkpoint tensor names differ after reload"
    for name, arr in state.items():
        if arr.dtype != np.float32 or back[name].dtype != np.float32:
            return f"checkpoint tensor {name!r} is not float32"
        if back[name].shape != arr.shape or back[name].tobytes() != arr.tobytes():
            return f"checkpoint tensor {name!r} differs after reload"
    return None


def run_train(spec: Spec, seed: int, workdir: Path, clock: Clock,
              out: Outcome, log_lines: list | None = None) -> None:
    cfg = spec.model()
    tc = TrainConfig(steps=RECIPE_STEPS, seed=seed, batch_size=spec.batch,
                     threads=spec.threads)
    data_dir = workdir / "data"
    out.samples_per_op = spec.batch
    model = None
    for rep in range(SETUP_REPEATS):
        timed = rep == SETUP_REPEATS - 1
        clock.probe()
        t0 = perf_counter()
        data.synth_dataset(seed, SCENES, spec.size, data_dir)
        model = model_mod.build_detector(cfg, seed=seed)
        state = {"t": t0, "step": 0}

        def log(line, timed=timed, state=state):
            now = perf_counter()
            step = state["step"]
            if log_lines is not None:
                log_lines.append(line)
            if step == 0:
                # step 0 is the untimed warm-up that ends a set-up
                out.setup_times.append(now - state["t"])
                if not timed:
                    raise _Done
                clock.begin()
            else:
                out.attempted += 1
                out.op_times.append(now - state["t"])
                err = check_loss_line(line, step)
                if err:
                    out.fail(err)
                else:
                    out.loss_final = float(line.split()[1])
            state["step"] = step + 1
            if clock.done():
                raise _Done
            clock.before_op(step + 1, out)
            state["t"] = perf_counter()

        try:
            train_mod.train(cfg, tc, data_dir, None, log=log, model=model)
        except _Done:
            pass
        except train_mod.NumericError as e:
            out.attempted += 1
            out.fail(f"step {state['step']}: {e}")
    clock.end()
    err = check_checkpoint(workdir / "model.ckpt", model)
    if err:
        out.checks_ok = False
        out.errors.append(err)
    out.counts.update(_model_counts(model))


# ---------------------------------------------------------------------------
# inference

def infer_pair(model, cfg: ModelConfig, rgb_path: Path, ir_path: Path) -> list[str]:
    """The `mambafuse infer` path for one image pair: read, predict, decode
    with NMS, format detection lines."""
    rgb = data.read_ppm(rgb_path)
    ir = data.read_pgm(ir_path)
    preds = model.predict_np(rgb[None], ir[None])
    dets = detect.decode_boxes(preds, cfg, conf_threshold=INFER_CONF, iou_nms=INFER_NMS_IOU)[0]
    image_id = rgb_path.stem[:-4] if rgb_path.stem.endswith("_rgb") else rgb_path.stem
    return [f"{image_id} {d.class_id} {d.confidence:.6f} "
            f"{d.cx:.6f} {d.cy:.6f} {d.w:.6f} {d.h:.6f}" for d in dets]


def check_detection_lines(lines: list[str], num_classes: int) -> str | None:
    """Every field finite; centre inside the image ([0,1]); positive size;
    a valid class; confidence in [INFER_CONF, 1]."""
    if not lines:
        return "no detections although every anchor is a candidate"
    for line in lines:
        parts = line.split()
        if len(parts) != 7:
            return f"malformed detection line {line!r}"
        cls = int(parts[1])
        conf, cx, cy, w, h = (float(x) for x in parts[2:])
        if not all(math.isfinite(v) for v in (conf, cx, cy, w, h)):
            return f"non-finite detection {line!r}"
        if not (0 <= cls < num_classes):
            return f"class out of range in {line!r}"
        if not (INFER_CONF <= conf <= 1.0):
            return f"confidence outside [{INFER_CONF}, 1] in {line!r}"
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            return f"box centre outside the image in {line!r}"
        if not (w > 0 and h > 0):
            return f"non-positive box size in {line!r}"
    return None


def run_infer(spec: Spec, seed: int, workdir: Path, clock: Clock, out: Outcome) -> None:
    cfg = spec.model()
    data_dir = workdir / "data"
    ckpt = workdir / "model.ckpt"
    pairs = [(data_dir / f"scene_{i:03d}_rgb.ppm", data_dir / f"scene_{i:03d}_ir.pgm")
             for i in range(SCENES)]
    first_lines: dict = {}
    model = None
    for rep in range(SETUP_REPEATS):
        clock.probe()
        t0 = perf_counter()
        data.synth_dataset(seed, SCENES, spec.size, data_dir)
        checkpoint.save(ckpt, model_mod.build_detector(cfg, seed=seed).state_dict())
        # as `mambafuse infer` does: build, then load the checkpoint into it
        model = model_mod.build_detector(cfg, seed=seed)
        model.load_state_dict(checkpoint.load(ckpt))
        first_lines[0] = infer_pair(model, cfg, *pairs[0])   # warm-up
        out.setup_times.append(perf_counter() - t0)
    clock.begin()
    op = 0
    while not clock.done():
        op += 1
        clock.before_op(op, out)
        k = op % SCENES
        t0 = perf_counter()
        lines = infer_pair(model, cfg, *pairs[k])
        out.op_times.append(perf_counter() - t0)
        out.attempted += 1
        err = check_detection_lines(lines, cfg.num_classes)
        if err is None and first_lines.setdefault(k, lines) != lines:
            err = f"pair {k}: detection lines differ from its first run"
        if err:
            out.fail(f"pair op {op}: {err}")
    out.counts.update(_model_counts(model))
