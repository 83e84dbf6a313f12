"""Command-line entry point.

Subcommands: synth, train, infer, eval, viz, check.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from . import checkpoint
from .autodiff import ConfigError, UsageError, precision
from .checkpoint import CheckpointError
from .checks import run_checks
from .config import SEED_MAX, ModelConfig, TrainConfig, load_config
from .data import load_dataset, read_pgm, read_ppm, synth_dataset
from .detect import DetectionBox, decode_boxes, eval_map
from .model import build_detector
from .train import train
from .viz import visualize_patches


def _configs(args) -> tuple[ModelConfig, TrainConfig]:
    if getattr(args, "config", None):
        mc, tc = load_config(args.config)
    else:
        mc, tc = ModelConfig(), TrainConfig()
    if getattr(args, "seed", None) is not None:
        tc.seed = args.seed
    return mc, tc


def _load_model(args, mc: ModelConfig, seed: int):
    model = build_detector(mc, seed=seed)
    if args.ckpt:
        state = checkpoint.load(args.ckpt)
        model.load_state_dict(state)
    return model


def cmd_synth(args) -> int:
    synth_dataset(args.seed if args.seed is not None else 0, args.n, args.size,
                  args.data)
    return 0


def cmd_train(args) -> int:
    mc, tc = _configs(args)
    if args.steps is not None:
        tc.steps = args.steps
    log_file = open(args.log, "w") if args.log else None

    def log(line):
        print(line)
        if log_file:
            log_file.write(line + "\n")

    try:
        train(mc, tc, args.data, args.ckpt, log=log)
    finally:
        if log_file:
            log_file.close()
    return 0


def cmd_infer(args) -> int:
    mc, tc = _configs(args)
    model = _load_model(args, mc, tc.seed)
    rgb = read_ppm(args.rgb)
    ir = read_pgm(args.ir)
    for path, img in ((args.rgb, rgb), (args.ir, ir)):
        if img.shape[1:] != (mc.input_size, mc.input_size):
            raise ConfigError(f"{path} is {img.shape[2]}x{img.shape[1]} px, but boxes "
                              f"are decoded for input_size={mc.input_size}")
    preds = model.predict_np(rgb[None], ir[None])
    dets = decode_boxes(preds, mc, conf_threshold=args.conf, iou_nms=args.nms_iou)[0]
    image_id = Path(args.rgb).stem
    if image_id.endswith("_rgb"):
        image_id = image_id[:-4]
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for d in dets:
            out.write(f"{image_id} {d.class_id} {d.confidence:.6f} "
                      f"{d.cx:.6f} {d.cy:.6f} {d.w:.6f} {d.h:.6f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_eval(args) -> int:
    ids, _, _, gts = load_dataset(args.data)
    id_index = {s: i for i, s in enumerate(ids)}
    dets_per_image: list[list[DetectionBox]] = [[] for _ in ids]
    with open(args.dets) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            image_id = parts[0]
            if image_id not in id_index:
                raise UsageError(f"unknown image id {image_id!r} in detections")
            if len(parts) != 7:
                raise IOError(f"{args.dets} line {lineno}: expected 7 fields, "
                              f"got {len(parts)}")
            try:
                cls = int(parts[1])
                conf, cx, cy, w, h = map(float, parts[2:])
            except ValueError as e:
                raise IOError(f"{args.dets} line {lineno}: {e}") from e
            # a nan confidence would make the ranking depend on line order
            if not all(map(math.isfinite, (conf, cx, cy, w, h))):
                raise IOError(f"{args.dets} line {lineno}: non-finite field in {line.strip()!r}")
            dets_per_image[id_index[image_id]].append(
                DetectionBox(cx, cy, w, h, cls, conf))
    aps, mAP = eval_map(dets_per_image, gts, iou_threshold=args.iou)
    for c in sorted(aps):
        print(f"class {c}: AP {aps[c]:.4f}")
    print(f"mAP@{args.iou:g}: {mAP:.4f}")
    return 0


def cmd_viz(args) -> int:
    mc, tc = _configs(args)
    model = _load_model(args, mc, tc.seed)
    rgb = read_ppm(args.rgb)
    ir = read_pgm(args.ir)
    visualize_patches(model, rgb, ir, args.out)
    return 0


def cmd_check(args) -> int:
    return 0 if run_checks() else 1


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an int no smaller than ``low`` and, given ``high``, no
    larger than it (argparse exits 2 otherwise)."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mambafuse",
                                description="RGB-IR fusion detector toolkit")
    p.add_argument("--f64", action="store_true", help="run in 64-bit precision")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ckpt=False, config=False, pair=False):
        sp.add_argument("--seed", type=_int_at_least(0, SEED_MAX), default=None)
        if config:
            sp.add_argument("--config", type=str, default=None,
                            help="key=value config file")
        if ckpt:
            sp.add_argument("--ckpt", type=str, required=True)
        if pair:
            sp.add_argument("--rgb", type=str, required=True, help="PPM image")
            sp.add_argument("--ir", type=str, required=True, help="PGM image")

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    common(sp)
    sp.add_argument("--data", type=str, required=True, help="output directory")
    sp.add_argument("--n", type=_int_at_least(1), default=8)
    sp.add_argument("--size", type=int, default=128)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("train", help="train on a dataset directory")
    common(sp, config=True)
    sp.add_argument("--data", type=str, required=True)
    sp.add_argument("--ckpt", type=str, required=True, help="checkpoint output")
    sp.add_argument("--steps", type=_int_at_least(1), default=None)
    sp.add_argument("--log", type=str, default=None, help="loss log file")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("infer", help="run detection on one RGB/IR pair")
    common(sp, ckpt=True, config=True, pair=True)
    sp.add_argument("--conf", type=float, default=0.6)
    sp.add_argument("--nms-iou", type=float, default=0.5)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("eval", help="score a detection file against a dataset")
    common(sp)
    sp.add_argument("--dets", type=str, required=True, help="detection lines file")
    sp.add_argument("--data", type=str, required=True)
    sp.add_argument("--iou", type=float, default=0.5)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("viz", help="render normal vs adaptive patch overlay")
    common(sp, ckpt=True, config=True, pair=True)
    sp.add_argument("--out", type=str, required=True, help="output PPM")
    sp.set_defaults(fn=cmd_viz)

    sp = sub.add_parser("check", help="run the invariant suite")
    common(sp)
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with precision("f64") if args.f64 else contextlib.nullcontext():
            return args.fn(args)
    except (ConfigError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, CheckpointError, UnicodeDecodeError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
