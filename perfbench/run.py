"""Benchmark for mambafuse: closed-loop training and inference workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_tiny128 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 1

One run measures one workload (see workloads.py) in this process, as a
single client: the next training step or image pair starts when the last one
has finished.  The seed picks the synthetic scenes and the model weights.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped:

    setup_s      imports plus the median of three set-ups (data, model or
                 checkpoint, one untimed warm-up operation)
    step_ms_min  the fastest timed operation: a training step, or one image
                 pair through read, predict, decode and NMS
    peak_rss_mb  peak resident memory of the process

Both times are scaled to a reference machine speed.  The same code runs up
to 1.5x slower for seconds to minutes at a time on a shared machine; a fixed
numpy kernel (workloads.SpeedProbe) is timed before each set-up and between
operations.  Set-up time is multiplied by the workload's probe_ref_ms over
the median probe taken during set-up; the best operation by probe_ref_ms
over the run's best probe, as the best operation and the best probe are the two least disturbed
samples.  Raw wall times (min, median, p90 when there are 100 operations)
are printed too.

``--trace 1`` wraps every layer (see spans.py), times the first 40% of the
run without wrappers and the rest with them, prints a per-layer table,
writes the last operation's spans as Chrome trace-event JSON under
perfbench/out/, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record goes
to perfbench/out/result-<workload>-seed<n>-trace<t>.json.
"""

import os
from time import perf_counter

T_START = perf_counter()

# pin the BLAS pool before numpy is first imported: its thread count changes
# both timings and results
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# end-to-end metrics, reported by every workload (one op = one training step
# or one image pair); times are scaled to the reference machine speed
E2E_UNITS = {"setup_s": "s", "step_ms_min": "ms", "peak_rss_mb": "MB"}

# per-layer metrics, from the traced part of a --trace 1 run; times and
# calls are per op unless the name says otherwise
LAYER_TIMES = [
    ("ssm.ssm_scan_core", ("fwd", "bwd", "calls")),
    ("ssm.MambaBlock", ("fwd",)),
    ("ssm.FusionMambaBlock", ("fwd",)),
    ("autodiff.conv2d", ("fwd", "bwd", "calls")),
    ("autodiff.grid_sample_taps", ("fwd", "bwd")),
    ("deformable.deformable_conv2d", ("fwd",)),
    ("autodiff.matmul", ("fwd", "bwd")),
    ("attention.cross_enhanced_spatial", ("fwd",)),
    ("attention.cross_channel_fuse", ("fwd",)),
    ("network.FFAR", ("fwd", "bwd")),
    ("network.MDTMB", ("fwd", "bwd")),
    ("detect.DNM", ("fwd", "bwd")),
    ("detect.DetectHead", ("fwd", "bwd")),
    ("autodiff.backward", ("ms", "self")),
    ("detect.assign_targets", ("ms",)),
    ("detect.total_loss", ("ms",)),
    ("train.compute_batch_loss", ("ms",)),
    ("train.SGD.step", ("ms",)),
    ("train.SGD.clip_grad_norm", ("ms",)),
    ("detect.decode_boxes", ("ms",)),
    ("detect.nms", ("ms",)),
    ("data.read_ppm", ("ms",)),
    ("data.read_pgm", ("ms",)),
    ("model.Detector.predict_np", ("ms",)),
]
# four_way_scan's own traversal work: direction flatten/unflatten, concat and
# merge, i.e. its forward time outside the scan core and the projections
TRAVERSAL_EXCLUDES = ("ssm.ssm_scan_core", "ssm.SsmParams.derive", "ssm.SsmParams.neg_A")
# set-up layers: mean ms per call over the whole run
SETUP_LAYERS = ("data.synth_dataset", "data.load_dataset", "model.build_detector",
                "checkpoint.save", "checkpoint.load")
_SUFFIX = {"fwd": ("fwd_ms", "ms"), "bwd": ("bwd_ms", "ms"), "self": ("self_ms", "ms"),
           "ms": ("ms", "ms"), "calls": ("calls", "count")}


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer, kinds in LAYER_TIMES:
        for k in kinds:
            suffix, unit = _SUFFIX[k]
            units[f"{layer}.{suffix}"] = unit
    units.update({
        "ssm.four_way_scan.traversal_ms": "ms",
        "autodiff.tape_nodes": "count",
        "train.compute_batch_loss.concurrency": "ratio",
        "detect.nms.candidates": "count",
        "detect.nms.kept_ratio": "ratio",
        "ssm.ssm_scan_core.share": "ratio",
        "autodiff.conv2d.bwd_share": "ratio",
    })
    for layer in SETUP_LAYERS:
        units[f"{layer}.ms"] = "ms"
    units.update({
        "trace.op_ms_min": "ms",
        "trace.overhead_ms": "ms",
        "trace.probe_ms": "ms",
        "train.loss_final": "loss",
        "model.params": "count",
        "model.tensors": "count",
        "src.loc": "count",
    })
    return units


def environment() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "mambafuse").glob("*.py")))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_ops(out) -> list:
    return out.op_times if out.traced_from is None else out.op_times[:out.traced_from]


def speed_scales(clock, probe_ref_ms: float) -> tuple[float, float]:
    """Factors that convert times measured in this run to the reference
    machine speed: for set-up, by the median probe taken during set-up; for
    the timed phase, by the run's best probe."""
    ref = probe_ref_ms / 1000.0
    return (ref / statistics.median(clock.setup_probes), ref / min(clock.probe.times))


def end_to_end(out, import_s: float, setup_scale: float, op_scale: float) -> dict:
    return {
        "setup_s": setup_scale * (import_s + statistics.median(out.setup_times)),
        "step_ms_min": op_scale * 1000.0 * min(untraced_ops(out)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(out, tracer, probe_times) -> tuple[dict, dict]:
    first = out.traced_from
    traced_ops = list(range(first + 1, len(out.op_times) + 1)) if first is not None else []
    n = len(traced_ops)
    if n == 0:
        raise RuntimeError("the run ended before any traced operation; raise --seconds")
    rows = spans.layer_table(tracer.spans, traced_ops)
    traced_times = out.op_times[first:]
    op_s = sum(traced_times)
    blank = {"calls": 0, "fwd": 0.0, "bwd": 0.0, "self": 0.0, "counts": {}}
    m = {}
    for layer, kinds in LAYER_TIMES:
        r = rows.get(layer, blank)
        for k in kinds:
            suffix, _ = _SUFFIX[k]
            if k == "calls":
                m[f"{layer}.{suffix}"] = r["calls"] / n
            else:
                m[f"{layer}.{suffix}"] = 1000.0 * r["fwd" if k == "ms" else k] / n
    counts = lambda name: rows.get(name, blank)["counts"]  # noqa: E731
    m["ssm.four_way_scan.traversal_ms"] = 1000.0 * spans.time_outside(
        tracer.spans, traced_ops, "ssm.four_way_scan", TRAVERSAL_EXCLUDES) / n
    m["autodiff.tape_nodes"] = counts("autodiff.backward").get("tape_nodes", 0) / n
    m["train.compute_batch_loss.concurrency"] = statistics.mean(
        spans.concurrency(tracer.spans, op) for op in traced_ops)
    cand = counts("detect.nms").get("candidates", 0)
    m["detect.nms.candidates"] = cand / n
    m["detect.nms.kept_ratio"] = counts("detect.nms").get("kept", 0) / cand if cand else 0.0
    scan = rows.get("ssm.ssm_scan_core", blank)
    conv = rows.get("autodiff.conv2d", blank)
    m["ssm.ssm_scan_core.share"] = (scan["fwd"] + scan["bwd"]) / op_s
    m["autodiff.conv2d.bwd_share"] = conv["bwd"] / op_s
    all_rows = spans.layer_table(tracer.spans)
    for layer in SETUP_LAYERS:
        r = all_rows.get(layer, blank)
        m[f"{layer}.ms"] = 1000.0 * r["fwd"] / r["calls"] if r["calls"] else 0.0
    # raw wall times of the traced and the untraced part of one run; the best
    # op of each, as the machine's speed can change between the two parts
    m["trace.op_ms_min"] = 1000.0 * min(traced_times)
    m["trace.overhead_ms"] = m["trace.op_ms_min"] - 1000.0 * min(untraced_ops(out))
    m["trace.probe_ms"] = 1000.0 * min(probe_times)
    m["train.loss_final"] = out.loss_final if out.loss_final is not None else 0.0
    m["model.params"] = out.counts["params"]
    m["model.tensors"] = out.counts["tensors"]
    m["src.loc"] = src_loc()
    return m, rows


def print_layer_table(rows, n_ops: int, op_s: float, limit: int = 40) -> None:
    print(f"{'layer':<40} {'calls':>8} {'fwd_ms':>9} {'bwd_ms':>9} "
          f"{'self_ms':>9} {'share':>7}   (per op over {n_ops} traced ops; share of "
          f"op wall time, above 100% where threads overlap)")
    ranked = sorted(rows.items(), key=lambda kv: -(kv[1]["fwd"] + kv[1]["bwd"]))
    for name, r in ranked[:limit]:
        share = (r["fwd"] + r["bwd"]) / op_s if op_s else 0.0
        print(f"{name:<40} {r['calls'] / n_ops:>8.1f} {1000 * r['fwd'] / n_ops:>9.2f} "
              f"{1000 * r['bwd'] / n_ops:>9.2f} {1000 * r['self'] / n_ops:>9.2f} "
              f"{100 * share:>6.1f}%")


def run_one(args, import_s: float) -> int:
    import workloads as wl

    spec = wl.WORKLOADS[args.workload]
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{spec.name}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    clock = wl.Clock(args.seconds, wl.SpeedProbe(spec.scan_block()), tracer)
    out = wl.Outcome()
    try:
        if spec.kind == "train":
            wl.run_train(spec, args.seed, workdir, clock, out)
        else:
            wl.run_infer(spec, args.seed, workdir, clock, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if not out.op_times:
        print("error: no operation finished within --seconds", file=sys.stderr)
        return 1

    probe_times = clock.probe.times
    setup_scale, op_scale = speed_scales(clock, spec.probe_ref_ms)
    e2e = end_to_end(out, import_s, setup_scale, op_scale)
    ops = untraced_ops(out)
    counts = dict(out.counts, src_loc=src_loc())
    print("counts " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"speed  best probe {1000 * min(probe_times):.2f} ms of "
          f"{len(probe_times)} (reference {spec.probe_ref_ms} ms): times below are "
          f"scaled by {setup_scale:.4f} (set-up) and {op_scale:.4f} (ops)")
    print(f"metric setup_s {e2e['setup_s']:.4f} s (median of {len(out.setup_times)} "
          f"set-ups, imports {import_s:.3f} s, raw "
          f"{import_s + statistics.median(out.setup_times):.4f} s)")
    print(f"metric step_ms_min {e2e['step_ms_min']:.3f} ms (best of n={len(ops)} ops; "
          f"one op = {'one training step' if spec.kind == 'train' else 'one image pair'})")
    print(f"info   raw wall ms per op: min {1000 * min(ops):.3f} "
          f"p50 {1000 * statistics.median(ops):.3f}"
          + (f" p90 {1000 * wl.percentile(ops, 90):.3f}" if len(ops) >= 100 else "")
          + f" (n={len(ops)})")
    print(f"info   raw pairs_per_s {out.samples_per_op * len(ops) / sum(ops):.4f} "
          f"({out.samples_per_op} image pairs per op)")
    print(f"metric peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    if out.loss_final is not None:
        print(f"info   loss_final {out.loss_final:.6f}")
    print(f"info   failed_ops_share {out.failed}/{out.attempted}")
    for err in out.errors:
        print(f"check failed: {err}")

    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if tracer is not None:
        layer_metrics, rows = per_layer(out, tracer, probe_times)
        traced_ops = range(out.traced_from + 1, len(out.op_times) + 1)
        print_layer_table(rows, len(traced_ops), sum(out.op_times[out.traced_from:]))
        units = per_layer_units()
        for name, unit in units.items():
            print(f"layer  {name} {layer_metrics[name]:.6g} {unit}")
        trace_path = OUT / f"trace-{spec.name}-seed{args.seed}.json"
        spans.write_chrome_trace(trace_path, tracer.spans, traced_ops[-1])
        print(f"chrome trace of op {traced_ops[-1]}: {trace_path.relative_to(ROOT)}")
        metrics = {k: {"value": layer_metrics[k], "unit": u} for k, u in units.items()}

    result = {"correct": out.failed == 0 and out.checks_ok,
              "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    record = dict(result, workload=spec.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, counts=counts,
                  op_ms=[1000.0 * t for t in out.op_times], traced_from=out.traced_from,
                  setup_s=out.setup_times, probe_ms=[1000.0 * t for t in probe_times],
                  errors=out.errors)
    with open(OUT / f"result-{spec.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Run every workload, each in its own process, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "mambafuse" / "__init__.py").is_file():
        print(f"error: no mambafuse sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import_s = perf_counter() - T_START
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
