"""Acceptance suite: one test per top-level acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or in
captured output on failure) in addition to the usual pytest verdict.  The
heavy criteria (the small-dataset overfit run and the learned-offset check,
which both read one module-scoped training run) live at the end of the file.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import Tensor
from mambafuse.attention import cross_channel_fuse
from mambafuse.config import TrainConfig, tiny_config
from mambafuse.data import load_dataset, synth_dataset
from mambafuse.deformable import deformable_conv2d
from mambafuse.detect import (DNM, DetectionBox, SPPFMamba, box_iou,
                              decode_boxes, eval_map)
from mambafuse.network import Backbone
from mambafuse.ssm import (FusionMambaBlock, MambaBlock, scan_reference,
                           ssm_scan_core)
from mambafuse.train import train
from mambafuse.viz import first_stage_offsets, max_offset_magnitude


def rng(seed):
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(0))))


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(name, ok, detail=""):
    tail = f": {detail}" if detail else ""
    line = f"{'PASS' if ok else 'FAIL'} {name}{tail}"
    # emit past pytest's output capture so the criterion verdicts are
    # visible in a plain `pytest -v` log
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line)
    else:
        print(line)
    assert ok, f"{name}{tail}"


# ---------------------------------------------------------------------------
# criterion: full-scale benchmark numbers are documentation only


def test_fullscale_benchmark_targets_are_not_tested():
    # The published full-scale detection scores require a large aerial
    # benchmark and GPU-scale training; they are recorded in the README as
    # targets and deliberately asserted nowhere in this suite.
    report("fullscale-targets-documentation-only", True,
           "no test asserts full-scale benchmark scores")


# ---------------------------------------------------------------------------
# criterion: gradient suite, every differentiable op, f64, rel err < 1e-5


def test_gradient_suite_every_op_and_full_backbone():
    t0 = time.time()
    r = rng(101)
    r_dw = rng(103)   # the depthwise case's own stream: the others keep their inputs
    with ad.precision("f64"):
        def T(*shape):
            return Tensor(r.normal(size=shape))

        def Tpos(*shape):
            return Tensor(r.uniform(0.5, 1.5, size=shape))

        # arrays with well separated entries for ops with kinks at ties
        def Tsep(*shape, lo=-1.0, hi=1.0):
            n = int(np.prod(shape))
            vals = np.linspace(lo, hi, n)
            r.shuffle(vals)
            return Tensor(vals.reshape(shape))

        s = ad.sum_all
        cases = [
            ("add", lambda a, b: s(ad.add(a, b)), [T(3, 4), T(3, 4)]),
            ("add-broadcast", lambda a, b: s(ad.add(a, b)), [T(3, 4), T(1, 4)]),
            ("sub", lambda a, b: s(ad.sub(a, b)), [T(3, 4), T(3, 4)]),
            ("neg", lambda a: s(ad.neg(a)), [T(3, 4)]),
            ("mul", lambda a, b: s(ad.mul(a, b)), [T(3, 4), T(3, 4)]),
            ("safe_div", lambda a, b: s(ad.safe_div(a, b)), [T(3, 4), Tpos(3, 4)]),
            ("sigmoid", lambda a: s(ad.sigmoid(a)), [T(3, 4)]),
            ("silu", lambda a: s(ad.silu(a)), [T(3, 4)]),
            ("exp", lambda a: s(ad.exp(a)), [T(3, 4)]),
            ("log", lambda a: s(ad.log(a)), [Tpos(3, 4)]),
            ("sqrt", lambda a: s(ad.sqrt(a)), [Tpos(3, 4)]),
            ("softplus", lambda a: s(ad.softplus(a)), [T(3, 4)]),
            ("arctan", lambda a: s(ad.arctan(a)), [T(3, 4)]),
            ("maximum", lambda a, b: s(ad.maximum(a, b)),
             [Tsep(3, 4), Tsep(3, 4, lo=-0.9, hi=1.1)]),
            ("minimum", lambda a, b: s(ad.minimum(a, b)),
             [Tsep(3, 4), Tsep(3, 4, lo=-0.9, hi=1.1)]),
            ("relu", lambda a: s(ad.relu(a)), [Tsep(3, 4)]),
            ("reshape", lambda a: s(ad.mul(ad.reshape(a, (4, 3)), ad.reshape(a, (4, 3)))), [T(3, 4)]),
            ("transpose", lambda a: s(ad.mul(ad.transpose(a, (1, 0)), ad.transpose(a, (1, 0)))), [T(3, 4)]),
            ("flip", lambda a: s(ad.mul(ad.flip(a, 1), a)), [T(3, 4)]),
            ("concat", lambda a, b: s(ad.mul(ad.concat([a, b], 1), ad.concat([b, a], 1))), [T(2, 3), T(2, 3)]),
            ("getitem", lambda a: s(ad.mul(a[:, 1:3], a[:, 1:3])), [T(3, 4)]),
            ("pad2d", lambda a: s(ad.mul(ad.pad2d(a, 1), ad.pad2d(a, 1))), [T(1, 2, 3, 3)]),
            ("sum_axis", lambda a: s(ad.mul(ad.sum_axis(a, 1), ad.sum_axis(a, 1))), [T(3, 4)]),
            ("mean_axis", lambda a: s(ad.mul(ad.mean_axis(a, 0), ad.mean_axis(a, 0))), [T(3, 4)]),
            ("mean_all", lambda a: ad.mean_all(ad.mul(a, a)), [T(3, 4)]),
            ("max_axis", lambda a: s(ad.max_axis(a, 1)), [Tsep(3, 4)]),
            ("max_channel", lambda a: s(ad.max_channel(a)), [Tsep(1, 3, 2, 2)]),
            ("mean_channel", lambda a: s(ad.mul(ad.mean_channel(a), ad.mean_channel(a))), [T(1, 3, 2, 2)]),
            ("global_avg_pool", lambda a: s(ad.mul(ad.global_avg_pool(a), ad.global_avg_pool(a))), [T(1, 3, 2, 2)]),
            ("max_pool2d", lambda a: s(ad.max_pool2d(a, 2, 2, 0)), [Tsep(1, 2, 4, 4)]),
            ("matmul", lambda a, b: s(ad.matmul(a, b)), [T(3, 4), T(4, 2)]),
            ("linear", lambda x, w, b: s(ad.linear(x, w, b)), [T(3, 4), T(2, 4), T(2)]),
            ("conv2d", lambda x, w, b: s(ad.conv2d(x, w, b, stride=2, padding=1)),
             [T(1, 2, 5, 5), T(3, 2, 3, 3), T(3)]),
            ("upsample", lambda a: s(ad.mul(ad.upsample_nearest2x(a), ad.upsample_nearest2x(a))), [T(1, 2, 2, 2)]),
            ("grid_sample", lambda x, ys, xs: s(ad.grid_sample_taps(x, ys, xs)),
             [T(1, 2, 5, 5),
              Tensor(r.uniform(0.3, 3.4, size=(1, 2, 2, 2))),
              Tensor(r.uniform(0.3, 3.4, size=(1, 2, 2, 2)))]),
            ("log_softmax", lambda a: s(ad.mul(ad.log_softmax(a, 1), a)), [T(3, 4)]),
            ("softmax", lambda a: s(ad.mul(ad.softmax(a, 1), a)), [T(3, 4)]),
            ("layer_norm", lambda x, g, b: s(ad.mul(ad.layer_norm_channels(x, g, b), x)),
             [T(1, 3, 2, 2), Tpos(3), T(3)]),
            ("scan_core", lambda u, d, A, Bc, Cc, Dk: s(ssm_scan_core(u, d, A, Bc, Cc, Dk)),
             [T(2, 5, 3), Tensor(r.uniform(0.05, 0.5, size=(2, 5, 3))),
              Tensor(-r.uniform(0.2, 1.5, size=(3, 4))), T(2, 5, 4), T(2, 5, 4),
              T(3)]),
            ("conv2d-depthwise", lambda x, w, b: s(ad.sigmoid(ad.conv2d(x, w, b, 1, 1))),
             [Tensor(r_dw.normal(size=shape)) for shape in ((1, 2, 4, 4), (2, 3, 3), (2,))]),
        ]
        worst = 0.0
        worst_name = ""
        for name, f, inputs in cases:
            err = ad.grad_check(f, inputs, h=1e-4)
            if err > worst:
                worst, worst_name = err, name
        assert worst < 1e-5, f"op {worst_name} rel err {worst:.2e}"

        # full fusion-frontend + multiscale-stack pipeline
        cfg = tiny_config(input_size=64)
        bb = Backbone(rng(7), cfg)
        rgb = Tensor(r.uniform(0.1, 0.9, size=(1, 3, 64, 64)))
        ir = Tensor(r.uniform(0.1, 0.9, size=(1, 1, 64, 64)))

        def pipeline(a, b):
            f2, f3, f4 = bb(a, b)
            return ad.add(ad.add(ad.mean_all(f2), ad.mean_all(f3)), ad.mean_all(f4))

        perr = ad.grad_check(pipeline, [rgb, ir], h=1e-4, sample=4, rng=rng(8))
        assert perr < 1e-4, f"pipeline rel err {perr:.2e}"

    elapsed = time.time() - t0
    report("gradient-suite", elapsed < 120.0,
           f"worst op err {worst:.2e} ({worst_name}), pipeline err {perr:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion: scan oracle at L in {1, 7, 32, 256}, f32, rel err < 1e-5


def test_scan_matches_stepwise_recurrence():
    r = rng(202)
    worst = 0.0
    for L in (1, 7, 32, 256):
        B, D, N = 2, 3, 4
        u = r.normal(size=(B, L, D)).astype(np.float32)
        delta = r.uniform(0.05, 0.5, size=(B, L, D)).astype(np.float32)
        A = -r.uniform(0.2, 1.5, size=(D, N)).astype(np.float32)
        Bc = r.normal(size=(B, L, N)).astype(np.float32)
        Cc = r.normal(size=(B, L, N)).astype(np.float32)
        Dk = r.normal(size=(D,)).astype(np.float32)
        with ad.no_grad():
            y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A),
                              Tensor(Bc), Tensor(Cc), Tensor(Dk)).data
        ref = scan_reference(u, delta, A, Bc, Cc, Dk)
        rel = np.abs(y - ref).max() / np.abs(ref).max()
        worst = max(worst, rel)
    report("scan-oracle", worst < 1e-5, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion: zero offsets reduce the deformable conv to a plain conv


def test_zero_offsets_match_plain_conv_twenty_configs():
    r = rng(303)
    worst = 0.0
    for _ in range(20):
        C = int(r.integers(1, 4))
        Cout = int(r.integers(1, 5))
        K = int(r.integers(1, 5))
        stride = int(r.integers(1, 4))
        padding = int(r.integers(0, K))
        H = int(r.integers(K, K + 6))
        W = int(r.integers(K, K + 6))
        x = Tensor(r.normal(size=(1, C, H, W)).astype(np.float32))
        w = Tensor(r.normal(size=(Cout, C, K, K)).astype(np.float32))
        b = Tensor(r.normal(size=(Cout,)).astype(np.float32))
        Ho = ad.conv_out_size(H, K, stride, padding)
        Wo = ad.conv_out_size(W, K, stride, padding)
        zeros = Tensor(np.zeros((1, 2 * K * K, Ho, Wo), dtype=np.float32))
        with ad.no_grad():
            got = deformable_conv2d(x, w, b, zeros, stride, padding).data
            want = ad.conv2d(x, w, b, stride=stride, padding=padding).data
        worst = max(worst, float(np.abs(got - want).max()))
    report("zero-offset-equivalence", worst < 1e-5, f"max abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion: cross-channel fusion swap symmetry + scalar hand value


def test_cross_channel_fuse_symmetry_and_hand_value():
    r = rng(404)
    f1 = Tensor(r.normal(size=(2, 4, 3, 3)).astype(np.float32))
    f2 = Tensor(r.normal(size=(2, 4, 3, 3)).astype(np.float32))
    w1 = Tensor(r.uniform(0.1, 0.9, size=(2, 4, 1, 1)).astype(np.float32))
    w2 = Tensor(r.uniform(0.1, 0.9, size=(2, 4, 1, 1)).astype(np.float32))
    with ad.no_grad():
        sym = np.array_equal(cross_channel_fuse(f1, f2, w1, w2).data,
                             cross_channel_fuse(f2, f1, w2, w1).data)
        # 2*0.5/0.25 + 3*0.25/0.5 = 4 + 1.5 = 5.5
        hand = cross_channel_fuse(Tensor([[[[2.0]]]]), Tensor([[[[3.0]]]]),
                                  Tensor([[[[0.5]]]]), Tensor([[[[0.25]]]]),
                                  eps=0.0).item()
    report("fusion-symmetry", sym and hand == pytest.approx(5.5),
           f"swap exact: {sym}, scalar case {hand}")


# ---------------------------------------------------------------------------
# criterion: zeroed final projections give exact residual identities


def test_residual_identities_exact():
    r = rng(505)
    x = Tensor(r.normal(size=(1, 6, 4, 4)).astype(np.float32))
    aux = Tensor(r.normal(size=(1, 6, 4, 4)).astype(np.float32))

    mb = MambaBlock(rng(1), channels=6, d_state=4)
    mb.proj_out.weight.data[:] = 0.0
    mb.proj_out.bias.data[:] = 0.0

    fb = FusionMambaBlock(rng(2), channels=6, d_state=4)
    fb.proj_out.weight.data[:] = 0.0
    fb.proj_out.bias.data[:] = 0.0

    sp = SPPFMamba(rng(3), channels=8, d_state=4, expand=2)
    for m in (sp.m1, sp.m2, sp.m3):
        m.proj_out.weight.data[:] = 0.0
        m.proj_out.bias.data[:] = 0.0
    xs = Tensor(r.normal(size=(1, 8, 6, 6)).astype(np.float32))

    with ad.no_grad():
        ok_mb = np.array_equal(mb(x).data, x.data)
        ok_fb = np.array_equal(fb(x, aux).data, x.data)
        # plain pyramid pooling with the same convs
        y0 = sp.cv1(xs)
        p1 = ad.max_pool2d(y0, 5, 1, 2)
        p2 = ad.max_pool2d(p1, 5, 1, 2)
        p3 = ad.max_pool2d(p2, 5, 1, 2)
        plain = sp.cv2(ad.concat([y0, p1, p2, p3], axis=1)).data
        ok_sp = np.array_equal(sp(xs).data, plain)

    report("residual-identities", ok_mb and ok_fb and ok_sp,
           f"scan block {ok_mb}, fusion block {ok_fb}, pyramid pool {ok_sp}")


# ---------------------------------------------------------------------------
# criterion: 640x640 input -> neck grids 40/20/10 with configured channels


def test_shape_law_640():
    cfg = tiny_config(input_size=640)
    bb = Backbone(rng(606), cfg)
    neck = DNM(rng(607), cfg)
    r = rng(608)
    rgb = Tensor(r.uniform(0.0, 1.0, size=(1, 3, 640, 640)).astype(np.float32))
    ir = Tensor(r.uniform(0.0, 1.0, size=(1, 1, 640, 640)).astype(np.float32))
    with ad.no_grad():
        p2, p3, p4 = bb(rgb, ir)
        n2, n3, n4 = neck(p2, p3, p4)
    c2, c3, c4 = cfg.level_widths
    got = (n2.shape, n3.shape, n4.shape)
    want = ((1, c2, 40, 40), (1, c3, 20, 20), (1, c4, 10, 10))
    report("shape-law-640", got == want, f"neck outputs {got}")


# ---------------------------------------------------------------------------
# criterion: evaluation oracle, 50 randomized instances + hand case 5/6


def random_boxes(r, n):
    boxes = []
    for _ in range(n):
        w = float(r.uniform(0.05, 0.5))
        h = float(r.uniform(0.05, 0.5))
        cx = float(r.uniform(w / 2, 1 - w / 2))
        cy = float(r.uniform(h / 2, 1 - h / 2))
        boxes.append(DetectionBox(cx, cy, w, h, int(r.integers(0, 5)),
                                  float(r.uniform(0.1, 1.0))))
    return boxes


def brute_force_ap(dets_all, gts_all, cls, thr):
    """Exhaustive greedy matching, then rectangle sum under the running-max
    precision envelope."""
    pool = [(d.confidence, i, d) for i, dl in enumerate(dets_all)
            for d in dl if d.class_id == cls]
    pool.sort(key=lambda t: -t[0])
    n_gt = sum(1 for gl in gts_all for g in gl if g.class_id == cls)
    used = set()
    tp, fp = 0, 0
    points = []
    for conf, i, d in pool:
        cands = [(box_iou(d, g), gi) for gi, g in enumerate(gts_all[i])
                 if g.class_id == cls]
        cands.sort(key=lambda t: -t[0])
        hit = bool(cands) and cands[0][0] >= thr and (i, cands[0][1]) not in used
        if hit:
            used.add((i, cands[0][1]))
        tp += hit
        fp += not hit
        points.append((tp / n_gt, tp / (tp + fp)))
    envelope = []
    best = 0.0
    for rec, prec in reversed(points):
        best = max(best, prec)
        envelope.append((rec, best))
    envelope.reverse()
    ap, prev_rec = 0.0, 0.0
    for rec, prec in envelope:
        ap += (rec - prev_rec) * prec
        prev_rec = rec
    return ap


def test_eval_matches_brute_force_fifty_instances():
    r = rng(707)
    worst = 0.0
    for _ in range(50):
        n_img = int(r.integers(1, 4))
        gts = [random_boxes(r, int(r.integers(1, 4))) for _ in range(n_img)]
        dets = []
        for gl in gts:
            dl = []
            for g in gl:
                if r.uniform() < 0.8:
                    dl.append(DetectionBox(
                        min(max(g.cx + r.uniform(-0.02, 0.02), g.w / 2), 1 - g.w / 2),
                        min(max(g.cy + r.uniform(-0.02, 0.02), g.h / 2), 1 - g.h / 2),
                        g.w, g.h, g.class_id, float(r.uniform(0.5, 1.0))))
            dl.extend(random_boxes(r, int(r.integers(0, 3))))
            dets.append(dl)
        aps, mAP = eval_map(dets, gts, 0.5)
        for c in aps:
            worst = max(worst, abs(aps[c] - brute_force_ap(dets, gts, c, 0.5)))
        worst = max(worst, abs(mAP - np.mean(list(aps.values()))))

    gt = [[DetectionBox(0.2, 0.2, 0.2, 0.2, 0), DetectionBox(0.7, 0.7, 0.2, 0.2, 0)]]
    hand = [[DetectionBox(0.2, 0.2, 0.2, 0.2, 0, 0.9),
             DetectionBox(0.45, 0.45, 0.05, 0.05, 0, 0.8),
             DetectionBox(0.7, 0.7, 0.2, 0.2, 0, 0.7)]]
    aps, mAP = eval_map(hand, gt, 0.5)
    hand_ok = aps[0] == pytest.approx(5 / 6) and mAP == pytest.approx(5 / 6)
    report("eval-oracle", worst < 1e-9 and hand_ok,
           f"max |AP diff| {worst:.1e} over 50 instances, hand case {mAP:.4f}")


# ---------------------------------------------------------------------------
# criterion: bit-identical determinism across two seeded runs


def test_determinism_bit_identical(tmp_path):
    data = synth_dataset(seed=11, n=8, size=128, out_dir=tmp_path / "data")
    cfg = tiny_config()
    tc = TrainConfig(steps=10, seed=3, threads=1)
    logs = [[], []]
    for run in range(2):
        ck = tmp_path / f"run{run}.ckpt"
        train(cfg, tc, data, ck, log=logs[run].append)
    same_logs = logs[0] == logs[1]
    same_step10 = logs[0][9] == logs[1][9]
    b0 = (tmp_path / "run0.ckpt").read_bytes()
    b1 = (tmp_path / "run1.ckpt").read_bytes()
    report("determinism", same_logs and same_step10 and b0 == b1,
           f"step-10 loss line {logs[0][9].split()[1]}, "
           f"checkpoints {'identical' if b0 == b1 else 'differ'}")


# ---------------------------------------------------------------------------
# criterion: overfit 8 pairs at 128x128, tiny config, <= 2000 steps, <= 10 min


OVERFIT_STEPS = 400


def dataset_map(model, cfg, data_dir, conf=0.05, iou_nms=0.5):
    ids, rgbs, irs, gts = load_dataset(data_dir)
    dets = []
    for i in range(len(ids)):
        preds = model.predict_np(rgbs[i:i + 1].astype(np.float32),
                                 irs[i:i + 1].astype(np.float32))
        dets.extend(decode_boxes(preds, cfg, conf, iou_nms))
    _, mAP = eval_map(dets, gts, 0.5)
    return mAP


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """The pinned-recipe training run: (model, data dir, train seconds)."""
    data = synth_dataset(seed=0, n=8, size=128,
                         out_dir=tmp_path_factory.mktemp("overfit") / "data")
    tc = TrainConfig(steps=OVERFIT_STEPS, seed=0, threads=1)  # pinned recipe
    t0 = time.time()
    model = train(tiny_config(), tc, data, None, log=lambda s: None)
    return model, data, time.time() - t0


def test_overfit_small_dataset(overfit_run):
    assert OVERFIT_STEPS <= 2000
    model, data, train_time = overfit_run
    cfg = tiny_config()
    mAP = dataset_map(model, cfg, data)
    report("overfit", mAP >= 0.9 and train_time <= 600.0,
           f"train mAP@0.5 {mAP:.4f} after {OVERFIT_STEPS} steps "
           f"in {train_time:.0f}s")


# ---------------------------------------------------------------------------
# criterion: trained first-stage offsets exceed one pixel somewhere


def test_learned_offsets_exceed_one_pixel(overfit_run):
    model, data, _ = overfit_run
    _, rgbs, irs, _ = load_dataset(data)
    off = first_stage_offsets(model, rgbs[:1].astype(np.float32),
                              irs[:1].astype(np.float32))
    mag = max_offset_magnitude(off)
    report("learned-offsets", mag > 1.0, f"max sampling displacement {mag:.2f} px")
