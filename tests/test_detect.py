"""Assignment, losses, decoding, suppression, and average precision, each
checked against an independent brute-force or hand-computed oracle."""

import math
import warnings

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse import detect
from mambafuse.autodiff import Tensor, grad_check, precision
from mambafuse.config import tiny_config
from mambafuse.detect import (LEVEL_RANGES, REG_MAX, DetectionBox, anchor_centers,
                              anchor_table, assign_targets, bce_with_logits, box_iou,
                              ciou, decode_boxes, eval_map, nms, route_level,
                              total_loss)


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(606), np.uint64(salt))))


GRIDS = [(8, 8), (4, 4), (2, 2)]
STRIDES = (16, 32, 64)
SIZE = 128


def brute_force_assign(gts, grids, strides, image_size):
    """Literal restatement of the assignment rule, anchor by anchor, level by
    level; the levels' arrays are joined level-major."""
    routed = [route_level(g) for g in gts]
    out = []
    for li, ((gh, gw), stride) in enumerate(zip(grids, strides)):
        assign = [-1] * (gh * gw)
        for ai in range(gh * gw):
            cy = ((ai // gw) + 0.5) * stride / image_size
            cx = ((ai % gw) + 0.5) * stride / image_size
            best, best_d2 = -1, float("inf")
            for gi, g in enumerate(gts):
                if routed[gi] != li:
                    continue
                if abs(cx - g.cx) >= g.w / 2 or abs(cy - g.cy) >= g.h / 2:
                    continue
                d2 = (cx - g.cx) ** 2 + (cy - g.cy) ** 2
                if d2 < best_d2:
                    best, best_d2 = gi, d2
            assign[ai] = best
        for gi, g in enumerate(gts):
            if routed[gi] != li or gi in assign:
                continue
            free = [ai for ai in range(gh * gw) if assign[ai] < 0]
            if free:
                def d2(ai):
                    cy = ((ai // gw) + 0.5) * stride / image_size
                    cx = ((ai % gw) + 0.5) * stride / image_size
                    return (cx - g.cx) ** 2 + (cy - g.cy) ** 2
                assign[min(free, key=d2)] = gi
        out.extend(assign)
    return np.array(out)


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


# ---------------------------------------------------------------------------
# assignment


def test_assigner_matches_brute_force():
    for salt in range(10):
        gts = random_boxes(rng(salt), int(rng(salt).integers(1, 5)))
        got = assign_targets(gts, GRIDS, STRIDES, SIZE)
        want = brute_force_assign(gts, GRIDS, STRIDES, SIZE)
        np.testing.assert_array_equal(got, want)


def test_route_level_thresholds():
    assert route_level(DetectionBox(0.5, 0.5, 0.05, 0.05, 0)) == 0
    assert route_level(DetectionBox(0.5, 0.5, 0.05, 0.2, 0)) == 1
    assert route_level(DetectionBox(0.5, 0.5, 0.3, 0.1, 0)) == 2
    assert route_level(DetectionBox(0.5, 0.5, LEVEL_RANGES[1], 0.01, 0)) == 2


def test_every_gt_gets_at_least_one_anchor():
    for salt in range(20, 30):
        gts = random_boxes(rng(salt), 3)
        assigns = assign_targets(gts, GRIDS, STRIDES, SIZE)
        claimed = {int(g) for g in assigns[assigns >= 0]}
        assert claimed == set(range(len(gts)))


def test_anchor_centers_are_cell_midpoints():
    c = anchor_centers(2, 2, 64, 128)
    want = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    np.testing.assert_allclose(c, want)
    # the table joins the levels' anchors level-major
    centers, stride, level = anchor_table(GRIDS, STRIDES, SIZE)
    sizes = [gh * gw for gh, gw in GRIDS]
    np.testing.assert_array_equal(centers, np.concatenate(
        [anchor_centers(gh, gw, s, SIZE) for (gh, gw), s in zip(GRIDS, STRIDES)]))
    np.testing.assert_array_equal(stride, np.repeat(STRIDES, sizes))
    np.testing.assert_array_equal(level, np.repeat([0, 1, 2], sizes))


# ---------------------------------------------------------------------------
# losses


def test_bce_matches_direct_formula():
    z = rng(1).normal(size=(3, 4))
    y = (rng(2).uniform(size=(3, 4)) > 0.5).astype(np.float64)
    got = bce_with_logits(Tensor(z, dtype=np.float64), y).data
    p = 1 / (1 + np.exp(-z))
    want = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_ciou_identical_boxes_is_exactly_one():
    b = np.array([[0.2, 0.3, 0.6, 0.9]])
    out = ciou(Tensor(b, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    assert out[0] == 1.0


def test_ciou_disjoint_below_overlapping():
    gt = Tensor(np.array([[0.1, 0.1, 0.3, 0.3]]))
    near = Tensor(np.array([[0.15, 0.15, 0.35, 0.35]]))
    far = Tensor(np.array([[0.7, 0.7, 0.9, 0.9]]))
    assert ciou(near, gt).data[0] > ciou(far, gt).data[0]


def ref_ciou(p, g):
    """Scalar CIoU of two (x1, y1, x2, y2) boxes."""
    px1, py1, px2, py2 = p
    gx1, gy1, gx2, gy2 = g
    iw = max(0.0, min(px2, gx2) - max(px1, gx1))
    ih = max(0.0, min(py2, gy2) - max(py1, gy1))
    inter = iw * ih
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    iou = inter / union
    cw = max(px2, gx2) - min(px1, gx1)
    ch = max(py2, gy2) - min(py1, gy1)
    c2 = cw * cw + ch * ch + 1e-7
    rho2 = ((px1 + px2 - gx1 - gx2) / 2) ** 2 + ((py1 + py2 - gy1 - gy2) / 2) ** 2
    v = (4 / math.pi ** 2) * (math.atan((gx2 - gx1) / (gy2 - gy1 + 1e-7))
                              - math.atan((px2 - px1) / (py2 - py1 + 1e-7))) ** 2
    alpha = v / (1 - iou + v + 1e-7)
    return iou - rho2 / c2 - alpha * v


def test_ciou_matches_scalar_reference():
    r = rng(3)
    for _ in range(10):
        p = np.sort(r.uniform(0, 1, size=4)).reshape(2, 2).T.ravel()  # x1<x2, y1<y2
        p = [p[0], p[2], p[1], p[3]]
        g = np.sort(r.uniform(0, 1, size=4)).reshape(2, 2).T.ravel()
        g = [g[0], g[2], g[1], g[3]]
        got = ciou(Tensor(np.array([p]), dtype=np.float64),
                   Tensor(np.array([g]), dtype=np.float64)).data[0]
        assert got == pytest.approx(ref_ciou(p, g), abs=1e-5)


def test_recorded_ciou_makes_no_nodes_for_alpha():
    # alpha is a constant weight: computing it with recorded ops would add
    # three nodes (sub, add, safe_div) that never receive a gradient
    pred = Tensor(np.array([[0.1, 0.1, 0.5, 0.6], [0.2, 0.3, 0.4, 0.9]]), requires_grad=True)
    gt = Tensor(np.array([[0.15, 0.1, 0.55, 0.5], [0.2, 0.2, 0.5, 0.8]]))
    with ad.Tape() as tape:
        ciou(pred, gt)
    assert len(tape.nodes) == 49


def test_ciou_gradient_is_finite_difference_consistent():
    # the aspect-ratio weight alpha is treated as a constant in the backward
    # pass, so the finite-difference reference must hold it fixed too
    with precision("f64"):
        p0 = np.array([[0.2, 0.25, 0.55, 0.7]])
        g0 = np.array([[0.3, 0.3, 0.6, 0.6]])
        pred = Tensor(p0.copy(), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.sum_all(ciou(pred, Tensor(g0)))
            ad.backward(tape, out)
        analytic = pred.grad.ravel()

        def fixed_alpha_value(p):
            px1, py1, px2, py2 = p
            gx1, gy1, gx2, gy2 = g0[0]
            iw = max(0.0, min(px2, gx2) - max(px1, gx1))
            ih = max(0.0, min(py2, gy2) - max(py1, gy1))
            inter = iw * ih
            union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
            iou = inter / union
            c2 = (max(px2, gx2) - min(px1, gx1)) ** 2 + \
                 (max(py2, gy2) - min(py1, gy1)) ** 2 + 1e-7
            rho2 = ((px1 + px2 - gx1 - gx2) / 2) ** 2 + \
                   ((py1 + py2 - gy1 - gy2) / 2) ** 2
            v = (4 / math.pi ** 2) * (
                math.atan((gx2 - gx1) / (gy2 - gy1 + 1e-7))
                - math.atan((px2 - px1) / (py2 - py1 + 1e-7))) ** 2
            return iou, rho2 / c2, v

        iou0, _, v0 = fixed_alpha_value(p0[0])
        alpha0 = v0 / (1 - iou0 + v0 + 1e-7)
        h = 1e-7
        for k in range(4):
            pp, pm = p0[0].copy(), p0[0].copy()
            pp[k] += h
            pm[k] -= h
            fp = (lambda t: t[0] - t[1] - alpha0 * t[2])(fixed_alpha_value(pp))
            fm = (lambda t: t[0] - t[1] - alpha0 * t[2])(fixed_alpha_value(pm))
            cd = (fp - fm) / (2 * h)
            assert analytic[k] == pytest.approx(cd, abs=1e-5)


def fake_preds(r, cfg, batch=1):
    preds = []
    for li, (gh, gw) in enumerate(GRIDS):
        cls = Tensor(r.normal(size=(batch, cfg.num_classes, gh, gw)).astype(np.float32))
        box = Tensor(r.normal(size=(batch, 4 * (REG_MAX + 1), gh, gw)).astype(np.float32))
        preds.append((cls, box))
    return preds


def test_total_loss_is_linear_in_lambdas(monkeypatch):
    cfg = tiny_config()
    r = rng(4)
    gts = [random_boxes(r, 2)]
    assigns = [assign_targets(gts[0], GRIDS, STRIDES, SIZE)]
    preds = fake_preds(r, cfg)
    _, c1 = total_loss(preds, assigns, gts, cfg)
    for name in ("LAMBDA_CLS", "LAMBDA_BOX", "LAMBDA_DFL"):
        monkeypatch.setattr(detect, name, 2 * getattr(detect, name))
    t2, c2 = total_loss(preds, assigns, gts, cfg)
    assert c2["cls"] == pytest.approx(c1["cls"], rel=1e-6)
    assert c2["box"] == pytest.approx(c1["box"], rel=1e-6)
    assert c2["dfl"] == pytest.approx(c1["dfl"], rel=1e-6)
    assert c2["total"] == pytest.approx(2 * c1["total"], rel=1e-5)


def test_total_loss_without_foreground_has_zero_box_terms():
    cfg = tiny_config()
    r = rng(5)
    preds = fake_preds(r, cfg)
    assigns = [np.full(sum(gh * gw for gh, gw in GRIDS), -1, dtype=np.int64)]
    total, comps = total_loss(preds, assigns, [[]], cfg)
    assert comps["box"] == 0.0 and comps["dfl"] == 0.0
    assert comps["total"] == pytest.approx(0.5 * comps["cls"], rel=1e-6)


def test_cls_loss_oracle_summed_bce_per_foreground():
    cfg = tiny_config()
    r = rng(6)
    preds = fake_preds(r, cfg)
    gts = [[DetectionBox(0.5, 0.5, 0.4, 0.4, 2)]]
    assigns = [assign_targets(gts[0], GRIDS, STRIDES, SIZE)]
    _, comps = total_loss(preds, assigns, gts, cfg)
    # rebuild the target tensor, sum BCE by hand, divide by foreground count
    acc, n_fg = 0.0, 0
    a = assigns[0]
    first = 0
    for cls, _ in preds:
        z = cls.data[0].reshape(cfg.num_classes, -1).T  # [A, nc]
        y = np.zeros_like(z)
        for ai in range(len(z)):
            if a[first + ai] >= 0:
                y[ai, gts[0][a[first + ai]].class_id] = 1.0
                n_fg += 1
        first += len(z)
        p = 1 / (1 + np.exp(-z.astype(np.float64)))
        acc += float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())
    assert comps["cls"] == pytest.approx(acc / max(n_fg, 1), rel=1e-4)


def numpy_box_terms(preds, assigns, gts_batch):
    """Mean (1 - CIoU) and quarter-mean DFL, anchor by anchor and level by
    level in plain float64 numpy."""
    R1 = REG_MAX + 1
    box, dfl, n_fg = 0.0, 0.0, 0
    for bi, a in enumerate(assigns):
        first = 0
        for (_, dist), (gh, gw), stride in zip(preds, GRIDS, STRIDES):
            logits = dist.data[bi].astype(np.float64).reshape(4, R1, gh * gw)
            for ai in range(gh * gw):
                gi = a[first + ai]
                if gi < 0:
                    continue
                iy, ix = divmod(ai, gw)
                cx, cy = (ix + 0.5) * stride / SIZE, (iy + 0.5) * stride / SIZE
                z = logits[:, :, ai] - logits[:, :, ai].max(axis=1, keepdims=True)
                logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
                d = (np.exp(logp) * np.arange(R1)).sum(axis=1) * stride / SIZE
                g = gts_batch[bi][gi].corners()
                box += 1.0 - ref_ciou([cx - d[0], cy - d[1], cx + d[2], cy + d[3]], g)
                t = np.array([cx - g[0], cy - g[1], g[2] - cx, g[3] - cy]) * SIZE / stride
                for k, tk in enumerate(np.clip(t, 0.0, REG_MAX - 0.01)):
                    lo = int(tk)
                    dfl -= (lo + 1 - tk) * logp[k, lo] + (tk - lo) * logp[k, lo + 1]
                n_fg += 1
            first += gh * gw
    return box / n_fg, dfl / n_fg / 4


def test_total_loss_takes_one_pass_over_positives_on_every_level():
    # box sides 0.06, 0.2 and 0.5 route to levels 0, 1 and 2: one CIoU (one
    # recorded arctan; the GT's arctan is a constant) serves all of them
    cfg = tiny_config()
    gts = [[DetectionBox(0.3, 0.3, 0.06, 0.06, 1), DetectionBox(0.55, 0.6, 0.5, 0.5, 3)],
           [DetectionBox(0.4, 0.65, 0.2, 0.2, 0)]]
    assigns = [assign_targets(g, GRIDS, STRIDES, SIZE) for g in gts]
    _, _, level = anchor_table(GRIDS, STRIDES, SIZE)
    assert {int(lv) for a in assigns for lv in level[a >= 0]} == {0, 1, 2}
    with precision("f64"):
        r = rng(7)
        preds = [tuple(Tensor(r.normal(size=(2, c, gh, gw)), requires_grad=True)
                       for c in (cfg.num_classes, 4 * (REG_MAX + 1)))
                 for gh, gw in GRIDS]
        with ad.Tape() as tape:
            _, comps = total_loss(preds, assigns, gts, cfg)
    assert sum(n.fn.__qualname__.startswith("arctan.") for n in tape.nodes) == 1
    box, dfl = numpy_box_terms(preds, assigns, gts)
    assert comps["box"] == pytest.approx(box, rel=1e-5)
    assert comps["dfl"] == pytest.approx(dfl, rel=1e-5)


def test_dfl_uniform_logits_expect_midpoint():
    # equal logits over the 8 bins give an expected distance of 3.5 strides
    R1 = REG_MAX + 1
    logits = np.zeros((1, 4, R1))
    probs = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
    expect = (probs * np.arange(R1)).sum(axis=2)
    np.testing.assert_allclose(expect, np.full((1, 4), 3.5))


def test_dfl_two_bin_hand_case():
    # target distance 2.3 strides: bins 2 and 3 weighted 0.7/0.3;
    # perfect prediction puts all mass there, loss = entropy of the target
    w = np.array([0.7, 0.3])
    logits = np.full(8, -30.0)
    logits[2] = math.log(0.7)
    logits[3] = math.log(0.3)
    logp = logits - np.log(np.exp(logits).sum())
    loss = -(w[0] * logp[2] + w[1] * logp[3])
    want = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    assert loss == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# decode / nms


def make_pred_for_box(cfg, box: DetectionBox, logit=6.0):
    """Head outputs whose decode should reproduce ``box`` exactly."""
    R1 = REG_MAX + 1
    preds = []
    li = route_level(box)
    for lj, ((gh, gw), stride) in enumerate(zip(GRIDS, STRIDES)):
        cls = np.full((1, cfg.num_classes, gh, gw), -20.0, dtype=np.float32)
        dist = np.zeros((1, 4, R1, gh, gw), dtype=np.float32)
        dist[:, :, 0] = 20.0  # default: all mass on distance 0
        if lj == li:
            centers = anchor_centers(gh, gw, stride, SIZE)
            d2 = ((centers[:, 0] - box.cx) ** 2 + (centers[:, 1] - box.cy) ** 2)
            ai = int(np.argmin(d2))
            x1, y1, x2, y2 = box.corners()
            t = np.array([centers[ai, 0] - x1, centers[ai, 1] - y1,
                          x2 - centers[ai, 0], y2 - centers[ai, 1]])
            t = t * SIZE / stride
            assert np.all(t >= 0) and np.all(t <= REG_MAX)
            iy, ix = divmod(ai, gw)
            cls[0, box.class_id, iy, ix] = logit
            for k in range(4):
                lo = int(np.floor(t[k]))
                frac = t[k] - lo
                dist[0, k, :, iy, ix] = -30.0
                if frac < 1e-9:
                    dist[0, k, lo, iy, ix] = 20.0
                else:
                    dist[0, k, lo, iy, ix] = float(np.log(1 - frac)) + 20.0
                    dist[0, k, lo + 1, iy, ix] = float(np.log(frac)) + 20.0
        preds.append((cls, dist.reshape(1, 4 * R1, gh, gw)))
    return preds


def test_decode_inverts_constructed_prediction():
    cfg = tiny_config()
    box = DetectionBox(0.75, 0.7, 0.42, 0.5, 2)
    preds = make_pred_for_box(cfg, box)
    dets = decode_boxes(preds, cfg, conf_threshold=0.6, iou_nms=0.5)[0]
    # background anchors predict zero-size boxes and fall below threshold
    strong = [d for d in dets if d.confidence > 0.9]
    assert len(strong) == 1
    d = strong[0]
    assert d.class_id == 2
    assert d.cx == pytest.approx(box.cx, abs=1e-3)
    assert d.cy == pytest.approx(box.cy, abs=1e-3)
    assert d.w == pytest.approx(box.w, abs=1e-3)
    assert d.h == pytest.approx(box.h, abs=1e-3)


def test_decode_clips_boxes_that_overshoot_the_image():
    # every anchor confident, every distance at the last bin: the stride-64
    # level reaches reg_max * 64 px past its centre on all four sides
    cfg = tiny_config()
    R1 = REG_MAX + 1
    assert REG_MAX * max(STRIDES) > SIZE
    preds = []
    for gh, gw in GRIDS:
        cls = np.full((1, cfg.num_classes, gh, gw), 5.0, dtype=np.float32)
        dist = np.full((1, 4, R1, gh, gw), -30.0, dtype=np.float32)
        dist[:, :, REG_MAX] = 20.0
        preds.append((cls, dist.reshape(1, 4 * R1, gh, gw)))
    dets = decode_boxes(preds, cfg, conf_threshold=0.5, iou_nms=1.0)[0]
    assert dets
    for d in dets:
        assert d.w > 0 and d.h > 0
        x1, y1, x2, y2 = d.corners()
        assert min(x1, y1) >= -1e-9 and max(x2, y2) <= 1 + 1e-9


def test_decode_takes_large_negative_logits_without_overflow():
    # a float32 logit below about -88.7 overflowed exp(-x) in a naive sigmoid
    cfg = tiny_config()
    R1 = REG_MAX + 1
    preds = [(np.full((1, cfg.num_classes, gh, gw), -100.0, dtype=np.float32),
              np.zeros((1, 4 * R1, gh, gw), dtype=np.float32)) for gh, gw in GRIDS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decode_boxes(preds, cfg, conf_threshold=0.5)[0] == []


def test_decode_respects_confidence_threshold():
    cfg = tiny_config()
    box = DetectionBox(0.75, 0.75, 0.4, 0.4, 1)
    preds = make_pred_for_box(cfg, box, logit=-1.0)  # sigmoid ~ 0.27
    assert decode_boxes(preds, cfg, conf_threshold=0.6)[0] == []
    assert len(decode_boxes(preds, cfg, conf_threshold=0.2)[0]) >= 1


def brute_force_nms(boxes, thr):
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i))
    keep = []
    for i in order:
        ok = True
        for k in keep:
            if k.class_id == boxes[i].class_id and box_iou(boxes[i], k) > thr:
                ok = False
        if ok:
            keep.append(boxes[i])
    return keep


def test_nms_matches_brute_force_and_is_idempotent():
    for salt in range(40, 50):
        boxes = random_boxes(rng(salt), 12)
        got = nms(boxes, 0.5)
        assert got == brute_force_nms(boxes, 0.5)
        assert nms(got, 0.5) == got


def test_nms_keeps_different_classes_at_same_location():
    a = DetectionBox(0.5, 0.5, 0.2, 0.2, 0, 0.9)
    b = DetectionBox(0.5, 0.5, 0.2, 0.2, 1, 0.8)
    assert nms([a, b], 0.5) == [a, b]


def test_box_iou_hand_case():
    a = DetectionBox(0.25, 0.25, 0.5, 0.5, 0)  # [0,0.5]^2
    b = DetectionBox(0.5, 0.5, 0.5, 0.5, 0)    # [0.25,0.75]^2
    assert box_iou(a, b) == pytest.approx((0.25 ** 2) / (2 * 0.25 - 0.25 ** 2))


# ---------------------------------------------------------------------------
# evaluation


def test_ap_hand_case_five_sixths():
    # two GTs, ranked detections TP, FP, TP -> all-point AP = 5/6
    gt = [[DetectionBox(0.2, 0.2, 0.2, 0.2, 0), DetectionBox(0.7, 0.7, 0.2, 0.2, 0)]]
    dets = [[DetectionBox(0.2, 0.2, 0.2, 0.2, 0, 0.9),
             DetectionBox(0.45, 0.45, 0.05, 0.05, 0, 0.8),
             DetectionBox(0.7, 0.7, 0.2, 0.2, 0, 0.7)]]
    aps, mAP = eval_map(dets, gt, iou_threshold=0.5)
    assert aps[0] == pytest.approx(5 / 6)
    assert mAP == pytest.approx(5 / 6)


def test_perfect_detections_score_one():
    gts = [random_boxes(rng(60), 3)]
    dets = [[DetectionBox(g.cx, g.cy, g.w, g.h, g.class_id, 0.99) for g in gts[0]]]
    _, mAP = eval_map(dets, gts, 0.5)
    assert mAP == pytest.approx(1.0)


def test_no_detections_score_zero():
    gts = [random_boxes(rng(61), 2)]
    _, mAP = eval_map([[]], gts, 0.5)
    assert mAP == 0.0


def test_duplicate_detections_of_one_gt_count_once():
    gt = [[DetectionBox(0.5, 0.5, 0.2, 0.2, 0)]]
    d = DetectionBox(0.5, 0.5, 0.2, 0.2, 0, 0.9)
    d2 = DetectionBox(0.5, 0.5, 0.2, 0.2, 0, 0.8)
    aps, _ = eval_map([[d, d2]], gt, 0.5)
    # second match is a false positive: precision drops after full recall
    assert aps[0] == pytest.approx(1.0)


def brute_force_ap(dets_all, gts_all, cls, thr):
    """Independent AP: exhaustive greedy matching, then rectangle sum under
    the running-max precision curve."""
    pool = [(d.confidence, i, d) for i, dl in enumerate(dets_all)
            for d in dl if d.class_id == cls]
    pool.sort(key=lambda t: -t[0])
    n_gt = sum(1 for gl in gts_all for g in gl if g.class_id == cls)
    used = set()
    flags = []
    for conf, i, d in pool:
        cands = [(box_iou(d, g), gi) for gi, g in enumerate(gts_all[i])
                 if g.class_id == cls]
        cands.sort(key=lambda t: -t[0])
        hit = False
        if cands and cands[0][0] >= thr and (i, cands[0][1]) not in used:
            used.add((i, cands[0][1]))
            hit = True
        flags.append(hit)
    tp, fp = 0, 0
    points = []
    for hit in flags:
        tp += hit
        fp += not hit
        points.append((tp / n_gt, tp / (tp + fp)))
    # precision envelope
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


def test_eval_map_matches_brute_force_on_random_instances():
    r = rng(62)
    for _ in range(10):
        n_img = int(r.integers(1, 4))
        gts = [random_boxes(r, int(r.integers(1, 4))) for _ in range(n_img)]
        dets = []
        for gl in gts:
            dl = []
            for g in gl:
                if r.uniform() < 0.8:  # jittered true positive
                    dl.append(DetectionBox(
                        min(max(g.cx + r.uniform(-0.02, 0.02), g.w / 2), 1 - g.w / 2),
                        min(max(g.cy + r.uniform(-0.02, 0.02), g.h / 2), 1 - g.h / 2),
                        g.w, g.h, g.class_id, float(r.uniform(0.5, 1.0))))
            dl.extend(random_boxes(r, int(r.integers(0, 3))))  # clutter
            dets.append(dl)
        aps, mAP = eval_map(dets, gts, 0.5)
        for c in aps:
            want = brute_force_ap(dets, gts, c, 0.5)
            assert aps[c] == pytest.approx(want, abs=1e-9)
        assert mAP == pytest.approx(np.mean(list(aps.values())))


def test_detection_box_validation():
    with pytest.raises(Exception):
        DetectionBox(1.5, 0.5, 0.2, 0.2, 0).validate()
    with pytest.raises(Exception):
        DetectionBox(0.5, 0.5, 0.0, 0.2, 0).validate()
    with pytest.raises(Exception):
        DetectionBox(0.5, 0.5, 0.2, 0.2, -1).validate()
    DetectionBox(0.5, 0.5, 0.2, 0.2, 4).validate()
