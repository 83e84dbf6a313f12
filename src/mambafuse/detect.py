"""Detection neck, anchor-free head, target assignment, losses, box
decoding, and average-precision evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .config import ModelConfig
from .nn import Conv2d, Module
from .ssm import MambaBlock, mamba_blocks

# Largest distance bin of the box head: each side's distance is a softmax
# over bins 0..REG_MAX, in units of the level's stride.
REG_MAX = 7

# Weights of the classification, CIoU box and distribution-focal loss terms.
LAMBDA_CLS = 0.5
LAMBDA_BOX = 7.5
LAMBDA_DFL = 1.5


@dataclass
class DetectionBox:
    """One axis-aligned detection in image-normalized units."""
    cx: float
    cy: float
    w: float
    h: float
    class_id: int
    confidence: float = 1.0

    def validate(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ConfigError(f"box center out of range: {self}")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ConfigError(f"box size out of range: {self}")
        if self.class_id < 0:
            raise ConfigError(f"negative class id: {self}")

    def corners(self):
        return (self.cx - self.w / 2, self.cy - self.h / 2,
                self.cx + self.w / 2, self.cy + self.h / 2)


# scale routing: GT max side below these fractions goes to levels 0/1; rest to 2
LEVEL_RANGES = (0.1, 0.25)


# ---------------------------------------------------------------------------
# neck

class SPPFMamba(Module):
    """Spatial pyramid pooling where each cascaded pool output passes
    through its own scan block before concatenation; the three blocks share
    one four-way scan."""

    def __init__(self, rng, channels: int, d_state: int, expand: int):
        super().__init__()
        if channels % 2:
            raise ConfigError(f"SPPF channel count must be even, got {channels}")
        hidden = channels // 2
        self.cv1 = Conv2d(rng, channels, hidden, 1)
        self.m1 = MambaBlock(rng, hidden, d_state, expand)
        self.m2 = MambaBlock(rng, hidden, d_state, expand)
        self.m3 = MambaBlock(rng, hidden, d_state, expand)
        self.cv2 = Conv2d(rng, 4 * hidden, channels, 1)

    def __call__(self, x: Tensor) -> Tensor:
        y0 = self.cv1(x)
        p1 = ad.max_pool2d(y0, 5, 1, 2)
        p2 = ad.max_pool2d(p1, 5, 1, 2)
        p3 = ad.max_pool2d(p2, 5, 1, 2)
        cat = ad.concat([y0] + mamba_blocks([self.m1, self.m2, self.m3], [p1, p2, p3]),
                        axis=1)
        return self.cv2(cat)


class NeckBlock(Module):
    """1x1 channel-fusion conv followed by a scan block (the C3K2 slot)."""

    def __init__(self, rng, cin: int, cout: int, d_state: int, expand: int):
        super().__init__()
        self.fuse = Conv2d(rng, cin, cout, 1)
        self.mamba = MambaBlock(rng, cout, d_state, expand)

    def __call__(self, x: Tensor) -> Tensor:
        return self.mamba(self.fuse(x))


class DNM(Module):
    """PAN-style neck over the three backbone levels (strides 16/32/64)."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        c2, c3, c4 = cfg.level_widths
        ds, ex = cfg.ssm_state, cfg.ssm_expand
        self.sppf = SPPFMamba(rng, c4, ds, ex)
        self.td3 = NeckBlock(rng, c4 + c3, c3, ds, ex)
        self.td2 = NeckBlock(rng, c3 + c2, c2, ds, ex)
        self.down2 = Conv2d(rng, c2, c2, 3, stride=2, padding=1)
        self.bu3 = NeckBlock(rng, c2 + c3, c3, ds, ex)
        self.down3 = Conv2d(rng, c3, c3, 3, stride=2, padding=1)
        self.bu4 = NeckBlock(rng, c3 + c4, c4, ds, ex)

    def __call__(self, p2: Tensor, p3: Tensor, p4: Tensor):
        for hi, lo in ((p2, p3), (p3, p4)):
            if hi.shape[2] != 2 * lo.shape[2] or hi.shape[3] != 2 * lo.shape[3]:
                raise ConfigError(
                    f"adjacent levels must differ 2x spatially: {hi.shape} vs {lo.shape}")
        p4s = self.sppf(p4)
        t3 = self.td3(ad.concat([ad.upsample_nearest2x(p4s), p3], axis=1))
        t2 = self.td2(ad.concat([ad.upsample_nearest2x(t3), p2], axis=1))
        b3 = self.bu3(ad.concat([self.down2(t2), t3], axis=1))
        b4 = self.bu4(ad.concat([self.down3(b3), p4s], axis=1))
        return t2, b3, b4


class HeadLevel(Module):
    def __init__(self, rng, channels: int, num_classes: int):
        super().__init__()
        self.cls_stem = Conv2d(rng, channels, channels, 3, padding=1)
        self.cls_out = Conv2d(rng, channels, num_classes, 1)
        self.box_stem = Conv2d(rng, channels, channels, 3, padding=1)
        self.box_out = Conv2d(rng, channels, 4 * (REG_MAX + 1), 1)
        # start with a low objectness prior so background anchors are quiet
        self.cls_out.bias.data[:] = -4.6

    def __call__(self, x: Tensor):
        cls = self.cls_out(ad.silu(self.cls_stem(x)))
        box = self.box_out(ad.silu(self.box_stem(x)))
        return cls, box


class DetectHead(Module):
    """Per-level conv stacks producing class logits and distance-bin logits."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.num_classes = cfg.num_classes
        for i, c in enumerate(cfg.level_widths):
            setattr(self, f"level{i}", HeadLevel(rng, c, cfg.num_classes))

    def __call__(self, features):
        out = []
        for i, f in enumerate(features):
            out.append(getattr(self, f"level{i}")(f))
        return out  # [(cls_logits, box_dist), ...] per level


# ---------------------------------------------------------------------------
# target assignment

def anchor_centers(grid_h: int, grid_w: int, stride: int, image_size: int) -> np.ndarray:
    """Normalized (cx, cy) anchor centers of one level, shape [H*W, 2]."""
    ys, xs = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    cx = (xs.ravel() + 0.5) * stride / image_size
    cy = (ys.ravel() + 0.5) * stride / image_size
    return np.stack([cx, cy], axis=1)


def route_level(box: DetectionBox) -> int:
    side = max(box.w, box.h)
    if side < LEVEL_RANGES[0]:
        return 0
    if side < LEVEL_RANGES[1]:
        return 1
    return 2


def anchor_table(grids, strides, image_size: int):
    """Every anchor of every level, level-major: normalized (cx, cy) centers
    [A,2], stride [A] and level index [A]."""
    centers = [anchor_centers(gh, gw, stride, image_size)
               for (gh, gw), stride in zip(grids, strides)]
    sizes = [len(c) for c in centers]
    return (np.concatenate(centers), np.repeat(strides, sizes),
            np.repeat(np.arange(len(sizes)), sizes))


def assign_targets(gts: list[DetectionBox], grids: list[tuple[int, int]],
                   strides, image_size: int) -> np.ndarray:
    """Center-prior assignment: a level-major [A] int array (the layout of
    ``anchor_table``) of GT index or -1.

    Rule: an anchor is a candidate for a GT when its center lies inside the
    GT box and the GT's scale routes to the anchor's level; each candidate
    anchor takes the nearest GT center (ties -> lower GT index).  A GT left
    with no anchor claims the nearest still-background anchor on its level,
    so every GT is trainable even on coarse grids.
    """
    centers, _, level = anchor_table(grids, strides, image_size)
    assign = np.full(len(level), -1, dtype=np.int64)
    best_d2 = np.full(len(level), np.inf)
    on_level = [level == route_level(g) for g in gts]
    d2 = [(centers[:, 0] - g.cx) ** 2 + (centers[:, 1] - g.cy) ** 2 for g in gts]
    for gi, g in enumerate(gts):
        inside = on_level[gi] & (np.abs(centers[:, 0] - g.cx) < g.w / 2) & \
                 (np.abs(centers[:, 1] - g.cy) < g.h / 2)
        take = inside & (d2[gi] < best_d2)  # strict: ties stay with lower index
        assign[take] = gi
        best_d2[take] = d2[gi][take]
    for gi in range(len(gts)):
        free = on_level[gi] & (assign < 0)
        if free.any() and not np.any(assign == gi):
            cand = np.flatnonzero(free)
            assign[cand[np.argmin(d2[gi][free])]] = gi
    return assign


# ---------------------------------------------------------------------------
# losses

def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise stable binary cross-entropy: softplus(z) - z*y."""
    return ad.sub(ad.softplus(logits), ad.mul(logits, Tensor(targets)))


def ciou(pred: Tensor, gt: Tensor, eps: float = 1e-7) -> Tensor:
    """Complete IoU between [F,4] corner boxes (x1,y1,x2,y2); 1 for identical."""
    px1, py1, px2, py2 = pred[:, 0], pred[:, 1], pred[:, 2], pred[:, 3]
    gx1, gy1, gx2, gy2 = gt[:, 0], gt[:, 1], gt[:, 2], gt[:, 3]
    zero = Tensor(np.zeros(1))
    iw = ad.maximum(ad.sub(ad.minimum(px2, gx2), ad.maximum(px1, gx1)), zero)
    ih = ad.maximum(ad.sub(ad.minimum(py2, gy2), ad.maximum(py1, gy1)), zero)
    inter = ad.mul(iw, ih)
    area_p = ad.mul(ad.sub(px2, px1), ad.sub(py2, py1))
    area_g = ad.mul(ad.sub(gx2, gx1), ad.sub(gy2, gy1))
    union = ad.sub(ad.add(area_p, area_g), inter)
    iou = ad.safe_div(inter, union, eps=0.0)

    cw = ad.sub(ad.maximum(px2, gx2), ad.minimum(px1, gx1))
    ch = ad.sub(ad.maximum(py2, gy2), ad.minimum(py1, gy1))
    c2 = ad.add(ad.add(ad.mul(cw, cw), ad.mul(ch, ch)), Tensor(eps))
    dx = ad.mul(ad.sub(ad.add(px1, px2), ad.add(gx1, gx2)), Tensor(0.5))
    dy = ad.mul(ad.sub(ad.add(py1, py2), ad.add(gy1, gy2)), Tensor(0.5))
    rho2 = ad.add(ad.mul(dx, dx), ad.mul(dy, dy))

    ar_p = ad.arctan(ad.safe_div(ad.sub(px2, px1), ad.sub(py2, py1), eps=eps))
    ar_g = ad.arctan(ad.safe_div(ad.sub(gx2, gx1), ad.sub(gy2, gy1), eps=eps))
    dar = ad.sub(ar_g, ar_p)
    v = ad.mul(ad.mul(dar, dar), Tensor(4.0 / math.pi ** 2))
    # alpha is a weight, not a path for the gradient: plain numpy, no nodes
    alpha = Tensor(v.data / (1.0 - iou.data + v.data + eps))
    return ad.sub(iou, ad.add(ad.safe_div(rho2, c2, eps=0.0), ad.mul(alpha, v)))


def total_loss(preds, assignments, gts_batch, cfg: ModelConfig):
    """Weighted sum of classification, box and distribution-focal terms,
    each normalized by the batch's count of assigned (foreground) anchors.

    assignments: per image, the level-major [A] array of assign_targets.
    Returns (total scalar Tensor, components dict of floats).
    """
    R1 = REG_MAX + 1
    B, nc = preds[0][0].shape[:2]
    for _, box in preds:
        if box.shape[1] != 4 * R1:
            raise ConfigError(f"box head channels {box.shape[1]} != {4 * R1}")
    centers, stride, _ = anchor_table([cls.shape[2:] for cls, _ in preds],
                                      cfg.level_strides, cfg.input_size)
    cls_all = ad.concat([ad.reshape(cls, (B, nc, -1)) for cls, _ in preds], axis=2)
    box_all = ad.concat([ad.reshape(box, (B, 4 * R1, -1)) for _, box in preds], axis=2)

    assign = np.stack(assignments)                       # [B,A]
    fb, fa = np.nonzero(assign >= 0)
    fg_gts = [gts_batch[b][g] for b, g in zip(fb, assign[fb, fa])]
    targets = np.zeros(cls_all.shape)                    # [B,nc,A]
    targets[fb, [g.class_id for g in fg_gts], fa] = 1.0
    # normalize the summed one-vs-all BCE by the foreground count, not the
    # anchor*class element count: a handful of positives must not be drowned
    # out by thousands of easy background terms
    num_fg = len(fb)
    l_cls = ad.mul(ad.sum_all(bce_with_logits(cls_all, targets)),
                   Tensor(1.0 / max(num_fg, 1)))
    if num_fg:
        box_sum, dfl_sum = _box_terms(ad.reshape(box_all[fb, :, fa], (num_fg, 4, R1)),
                                      centers[fa], stride[fa] / cfg.input_size,
                                      np.array([g.corners() for g in fg_gts]))
        inv_fg = Tensor(1.0 / num_fg)
        l_box = ad.mul(box_sum, inv_fg)
        l_dfl = ad.mul(dfl_sum, ad.mul(inv_fg, Tensor(0.25)))
    else:
        l_box = Tensor(0.0)
        l_dfl = Tensor(0.0)
    total = ad.add(ad.add(ad.mul(Tensor(LAMBDA_CLS), l_cls),
                          ad.mul(Tensor(LAMBDA_BOX), l_box)),
                   ad.mul(Tensor(LAMBDA_DFL), l_dfl))
    comps = {"cls": l_cls.item(), "box": l_box.item(), "dfl": l_dfl.item(),
             "total": total.item()}
    return total, comps


def _box_terms(logits: Tensor, centers: np.ndarray, stride_n: np.ndarray,
               gt_corners: np.ndarray):
    """Summed (1 - CIoU) and summed DFL of F foreground anchors.

    logits: [F,4,REG_MAX+1] distance-bin logits (left, top, right, bottom);
    centers: [F,2] and stride_n: [F] normalized anchor centers and strides;
    gt_corners: [F,4] normalized (x1,y1,x2,y2) of each anchor's GT.
    """
    R = REG_MAX
    bins = np.arange(R + 1, dtype=np.float64)
    probs = ad.softmax(logits, axis=2)
    dist = ad.sum_axis(ad.mul(probs, Tensor(bins.reshape(1, 1, R + 1))),
                       axis=2, keepdims=False)           # [F,4] stride units
    anchor = np.concatenate([centers, centers], axis=1)  # (cx,cy,cx,cy)
    signs = np.array([-1.0, -1.0, 1.0, 1.0])
    pred_corners = ad.add(Tensor(anchor), ad.mul(dist, Tensor(stride_n[:, None] * signs)))
    one = Tensor(np.ones(1))
    box_sum = ad.sum_all(ad.sub(one, ciou(pred_corners, Tensor(gt_corners))))

    # integral-bin regression targets: left/top/right/bottom distances
    t = (gt_corners - anchor) * signs / stride_n[:, None]
    t = np.clip(t, 0.0, R - 0.01)
    tl = np.floor(t)
    wl = tl + 1.0 - t
    onehot = np.zeros(logits.shape)
    fi = np.arange(len(t))[:, None]
    si = np.arange(4)[None, :]
    onehot[fi, si, tl.astype(np.int64)] = wl
    onehot[fi, si, tl.astype(np.int64) + 1] = 1.0 - wl
    logsm = ad.log_softmax(logits, axis=2)
    dfl_sum = ad.neg(ad.sum_all(ad.mul(logsm, Tensor(onehot))))
    return box_sum, dfl_sum


# ---------------------------------------------------------------------------
# decoding / NMS / evaluation  (pure numpy, inference side)

def decode_boxes(preds_np, cfg: ModelConfig, conf_threshold: float = 0.6,
                 iou_nms: float = 0.5) -> list[list[DetectionBox]]:
    """preds_np: per level (cls_logits, box_dist) numpy arrays; returns one
    DetectionBox list per batch image after thresholding and class-wise NMS."""
    R1 = REG_MAX + 1
    S = cfg.input_size
    B, nc = preds_np[0][0].shape[:2]
    centers, stride, _ = anchor_table([cls.shape[2:] for cls, _ in preds_np],
                                      cfg.level_strides, S)
    centers = centers * S
    cls_all = np.concatenate([cls.reshape(B, nc, -1) for cls, _ in preds_np], axis=2)
    box_all = np.concatenate([box.reshape(B, 4, R1, -1) for _, box in preds_np], axis=3)
    out = []
    for logits, dl in zip(cls_all, box_all):
        best_cls = logits.argmax(axis=0)
        conf = ad._sigmoid_np(logits.max(axis=0))
        # softmax expectation over the distance bins
        e = np.exp(dl - dl.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        dist = (probs * np.arange(R1)[None, :, None]).sum(axis=1) * stride
        # clip to the image, so coordinates stay normalized to [0,1]
        x1 = np.clip(centers[:, 0] - dist[0], 0, S)
        y1 = np.clip(centers[:, 1] - dist[1], 0, S)
        x2 = np.clip(centers[:, 0] + dist[2], 0, S)
        y2 = np.clip(centers[:, 1] + dist[3], 0, S)
        cx, cy = (x1 + x2) / 2 / S, (y1 + y2) / 2 / S
        w, h = (x2 - x1) / S, (y2 - y1) / S
        cand = [DetectionBox(cx[ai], cy[ai], w[ai], h[ai], int(best_cls[ai]), float(conf[ai]))
                for ai in np.flatnonzero(conf >= conf_threshold)]
        out.append(nms(cand, iou_nms))
    return out


def box_iou(a: DetectionBox, b: DetectionBox) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def nms(boxes: list[DetectionBox], iou_threshold: float) -> list[DetectionBox]:
    """Greedy class-wise suppression, highest confidence first."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i))
    keep = []
    for i in order:
        b = boxes[i]
        if all(k.class_id != b.class_id or box_iou(b, k) <= iou_threshold
               for k in keep):
            keep.append(b)
    return keep


def eval_map(dets_per_image: list[list[DetectionBox]],
             gts_per_image: list[list[DetectionBox]],
             iou_threshold: float = 0.5):
    """All-point interpolated AP per class and their unweighted mean.

    Detections are matched greedily in descending confidence; a GT can be
    matched at most once.  Classes absent from all GTs are excluded.
    """
    classes = sorted({g.class_id for gts in gts_per_image for g in gts})
    aps = {}
    for c in classes:
        n_gt = sum(1 for gts in gts_per_image for g in gts if g.class_id == c)
        dets = [(d.confidence, ii, d) for ii, dl in enumerate(dets_per_image)
                for d in dl if d.class_id == c]
        dets.sort(key=lambda t: -t[0])
        matched = [set() for _ in gts_per_image]
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for di, (_, ii, d) in enumerate(dets):
            best_iou, best_gi = 0.0, -1
            for gi, g in enumerate(gts_per_image[ii]):
                if g.class_id != c:
                    continue
                iou = box_iou(d, g)
                if iou > best_iou:
                    best_iou, best_gi = iou, gi
            if best_gi >= 0 and best_iou >= iou_threshold and best_gi not in matched[ii]:
                matched[ii].add(best_gi)
                tp[di] = 1
            else:
                fp[di] = 1
        ctp = np.cumsum(tp)
        cfp = np.cumsum(fp)
        recall = ctp / n_gt
        prec = ctp / np.maximum(ctp + cfp, 1e-12)
        aps[c] = _all_point_ap(recall, prec)
    mAP = float(np.mean(list(aps.values()))) if aps else 0.0
    return aps, mAP


def _all_point_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])  # precision envelope
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))
