"""Detection neck, anchor-free head, target assignment, losses, box
decoding, and average-precision evaluation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .config import ModelConfig
from .nn import Conv2d, Module
from .ssm import MambaBlock

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
    through its own scan block before concatenation."""

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
        cat = ad.concat([y0, self.m1(p1), self.m2(p2), self.m3(p3)], axis=1)
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


def assign_targets(gts: list[DetectionBox], grids: list[tuple[int, int]],
                   strides, image_size: int) -> list[np.ndarray]:
    """Center-prior assignment: per level a [H*W] int array of GT index or -1.

    Rule: an anchor is a candidate for a GT when its center lies inside the
    GT box and the GT's scale routes to that level; each candidate anchor
    takes the nearest GT center (ties -> lower GT index).  A routed GT left
    with no anchor claims the nearest still-background anchor on its level,
    so every GT is trainable even on coarse grids.
    """
    out = []
    routed = [route_level(g) for g in gts]
    for li, ((gh, gw), stride) in enumerate(zip(grids, strides)):
        centers = anchor_centers(gh, gw, stride, image_size)
        assign = np.full(gh * gw, -1, dtype=np.int64)
        best_d2 = np.full(gh * gw, np.inf)
        for gi, g in enumerate(gts):
            if routed[gi] != li:
                continue
            inside = (np.abs(centers[:, 0] - g.cx) < g.w / 2) & \
                     (np.abs(centers[:, 1] - g.cy) < g.h / 2)
            d2 = (centers[:, 0] - g.cx) ** 2 + (centers[:, 1] - g.cy) ** 2
            take = inside & (d2 < best_d2)  # strict: ties stay with lower index
            assign[take] = gi
            best_d2[take] = d2[take]
        for gi, g in enumerate(gts):
            if routed[gi] != li or np.any(assign == gi):
                continue
            d2 = (centers[:, 0] - g.cx) ** 2 + (centers[:, 1] - g.cy) ** 2
            free = assign < 0
            if free.any():
                cand = np.where(free)[0]
                assign[cand[np.argmin(d2[free])]] = gi
        out.append(assign)
    return out


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

    assignments: per image, per level [H*W] arrays from assign_targets.
    Returns (total scalar Tensor, components dict of floats).
    """
    R = REG_MAX
    R1 = R + 1
    nc = cfg.num_classes
    S = cfg.input_size
    bins = np.arange(R1, dtype=np.float64)

    cls_sum = None
    num_fg = 0
    box_terms = []
    dfl_terms = []
    for li, (cls, box) in enumerate(preds):
        B, _, H, W = cls.shape
        if box.shape[1] != 4 * R1:
            raise ConfigError(f"box head channels {box.shape[1]} != {4 * R1}")
        A = H * W
        cls_flat = ad.transpose(ad.reshape(cls, (B, nc, A)), (0, 2, 1))      # [B,A,nc]
        box_flat = ad.transpose(ad.reshape(box, (B, 4 * R1, A)), (0, 2, 1))  # [B,A,4*R1]
        targets = np.zeros((B, A, nc))
        fg_b, fg_a, fg_g = [], [], []
        for bi in range(B):
            assign = assignments[bi][li]
            fg = np.where(assign >= 0)[0]
            for ai in fg:
                gi = assign[ai]
                targets[bi, ai, gts_batch[bi][gi].class_id] = 1.0
                fg_b.append(bi)
                fg_a.append(ai)
                fg_g.append(gi)
        lvl_cls = ad.sum_all(bce_with_logits(cls_flat, targets))
        cls_sum = lvl_cls if cls_sum is None else ad.add(cls_sum, lvl_cls)

        if not fg_b:
            continue
        num_fg += len(fg_b)
        fb = np.asarray(fg_b)
        fa = np.asarray(fg_a)
        stride = cfg.level_strides[li]
        stride_n = stride / S
        centers = anchor_centers(H, W, stride, S)[fa]    # [F,2] normalized
        gt_corners = np.array([gts_batch[b][g].corners()
                               for b, g in zip(fg_b, fg_g)])

        box_logits = ad.reshape(box_flat[fb, fa], (len(fb), 4, R1))
        probs = ad.softmax(box_logits, axis=2)
        dist = ad.sum_axis(ad.mul(probs, Tensor(bins.reshape(1, 1, R1))),
                           axis=2, keepdims=False)       # [F,4] stride units
        dist_n = ad.mul(dist, Tensor(stride_n))
        cx = Tensor(centers[:, 0])
        cy = Tensor(centers[:, 1])
        pred_corners = ad.concat([
            ad.reshape(ad.sub(cx, dist_n[:, 0]), (-1, 1)),
            ad.reshape(ad.sub(cy, dist_n[:, 1]), (-1, 1)),
            ad.reshape(ad.add(cx, dist_n[:, 2]), (-1, 1)),
            ad.reshape(ad.add(cy, dist_n[:, 3]), (-1, 1)),
        ], axis=1)
        one = Tensor(np.ones(1))
        box_terms.append(ad.sum_all(ad.sub(one, ciou(pred_corners, Tensor(gt_corners)))))

        # integral-bin regression targets: left/top/right/bottom distances
        t = np.stack([
            centers[:, 0] - gt_corners[:, 0],
            centers[:, 1] - gt_corners[:, 1],
            gt_corners[:, 2] - centers[:, 0],
            gt_corners[:, 3] - centers[:, 1],
        ], axis=1) / stride_n
        t = np.clip(t, 0.0, R - 0.01)
        tl = np.floor(t)
        wl = tl + 1.0 - t
        logsm = ad.log_softmax(box_logits, axis=2)
        onehot_l = np.zeros((len(fb), 4, R1))
        onehot_r = np.zeros((len(fb), 4, R1))
        fi = np.arange(len(fb))[:, None]
        si = np.arange(4)[None, :]
        onehot_l[fi, si, tl.astype(np.int64)] = wl
        onehot_r[fi, si, tl.astype(np.int64) + 1] = 1.0 - wl
        dfl = ad.neg(ad.sum_all(ad.mul(logsm, Tensor(onehot_l + onehot_r))))
        dfl_terms.append(dfl)

    # normalize the summed one-vs-all BCE by the foreground count, not the
    # anchor*class element count: a handful of positives must not be drowned
    # out by thousands of easy background terms
    l_cls = ad.mul(cls_sum, Tensor(1.0 / max(num_fg, 1)))
    if box_terms:
        inv_fg = Tensor(1.0 / num_fg)
        l_box = ad.mul(functools.reduce(ad.add, box_terms), inv_fg)
        l_dfl = ad.mul(functools.reduce(ad.add, dfl_terms), ad.mul(inv_fg, Tensor(0.25)))
    else:
        l_box = Tensor(0.0)
        l_dfl = Tensor(0.0)
    total = ad.add(ad.add(ad.mul(Tensor(LAMBDA_CLS), l_cls),
                          ad.mul(Tensor(LAMBDA_BOX), l_box)),
                   ad.mul(Tensor(LAMBDA_DFL), l_dfl))
    comps = {"cls": l_cls.item(), "box": l_box.item(), "dfl": l_dfl.item(),
             "total": total.item()}
    return total, comps


# ---------------------------------------------------------------------------
# decoding / NMS / evaluation  (pure numpy, inference side)

def decode_boxes(preds_np, cfg: ModelConfig, conf_threshold: float = 0.6,
                 iou_nms: float = 0.5) -> list[list[DetectionBox]]:
    """preds_np: per level (cls_logits, box_dist) numpy arrays; returns one
    DetectionBox list per batch image after thresholding and class-wise NMS."""
    R1 = REG_MAX + 1
    S = cfg.input_size
    B = preds_np[0][0].shape[0]
    out = []
    for bi in range(B):
        cand = []
        for li, (cls, box) in enumerate(preds_np):
            stride = cfg.level_strides[li]
            nc, H, W = cls.shape[1:]
            logits = cls[bi].reshape(nc, -1)
            best_cls = logits.argmax(axis=0)
            conf = ad._sigmoid_np(logits.max(axis=0))
            dl = box[bi].reshape(4, R1, -1)
            # softmax expectation over the distance bins
            e = np.exp(dl - dl.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            dist = (probs * np.arange(R1)[None, :, None]).sum(axis=1) * stride
            centers = anchor_centers(H, W, stride, S) * S
            # clip to the image, so coordinates stay normalized to [0,1]
            x1 = np.clip(centers[:, 0] - dist[0], 0, S)
            y1 = np.clip(centers[:, 1] - dist[1], 0, S)
            x2 = np.clip(centers[:, 0] + dist[2], 0, S)
            y2 = np.clip(centers[:, 1] + dist[3], 0, S)
            keep = conf >= conf_threshold
            for ai in np.where(keep)[0]:
                cx = (x1[ai] + x2[ai]) / 2 / S
                cy = (y1[ai] + y2[ai]) / 2 / S
                w = (x2[ai] - x1[ai]) / S
                h = (y2[ai] - y1[ai]) / S
                cand.append(DetectionBox(cx, cy, w, h, int(best_cls[ai]),
                                         float(conf[ai])))
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
