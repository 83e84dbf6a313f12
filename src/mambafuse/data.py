"""Deterministic synthetic RGB-IR scene generator and PPM/PGM image I/O.

Scenes are rendered from a counter-based Philox stream keyed on
(seed, scene index), so a given seed reproduces bit-identical bytes on any
platform.  RGB frames carry texture and unlabeled clutter; IR frames are
texture-free intensity blobs whose brightness encodes the class.  Some
objects are visible in only one modality.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import ConfigError
from .detect import DetectionBox

NUM_CLASSES = 5

# flat fill colors per class for the RGB modality
_PALETTE = np.array([
    [0.85, 0.25, 0.20],
    [0.20, 0.70, 0.25],
    [0.25, 0.35, 0.85],
    [0.85, 0.75, 0.20],
    [0.70, 0.25, 0.75],
])


def scene_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(index))))


def rig_misalignment(seed: int) -> tuple[float, float]:
    """Constant (dy, dx) registration error of the IR sensor, in pixels at
    the 128 px reference scale.  Fixed per dataset seed: the two cameras of
    one rig are bolted several pixels out of register, more than one
    patchify pitch, so fusing the modalities requires re-alignment."""
    r = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(0xA110))))
    ang = r.uniform(0.0, 2.0 * np.pi)
    mag = r.uniform(6.0, 9.0)
    return mag * np.sin(ang), mag * np.cos(ang)


def _shape_mask(size: int, cx: float, cy: float, w: float, h: float,
                kind: str) -> np.ndarray:
    ys = (np.arange(size) + 0.5) / size
    xs = (np.arange(size) + 0.5) / size
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    if kind == "rectangle":
        return (np.abs(X - cx) <= w / 2) & (np.abs(Y - cy) <= h / 2)
    return ((X - cx) / (w / 2)) ** 2 + ((Y - cy) / (h / 2)) ** 2 <= 1.0


def _soft_mask(size: int, cx: float, cy: float, w: float, h: float,
               kind: str) -> np.ndarray:
    """Shape coverage in [0,1] with a ~2 px transition band: thermal
    signatures are diffuse, not hard-edged."""
    ys = (np.arange(size) + 0.5) / size
    xs = (np.arange(size) + 0.5) / size
    Y, X = np.meshgrid(ys, xs, indexing="ij")
    edge = 2.0 / size
    if kind == "rectangle":
        fy = np.clip((h / 2 - np.abs(Y - cy)) / edge + 0.5, 0.0, 1.0)
        fx = np.clip((w / 2 - np.abs(X - cx)) / edge + 0.5, 0.0, 1.0)
        return fy * fx
    s = np.sqrt(((X - cx) / (w / 2)) ** 2 + ((Y - cy) / (h / 2)) ** 2)
    band = 2.0 * edge / min(w, h)
    return np.clip((1.0 - s) / band + 0.5, 0.0, 1.0)


def render_scene(seed: int, index: int, size: int):
    """Returns (rgb [3,S,S], ir [1,S,S], labels: list[DetectionBox]), all in [0,1]."""
    rng = scene_rng(seed, index)
    rig_y, rig_x = rig_misalignment(seed)
    # low-frequency backgrounds
    coarse = rng.uniform(0.25, 0.55, size=(3, 8, 8))
    rgb = np.kron(coarse, np.ones((size // 8, size // 8)))
    rgb += rng.normal(0.0, 0.02, size=(3, size, size))
    ir = np.kron(rng.uniform(0.10, 0.25, size=(1, 8, 8)), np.ones((size // 8, size // 8)))
    ir += rng.normal(0.0, 0.01, size=(1, size, size))

    # unlabeled RGB clutter: small bright slivers
    for _ in range(int(rng.integers(2, 6))):
        ccx, ccy = rng.uniform(0.05, 0.95, size=2)
        cw = float(rng.uniform(0.01, 0.05))
        chh = float(rng.uniform(0.01, 0.05))
        m = _shape_mask(size, ccx, ccy, cw, chh, "rectangle")
        rgb[:, m] = rng.uniform(0.0, 1.0, size=3)[:, None]

    labels: list[DetectionBox] = []
    n_obj = int(rng.integers(1, 4))
    for _ in range(n_obj):
        cls = int(rng.integers(0, NUM_CLASSES))
        kind = "rectangle" if cls % 2 == 0 else "ellipse"
        for _attempt in range(10):
            # sized for the middle pyramid level, whose anchor spacing can
            # actually cover them on a desk-scale grid
            w = float(rng.uniform(0.10, 0.24))
            h = float(rng.uniform(0.10, 0.24))
            cx = float(rng.uniform(w / 2 + 0.02, 1.0 - w / 2 - 0.02))
            cy = float(rng.uniform(h / 2 + 0.02, 1.0 - h / 2 - 0.02))
            cand = DetectionBox(cx, cy, w, h, cls)
            if all(_overlap(cand, b) < 0.25 for b in labels):
                break
        vis_roll = rng.uniform()
        visibility = "both" if vis_roll < 0.6 else ("rgb" if vis_roll < 0.8 else "ir")
        mask = _shape_mask(size, cx, cy, w, h, kind)
        if visibility in ("both", "rgb"):
            color = _PALETTE[cls] + rng.normal(0.0, 0.03, size=3)
            rgb[:, mask] = color[:, None]
            rgb[:, mask] += rng.normal(0.0, 0.04, size=(3, int(mask.sum())))
        if visibility in ("both", "ir"):
            # the modalities are only weakly registered: the thermal
            # signature sits at the rig's constant misregistration plus a
            # small per-object jitter away from the labeled position
            jy, jx = rng.uniform(-1.0, 1.0, size=2)
            sy = (rig_y + jy) / 128.0
            sx = (rig_x + jx) / 128.0
            sm = _soft_mask(size, cx + sx, cy + sy, w, h, kind)
            # class-coded peak intensity over a diffuse blob
            ir[0] = ir[0] * (1.0 - sm) + (0.50 + 0.10 * cls) * sm
        cand.validate()
        labels.append(cand)

    return np.clip(rgb, 0.0, 1.0), np.clip(ir, 0.0, 1.0), labels


def _overlap(a: DetectionBox, b: DetectionBox) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    return iw * ih / min(a.w * a.h, b.w * b.h)


# ---------------------------------------------------------------------------
# image files

def write_ppm(path, rgb: np.ndarray) -> None:
    """rgb: [3,H,W] floats in [0,1] -> binary P6, maxval 255."""
    _, H, W = rgb.shape
    pix = np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
        f.write(pix.transpose(1, 2, 0).tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """gray: [1,H,W] floats in [0,1] -> binary P5, maxval 255."""
    _, H, W = gray.shape
    pix = np.clip(np.round(gray * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{W} {H}\n255\n".encode("ascii"))
        f.write(pix[0].tobytes())


def _read_pnm(path, magic: bytes):
    """Parse a binary PPM/PGM with maxval 1..255; any malformed header or
    short pixel block raises IOError."""
    with open(path, "rb") as f:
        blob = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            end = blob.find(b"\n", pos)
            if end < 0:
                raise IOError(f"{path}: unterminated comment in header")
            pos = end + 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise IOError(f"{path}: truncated header")
        fields.append(blob[start:pos])
    if fields[0] != magic:
        raise IOError(f"{path}: expected {magic.decode()} file, got {fields[0]!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise IOError(f"{path}: header fields {fields[1:]!r} are not all unsigned integers")
    W, H, maxval = (int(f) for f in fields[1:])
    if W < 1 or H < 1:
        raise IOError(f"{path}: image size {W}x{H} is not positive")
    if not 1 <= maxval <= 255:
        raise IOError(f"{path}: maxval {maxval} outside 1..255 (8-bit samples only)")
    count = W * H * (3 if magic == b"P6" else 1)
    # exactly one whitespace byte separates maxval from the samples
    pixels = blob[pos + 1:pos + 1 + count]
    if len(pixels) < count:
        raise IOError(f"{path}: {len(pixels)} of {count} pixel bytes present")
    return W, H, maxval, np.frombuffer(pixels, dtype=np.uint8)


def read_ppm(path) -> np.ndarray:
    W, H, maxval, data = _read_pnm(path, b"P6")
    # channel-major in memory, not a [3,H,W] view of the interleaved bytes:
    # on that view numpy's max and sum over channels run 30-100x slower
    return data.reshape(H, W, 3).transpose(2, 0, 1).astype(np.float64, order="C") / maxval


def read_pgm(path) -> np.ndarray:
    W, H, maxval, data = _read_pnm(path, b"P5")
    return data.reshape(1, H, W).astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# dataset on disk

def write_labels(path, labels: list[DetectionBox]) -> None:
    with open(path, "w") as f:
        for b in labels:
            f.write(f"{b.class_id} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}\n")


def read_labels(path) -> list[DetectionBox]:
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 5:
                raise IOError(f"{path} line {lineno}: expected 5 fields, got {len(parts)}")
            try:
                cls = int(parts[0])
                cx, cy, w, h = map(float, parts[1:])
            except ValueError as e:
                raise IOError(f"{path} line {lineno}: {e}") from e
            b = DetectionBox(cx, cy, w, h, cls)
            b.validate()
            out.append(b)
    return out


def synth_dataset(seed: int, n: int, size: int, out_dir) -> Path:
    """Write n scenes (PPM + PGM + labels) plus an index file; deterministic."""
    if size < 64 or size % 64:
        raise ConfigError(f"image size {size} must be a positive multiple of 64")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = []
        for i in range(n):
            rgb, ir, labels = render_scene(seed, i, size)
            stem = f"scene_{i:03d}"
            write_ppm(out / f"{stem}_rgb.ppm", rgb)
            write_pgm(out / f"{stem}_ir.pgm", ir)
            write_labels(out / f"{stem}_labels.txt", labels)
            lines.append(f"{stem} {stem}_rgb.ppm {stem}_ir.pgm {stem}_labels.txt")
        with open(out / "index.txt", "w") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
    except OSError as e:
        raise IOError(f"cannot write dataset to {out}: {e}") from e
    return out


def load_dataset(data_dir):
    """Returns (ids, rgb [N,3,S,S], ir [N,1,S,S], labels per image)."""
    data_dir = Path(data_dir)
    index = data_dir / "index.txt"
    if not index.exists():
        raise IOError(f"no index.txt in {data_dir}")
    ids, rgbs, irs, labels = [], [], [], []
    with open(index) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise IOError(f"{index} line {lineno}: expected 4 fields "
                              f"(id, rgb, ir, labels), got {len(parts)}")
            stem, rgb_f, ir_f, lab_f = parts
            ids.append(stem)
            rgbs.append(read_ppm(data_dir / rgb_f))
            irs.append(read_pgm(data_dir / ir_f))
            labels.append(read_labels(data_dir / lab_f))
            for name, img in ((rgb_f, rgbs[-1]), (ir_f, irs[-1])):
                if img.shape[1:] != rgbs[0].shape[1:]:
                    raise IOError(f"{data_dir / name}: image size {img.shape[1:]} "
                                  f"differs from {rgbs[0].shape[1:]} of the first scene")
    if not ids:
        return ids, np.zeros((0,)), np.zeros((0,)), labels
    return ids, np.stack(rgbs), np.stack(irs), labels
