"""SGD training loop with cosine learning-rate annealing."""

from __future__ import annotations

import contextlib
import ctypes
import math
import warnings

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import ConfigError, NumericError, Tape, Tensor
from .config import ModelConfig, TrainConfig
from .data import load_dataset
from .deformable import DeformableToken
from .detect import assign_targets, total_loss
from .model import Detector, build_detector
from .nn import Module

# Learning-rate multiple for the offset conv of every DeformableToken;
# Deformable ConvNets (Dai et al. 2017) likewise train their offset layers at
# their own rate.  The offset convs start at zero and get ~0.2% of the
# (mostly clipped) global gradient norm early on, and the cosine schedule
# freezes them by the middle of a run, so at 1x whether the learned
# displacements pass one pixel depends on the seed.  On the tiny 128 px
# recipe, 6x took training seeds 0-3 to 7-14 px at train mAP 1.0; 4x, the
# smallest multiple tried, left seed 2 at 0.7 px.
OFFSET_LR_MULT = 6.0

# The fixed YOLOv11-style SGD recipe: a cosine schedule from LR_INITIAL to
# LR_FINAL, momentum, weight decay, and a cap on the global gradient norm.
LR_INITIAL = 0.01
LR_FINAL = 0.0001
MOMENTUM = 0.937
WEIGHT_DECAY = 0.0005
GRAD_CLIP = 10.0

# A step runs over at most this many values of a parameter at a time, so a
# chunk's parameter, gradient, velocity and two temporaries stay in a core's
# L2 cache across its seven passes.  At paper width this took ~1 ms off a
# ~11 ms step against whole-parameter passes (2-core Xeon VM, 4 MB L2/core).
_STEP_CHUNK = 1 << 16


def cosine_lr(step: int, total_steps: int, lr_initial: float, lr_final: float) -> float:
    """lr(0) = lr_initial, lr(total_steps-1) = lr_final."""
    if total_steps <= 1:
        return lr_initial
    t = step / (total_steps - 1)
    return lr_final + 0.5 * (lr_initial - lr_final) * (1.0 + math.cos(math.pi * t))


class SGD:
    """SGD with momentum and decoupled-into-gradient weight decay, in place.

    ``lr_mults`` gives each parameter a multiple of the scheduled learning
    rate (default 1); ``for_model`` builds the two groups that training uses.

    ``step`` writes each parameter's ``data`` and velocity in place.  Its two
    temporaries are the halves of one scratch buffer per dtype, each as large
    as the largest parameter up to _STEP_CHUNK values; a larger parameter
    steps through them in chunks of rows.  So the optimizer holds the
    velocity plus that buffer and allocates nothing the size of a parameter
    per step.  Gradients are only read: a leaf's ``grad`` may be a read-only
    broadcast view, or one array that two parameters share.
    """

    def __init__(self, params, momentum: float, weight_decay: float,
                 lr_mults=None):
        self.params = list(params)
        self.lr_mults = ([1.0] * len(self.params) if lr_mults is None
                         else [float(m) for m in lr_mults])
        if len(self.lr_mults) != len(self.params):
            raise ValueError(f"{len(self.lr_mults)} lr multiples for "
                             f"{len(self.params)} parameters")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self._grad_scale: float | None = None   # set by clip_grad_norm
        self._chunks = self._plan_chunks()

    def _plan_chunks(self) -> list:
        """Per parameter, its chunks as (rows, a, b): ``rows`` indexes axis 0
        (``...`` for the whole parameter), and ``a`` and ``b`` are views of
        the two halves of its dtype's scratch buffer, shaped like
        ``p.data[rows]``.  A half holds _STEP_CHUNK values, or the largest
        parameter if that is smaller, or one row of axis 0 if that is larger."""
        half = {}
        for p in self.params:
            d = p.data
            half[d.dtype] = max(half.get(d.dtype, 0), min(d.size, _STEP_CHUNK),
                                math.prod(d.shape[1:]))
        scratch = {dt: np.empty(2 * n, dtype=dt) for dt, n in half.items()}
        plan = []
        for p in self.params:
            d = p.data
            n, buf = half[d.dtype], scratch[d.dtype]
            rows = 0 if d.size <= n else n // math.prod(d.shape[1:])
            parts = [slice(r, r + rows) for r in range(0, d.shape[0], rows)] if rows else [...]
            plan.append([(i, buf[:d[i].size].reshape(d[i].shape),
                          buf[n:n + d[i].size].reshape(d[i].shape)) for i in parts])
        return plan

    @classmethod
    def for_model(cls, model: Module, momentum: float, weight_decay: float) -> "SGD":
        """The ``offset_conv`` parameters of every ``DeformableToken`` step at
        ``OFFSET_LR_MULT`` times the scheduled rate, all others at 1x."""
        offset = {id(p) for m in model.modules() if isinstance(m, DeformableToken)
                  for p in m.offset_conv.parameters()}
        params = model.parameters()
        return cls(params, momentum, weight_decay,
                   [OFFSET_LR_MULT if id(p) in offset else 1.0 for p in params])

    def step(self, lr: float) -> None:
        """Per parameter: ``g = s·grad + wd·p`` with ``s`` the scale that
        ``clip_grad_norm`` set (a missing gradient counts as zeros), then
        ``v = m·v + g`` and ``p = p - (lr·mult)·v``, each rounded in that
        order."""
        scale, self._grad_scale = self._grad_scale, None
        # the scalars as 0-d arrays of each parameter's dtype: rounded as a
        # Python float would be, at a smaller dispatch cost per small tensor
        scalars = {}
        for p, v, mult, chunks in zip(self.params, self.velocity, self.lr_mults,
                                      self._chunks):
            d, g = p.data, p.grad
            key = (d.dtype, mult)
            if key not in scalars:
                scalars[key] = [np.array(x, d.dtype) for x in (
                    self.weight_decay, self.momentum, lr * mult,
                    1.0 if scale is None else scale)]
            wd, momentum, lr_p, s = scalars[key]
            for rows, a, b in chunks:
                dr, vr = d[rows], v[rows]
                np.multiply(dr, wd, out=a)
                if g is None:
                    np.add(a, 0.0, out=a)   # 0 + wd·p: a -0.0 becomes +0.0
                elif scale is None:
                    np.add(g[rows], a, out=a)
                else:
                    np.multiply(g[rows], s, out=b)
                    np.add(b, a, out=a)
                vr *= momentum
                vr += a
                np.multiply(vr, lr_p, out=a)
                np.subtract(dr, a, out=dr)

    def zero_grad(self) -> None:
        self._grad_scale = None
        for p in self.params:
            p.grad = None

    def clip_grad_norm(self, max_norm: float) -> float:
        """Return the global L2 norm of the gradients.  Above max_norm, the
        next ``step`` scales every gradient by max_norm / norm; the
        gradients themselves stay as they are.

        Each gradient's square-sum is one dot product in its own dtype (a
        float32 BLAS dot: at most ~1e-7 relative error in the norm, and no
        copy of the gradient), summed across tensors as a Python float."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                g = p.grad.ravel()
                total += float(np.dot(g, g))
        norm = math.sqrt(total)
        self._grad_scale = max_norm / norm if norm > max_norm else None
        return norm


# (setter, getter) thread-count symbols of OpenBLAS builds: numpy's bundled
# scipy-openblas, 64-bit-integer OpenBLAS, plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas_thread_fns: tuple | None = None   # () once a lookup found nothing


def _find_blas_thread_fns() -> tuple:
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    except OSError:
        return ()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_sym, get_sym in _BLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_sym, None)
            getter = getattr(lib, get_sym, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return ()


def blas_thread_fns():
    """(set, get) thread-count functions of the OpenBLAS that numpy loaded,
    or None after warning once that the BLAS thread count cannot be pinned."""
    global _blas_thread_fns
    if _blas_thread_fns is None:
        _blas_thread_fns = _find_blas_thread_fns()
        if not _blas_thread_fns:
            warnings.warn("BLAS thread count not pinned: no OpenBLAS thread "
                          "symbol found, so training bits may depend on it",
                          RuntimeWarning, stacklevel=2)
    return _blas_thread_fns or None


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with the BLAS pool at one thread, then restore it.  A
    multi-threaded BLAS splits its sums by thread count, which changes
    training bits from the first gradient on."""
    fns = blas_thread_fns()
    if fns is None:
        yield
        return
    setter, getter = fns
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _mini_batches(n: int, batch_size: int):
    """Deterministic round-robin batching over sample indices."""
    order = np.arange(n)
    pos = 0
    while True:
        idx = [(pos + k) % n for k in range(min(batch_size, n))]
        yield order[idx]
        pos = (pos + batch_size) % n


def compute_batch_loss(model: Detector, rgb, ir, labels, cfg: ModelConfig,
                       tc: TrainConfig):
    """Forward plus loss: (total scalar Tensor, components dict)."""
    preds = model(Tensor(rgb), Tensor(ir))
    grids = [(p[0].shape[2], p[0].shape[3]) for p in preds]
    assignments = [assign_targets(lab, grids, cfg.level_strides, cfg.input_size)
                   for lab in labels]
    return total_loss(preds, assignments, labels, cfg)


def train(cfg: ModelConfig, tc: TrainConfig, data_dir, ckpt_path,
          log=print, model: Detector | None = None) -> Detector:
    """Run the SGD loop; logs ``step total cls box dfl lr`` per step and
    writes the final checkpoint.  The BLAS pool runs at one thread during
    the steps, so the result does not depend on its thread count."""
    if model is None:
        model = build_detector(cfg, seed=tc.seed)
    ids, rgbs, irs, labels = load_dataset(data_dir)
    if not ids:
        raise IOError(f"dataset at {data_dir} is empty")
    if rgbs.shape[2:] != (cfg.input_size, cfg.input_size):
        raise ConfigError(f"images are {rgbs.shape[3]}x{rgbs.shape[2]} px, but the "
                          f"anchors are laid out for input_size={cfg.input_size}")
    for image_id, boxes in zip(ids, labels):
        for b in boxes:
            if b.class_id >= cfg.num_classes:
                raise ConfigError(f"image {image_id}: class {b.class_id} is out of "
                                  f"range for num_classes={cfg.num_classes}")
    opt = SGD.for_model(model, MOMENTUM, WEIGHT_DECAY)
    with _single_blas_thread():
        batches = _mini_batches(len(ids), tc.batch_size)
        for step in range(tc.steps):
            idx = next(batches)
            lr = cosine_lr(step, tc.steps, LR_INITIAL, LR_FINAL)
            opt.zero_grad()
            with Tape() as tape:
                loss, comps = compute_batch_loss(
                    model, rgbs[idx], irs[idx], [labels[i] for i in idx], cfg, tc)
                if not math.isfinite(comps["total"]):
                    raise NumericError(f"non-finite loss at step {step}")
                ad.backward(tape, loss)
            opt.clip_grad_norm(GRAD_CLIP)
            opt.step(lr)
            log(f"{step} {comps['total']:.6f} {comps['cls']:.6f} "
                f"{comps['box']:.6f} {comps['dfl']:.6f} {lr:.6f}")
    if ckpt_path is not None:
        checkpoint.save(ckpt_path, model.state_dict())
    return model

