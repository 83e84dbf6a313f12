"""Dense-tensor arithmetic with reverse-mode automatic differentiation.

A define-by-run tape: inside an open ``Tape`` every primitive records a
``Node`` that holds its backward closure and a gradient slot, but not its
output, so an activation that no closure reads is freed as soon as the
forward pass drops it.  Outside every ``Tape`` (or under ``no_grad``)
nothing is recorded.  ``backward`` consumes the tape.  Arrays are plain
numpy, float32 by default with a float64 mode for gradient checking.

``conv2d`` is the one convolution kernel: a loop over the kernel taps, each
a GEMM on a contiguous slice of the channel-major padded input, held as flat
phase maps.  A rank-3 weight [C,K,K] makes it a depthwise conv, and taps
that read only zero padding are skipped.  The bilinear sampler reads the
same kind of map: each corner is one gather at a constant offset.

A closure keeps the arrays that its op's inputs already own and rebuilds
anything derived from them in the backward (a sigmoid, an argmax, a
sampler's padded map and corner weights) with the same numpy calls in the
same order, so gradients are the same bits as if it had been kept.  The
exceptions keep one array that costs more to rebuild than to hold: a conv's
padded input (its phase maps, which every tap reads) and tap-major weights,
an output or slope that would cost an exp or a sqrt again (sigmoid, exp,
sqrt, softplus), a mask or argmax the size of the output, and the scan's
chunk-boundary states.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Optional, Sequence

import numpy as np

SAFE_DIV_EPS = 1e-4


class ConfigError(ValueError):
    """Raised for shape/parameter configuration mistakes."""


class AlignmentError(ConfigError):
    """Raised when two feature maps that must be spatially aligned are not."""


class UsageError(ValueError):
    """Raised for API misuse (e.g. backward on a non-scalar loss)."""


class NumericError(ArithmeticError):
    """Raised when a non-finite value appears inside a guarded computation."""


# ---------------------------------------------------------------------------
# precision mode

_dtype = np.float32


def set_default_dtype(dtype) -> None:
    global _dtype
    if dtype not in (np.float32, np.float64):
        raise UsageError(f"unsupported dtype {dtype!r}")
    _dtype = dtype


@contextlib.contextmanager
def precision(mode: str):
    """Temporarily switch the default dtype; mode is 'f32' or 'f64'."""
    global _dtype
    if mode not in ("f32", "f64"):
        raise UsageError(f"unknown precision mode {mode!r}")
    prev = _dtype
    _dtype = np.float64 if mode == "f64" else np.float32
    try:
        yield
    finally:
        _dtype = prev


# ---------------------------------------------------------------------------
# tape

class Node:
    """One recorded primitive: its backward closure, the gradient slot of its
    output, the output's shape and dtype, and one reference per input: the
    input's node, the input itself if it is a leaf that requires grad, or
    None for a constant."""

    __slots__ = ("fn", "grad", "shape", "dtype", "parents")

    def __init__(self, fn: Callable, shape: tuple, dtype, parents: tuple):
        self.fn = fn
        self.grad: Optional[np.ndarray] = None
        self.shape = shape
        self.dtype = dtype
        self.parents = parents


class Tape:
    """Ordered record of primitive applications (topological by construction).

    ``backward`` empties every node as it sweeps it and marks the tape
    consumed; the emptied nodes stay in ``nodes``, so ``len`` still counts
    what was recorded."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _stack.append(self)
        return self

    def __exit__(self, *exc):
        _stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


# the open tapes, innermost last, and whether recording is on; training
# records on one thread
_stack: list[Tape] = []
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# ---------------------------------------------------------------------------
# tensor

class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _dtype)
        if self.data.ndim > 4:
            raise ConfigError(f"rank {self.data.ndim} > 4 not supported")
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None   # set on leaves only
        self.node: Optional[Node] = None         # the node that produced it

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def _record(out: Tensor, parents: Sequence[Tensor], fn: Callable) -> Tensor:
    if _stack and _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        refs = tuple(p.node if p.node is not None else (p if p.requires_grad else None)
                     for p in parents)
        out.node = Node(fn, out.data.shape, out.data.dtype, refs)
        _stack[-1].nodes.append(out.node)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, ext in enumerate(shape):
        if ext == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _sum_into(acc: Optional[np.ndarray], g, shape: tuple, dtype) -> np.ndarray:
    g = _unbroadcast(np.asarray(g, dtype=dtype), shape)
    # accumulation always builds a fresh array, so aliasing g is safe
    return g if acc is None else acc + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep over ``tape`` seeding at scalar ``loss``.

    Intermediate gradients live in node slots; each node's closure, slot
    and input references are dropped as soon as it is swept, so the tape is
    consumed.  Leaf gradients accumulate into ``.grad``.
    """
    if loss.size != 1:
        raise UsageError(f"loss must be scalar, got shape {loss.shape}")
    if tape.consumed:
        raise UsageError("tape was consumed by an earlier backward; "
                         "record the forward pass on a new Tape")
    tape.consumed = True
    root = loss.node
    if root is not None:
        root.grad = np.ones(root.shape, dtype=root.dtype)
    seen = False
    for node in reversed(tape.nodes):
        if node is root:
            seen = True
        gy, fn, parents = node.grad, node.fn, node.parents
        node.grad = node.fn = node.parents = None
        if gy is None:
            continue
        for ref, g in zip(parents, fn(gy)):
            if ref is None or g is None:
                continue
            if type(ref) is Node:
                ref.grad = _sum_into(ref.grad, g, ref.shape, ref.dtype)
            else:
                ref.grad = _sum_into(ref.grad, g, ref.data.shape, ref.data.dtype)
    if not seen and loss.requires_grad:
        raise UsageError("loss is not on the given tape")


# ---------------------------------------------------------------------------
# elementwise primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda gy: (gy, gy))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda gy: (gy, -gy))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda gy: (-gy,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), lambda gy: (gy * b.data, gy * a.data))


def safe_div(a: Tensor, b: Tensor, eps: float = SAFE_DIV_EPS) -> Tensor:
    """a / (b + eps); eps=0 gives plain division."""
    out = Tensor(a.data / (b.data + eps))

    def bw(gy):
        denom = b.data + eps
        return (gy / denom, -gy * a.data / (denom * denom))

    return _record(out, (a, b), bw)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)
    out = Tensor(s)
    return _record(out, (a,), lambda gy: (gy * s * (1.0 - s),))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # stable form: exp is only ever taken of a non-positive argument
    return _sigmoid_from_z(x, np.exp(-np.abs(x)))


def _sigmoid_from_z(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sigmoid(x) given z = exp(-|x|)."""
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def silu(a: Tensor) -> Tensor:
    out = Tensor(a.data * _sigmoid_np(a.data))

    def bw(gy):
        s = _sigmoid_np(a.data)
        return (gy * (s + a.data * s * (1.0 - s)),)

    return _record(out, (a,), bw)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda gy: (gy * e,))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda gy: (gy / a.data,))


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)
    out = Tensor(r)
    return _record(out, (a,), lambda gy: (gy * 0.5 / r,))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|})
    # the derivative, sigmoid(x), shares exp(-|x|) with the value
    x = a.data
    z = np.exp(-np.abs(x))
    out = Tensor(np.maximum(x, 0.0) + np.log1p(z))
    s = _sigmoid_from_z(x, z)
    return _record(out, (a,), lambda gy: (gy * s,))


def arctan(a: Tensor) -> Tensor:
    out = Tensor(np.arctan(a.data))
    return _record(out, (a,), lambda gy: (gy / (1.0 + a.data * a.data),))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data >= b.data  # ties route to the first argument
    out = Tensor(np.where(take_a, a.data, b.data))
    return _record(
        out, (a, b),
        lambda gy: (gy * take_a, gy * ~take_a),
    )


def minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data
    out = Tensor(np.where(take_a, a.data, b.data))
    return _record(
        out, (a, b),
        lambda gy: (gy * take_a, gy * ~take_a),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(a.data * mask)
    return _record(out, (a,), lambda gy: (gy * mask,))


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda gy: (gy.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    out = Tensor(a.data.transpose(axes))
    return _record(out, (a,), lambda gy: (gy.transpose(inv),))


def flip(a: Tensor, axis: int) -> Tensor:
    out = Tensor(np.flip(a.data, axis=axis))
    return _record(out, (a,), lambda gy: (np.flip(gy, axis=axis),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bw(gy):
        return tuple(np.split(gy, splits, axis=axis))

    return _record(out, tensors, bw)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Join equal-shaped tensors along a new leading axis."""
    tensors = list(tensors)
    out = Tensor(np.stack([t.data for t in tensors]))
    return _record(out, tensors, lambda gy: tuple(gy))


def getitem(a: Tensor, idx) -> Tensor:
    out = Tensor(a.data[idx])
    shape = a.data.shape
    # basic indexing never aliases, so plain assignment is enough; only
    # integer-array (fancy) indexing can select an element twice
    parts = idx if isinstance(idx, tuple) else (idx,)
    basic = all(isinstance(p, (int, np.integer, slice, type(None),
                               type(Ellipsis))) for p in parts)

    def bw(gy):
        g = np.zeros(shape, dtype=gy.dtype)
        if basic:
            g[idx] = gy
        else:
            np.add.at(g, idx, gy)
        return (g,)

    return _record(out, (a,), bw)


def pad2d(a: Tensor, pad: int) -> Tensor:
    if a.ndim != 4:
        raise ConfigError(f"pad2d needs rank 4, got {a.ndim}")
    if pad == 0:
        return a
    out = Tensor(np.pad(a.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))))
    return _record(out, (a,), lambda gy: (gy[:, :, pad:-pad, pad:-pad],))


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    shape = a.data.shape
    return _record(out, (a,), lambda gy: (np.broadcast_to(gy, shape),))


def sum_axis(a: Tensor, axis, keepdims: bool = True) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    shape = a.data.shape

    def bw(gy):
        if not keepdims:
            gy = np.expand_dims(gy, axis)
        return (np.broadcast_to(gy, shape),)

    return _record(out, (a,), bw)


def mean_axis(a: Tensor, axis, keepdims: bool = True) -> Tensor:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= a.data.shape[ax]
    return mul(sum_axis(a, axis, keepdims), Tensor(1.0 / n))


def mean_all(a: Tensor) -> Tensor:
    return mul(sum_all(a), Tensor(1.0 / a.size))


def max_axis(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    """Max along one axis; gradient routes to the first maximal element."""
    out = Tensor(a.data.max(axis=axis, keepdims=keepdims))

    def bw(gy):
        arg = a.data.argmax(axis=axis)  # first index on ties
        gy_e = gy if keepdims else np.expand_dims(gy, axis)
        g = np.zeros(a.data.shape, dtype=gy.dtype)
        np.put_along_axis(g, np.expand_dims(arg, axis), gy_e, axis=axis)
        return (g,)

    return _record(out, (a,), bw)


def max_channel(a: Tensor) -> Tensor:
    return max_axis(a, axis=1, keepdims=True)


def mean_channel(a: Tensor) -> Tensor:
    return mean_axis(a, axis=1, keepdims=True)


def global_avg_pool(a: Tensor) -> Tensor:
    if a.ndim != 4:
        raise ConfigError(f"global_avg_pool needs rank 4, got {a.ndim}")
    return mean_axis(a, axis=(2, 3), keepdims=True)


def max_pool2d(a: Tensor, kernel: int, stride: int, padding: int) -> Tensor:
    if a.ndim != 4:
        raise ConfigError(f"max_pool2d needs rank 4, got {a.ndim}")
    B, C, H, W = a.data.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if kernel > Hp or kernel > Wp:
        raise ConfigError(f"pool kernel {kernel} exceeds padded input {Hp}x{Wp}")
    neg = np.finfo(a.data.dtype).min
    xp = np.full((B, C, Hp, Wp), neg, dtype=a.data.dtype)
    xp[:, :, padding:padding + H, padding:padding + W] = a.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [B,C,Ho,Wo,k,k]
    Ho, Wo = win.shape[2], win.shape[3]
    flat = win.reshape(B, C, Ho, Wo, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])

    def bw(gy):
        ky, kx = np.unravel_index(arg, (kernel, kernel))
        oy = np.arange(Ho)[None, None, :, None] * stride
        ox = np.arange(Wo)[None, None, None, :] * stride
        bi = np.arange(B)[:, None, None, None]
        ci = np.arange(C)[None, :, None, None]
        flat = ((bi * C + ci) * Hp + (oy + ky)) * Wp + (ox + kx)
        g = np.bincount(flat.ravel(), weights=gy.ravel(),
                        minlength=B * C * Hp * Wp).reshape(B, C, Hp, Wp).astype(gy.dtype)
        if padding:
            g = g[:, :, padding:-padding, padding:-padding]
        return (g,)

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data)

    def bw(gy):
        ad, bd = a.data, b.data
        ga = gy @ np.swapaxes(bd, -1, -2)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ gy, bd.shape)
        if not bd.flags.c_contiguous:
            # laid out like b: the gradient of a transposed weight (``linear``)
            # then reaches the optimizer C-ordered
            laid_out = np.empty_like(bd, dtype=gb.dtype)
            laid_out[...] = gb
            gb = laid_out
        return (_unbroadcast(ga, ad.shape), gb)

    return _record(out, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: y = x @ W^T + b, W is [Dout, Din]."""
    dout, din = weight.shape
    if x.shape[-1] != din:
        raise ConfigError(f"linear: input extent {x.shape[-1]} != Din {din}")
    y = matmul(x, transpose(weight, (1, 0)))
    if bias is not None:
        y = add(y, bias)
    return y


# ---------------------------------------------------------------------------
# convolution

def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor],
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding, one kernel tap at a time.

    weight is [Cout,C,K,K], or [C,K,K] for a depthwise conv: one K x K
    filter per input channel, so Cout = C.  bias is [Cout] or None.

    The taps run channel-major on flat maps.  The padded input is held as
    s x s phase maps (s the stride, so one map at stride 1): phase (a, b)
    holds padded rows a, a+s, ... and columns b, b+s, ... as a [C, B*Hq*Wq]
    grid, Hq = ceil((H+2p)/s), plus a zero tail.  Tap (ky, kx) then reads the
    contiguous columns o .. o+B*Hq*Wq of phase (ky%s, kx%s), o = (ky//s)*Wq
    + kx//s, and adds ``W[:,:,ky,kx] . cols`` to a [Cout, B*Hq*Wq] sum; a
    depthwise tap scales each row instead.  The output is that sum on the
    [B,Hq,Wq] grid cropped to [Ho,Wo] once; the cells cropped away read
    across rows and are never used.  A 1x1 conv at stride 1 and padding 0
    reads its input in place.

    The backward zero-extends gy to the same grid, forms ``gW[:,:,ky,kx]``
    from the same columns, and adds ``W_tap^T . g`` into the same columns of
    a gradient buffer.  A tap whose window lies wholly in the zero padding
    (on a map smaller than the kernel window) adds only zeros, so it is
    skipped and its ``gW`` stays zero.  An all-zero ``gy`` (a head branch
    with no positives) gives no gradient to any input, so the sweep skips
    the rest of that branch.
    """
    depthwise = weight.ndim == 3
    if x.ndim != 4 or weight.ndim not in (3, 4):
        raise ConfigError(f"conv2d needs a rank-4 input and a rank-3 or rank-4 weight, "
                          f"got {x.shape}/{weight.shape}")
    B, C, H, W = x.data.shape
    w4 = weight.data[:, None] if depthwise else weight.data   # [Cout,Cin,K,K]
    Cout, Cin, K, K2 = w4.shape
    if (Cout if depthwise else Cin) != C:
        raise ConfigError(f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}")
    if K != K2:
        raise ConfigError(f"conv2d kernel must be square, got {weight.shape}")
    if bias is not None and bias.shape != (Cout,):
        raise ConfigError(f"conv2d bias {bias.shape} does not fit weight {weight.shape}")
    Ho = conv_out_size(H, K, stride, padding)
    Wo = conv_out_size(W, K, stride, padding)
    if Ho < 1 or Wo < 1:
        raise ConfigError(
            f"conv2d output would be empty for input {x.shape}, kernel {K}, "
            f"stride {stride}, padding {padding}")
    s = stride
    in_place = K == 1 and s == 1 and padding == 0
    if in_place:
        Hq, Wq, tail = H, W, 0
    else:
        Hq, Wq = -(-(H + 2 * padding) // s), -(-(W + 2 * padding) // s)
        tail = (K - 1) // s * (Wq + 1)
    n = B * Hq * Wq

    def phase_maps(xd: np.ndarray) -> np.ndarray:
        xc = xd.transpose(1, 0, 2, 3)
        return xc if in_place else _phase_maps(xc, s, padding, Hq, Wq, tail)

    def tap_cols(buf: np.ndarray, ky: int, kx: int) -> np.ndarray:
        """The [C, B*Hq*Wq] columns of buf that tap (ky, kx) reads."""
        if in_place:
            return buf.reshape(C, n)
        o = (ky // s) * Wq + kx // s
        return buf[ky % s, kx % s, :, o:o + n]

    taps = _live_taps(K, stride, padding, H, W)
    # [K,K,Cout,Cin]: each tap's matrix is contiguous, as BLAS needs
    wt = np.ascontiguousarray(w4.transpose(2, 3, 0, 1))
    src = phase_maps(x.data)
    y = np.zeros((Cout, n), dtype=np.result_type(src, wt))
    for ky, kx in taps:
        _tap_mac(y, wt[ky, kx], tap_cols(src, ky, kx))
    y = y.reshape(Cout, B, Hq, Wq)[:, :, :Ho, :Wo]
    if bias is not None:
        y += bias.data.reshape(Cout, 1, 1, 1)
    # [B,C,H,W] in memory too: the layers after a conv, and the scan backward
    # that its input gradient feeds, run slower on a strided map
    out = Tensor(np.ascontiguousarray(y.transpose(1, 0, 2, 3)))
    need_gx = x.requires_grad   # False where x derives from the images alone
    # a padded conv holds its phase maps; an unpadded one (1x1 or patchify)
    # holds its input, which its other readers keep too (the patchify convs
    # share theirs with the sampler), and rebuilds them in the backward
    held = src if padding else x.data

    no_grads = (None, None) if bias is None else (None, None, None)

    def bw(gy):
        if not gy.any():
            return no_grads
        g = np.empty((Cout, B, Hq, Wq), dtype=gy.dtype)
        g[:, :, :Ho, :Wo] = gy.transpose(1, 0, 2, 3)
        g[:, :, Ho:] = 0
        g[:, :, :Ho, Wo:] = 0
        g = g.reshape(Cout, n)
        gwt = np.zeros(wt.shape, dtype=gy.dtype)
        src = held if padding else phase_maps(held)
        gbuf = np.zeros((s, s, C, n + tail), dtype=gy.dtype) if need_gx else None
        for ky, kx in taps:
            xs = tap_cols(src, ky, kx)
            if depthwise:   # a dot per channel
                gwt[ky, kx, :, 0] = np.einsum("cn,cn->c", g, xs)
            else:
                gwt[ky, kx] = g @ xs.T
            if need_gx:
                w_tap = wt[ky, kx] if depthwise else wt[ky, kx].T
                _tap_mac(tap_cols(gbuf, ky, kx), w_tap, g)
        gx = None
        if need_gx:
            gx = np.empty((B, C, H, W), dtype=gy.dtype)
            grid = gbuf[..., :n].reshape(s, s, C, B, Hq, Wq)
            for a, b, xin, gq in _phases(H, W, s, padding):
                gx.transpose(1, 0, 2, 3)[(..., *xin)] = grid[(a, b, ..., *gq)]
        # C-ordered like the weight, so the optimizer reads both in memory order
        gw = np.ascontiguousarray(gwt.transpose(2, 3, 0, 1)).reshape(weight.shape)
        if bias is not None:
            return (gx, gw, g.sum(axis=1))
        return (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _record(out, parents, bw)


def _phases(H: int, W: int, stride: int, padding: int):
    """For each phase (a, b) of an HxW map padded by ``padding``: the input
    cells it holds, as (rows, cols) slices of the map, and the (rows, cols)
    slices of its [Hq, Wq] grid where they sit."""
    def axis(size):
        for a in range(stride):
            first = (a - padding) % stride
            at = (first + padding) // stride
            yield slice(first, size, stride), slice(at, at + len(range(first, size, stride)))

    for a, (ri, gi) in enumerate(axis(H)):
        for b, (rj, gj) in enumerate(axis(W)):
            yield a, b, (ri, rj), (gi, gj)


def _phase_maps(xc: np.ndarray, stride: int, padding: int, Hq: int, Wq: int,
                tail: int) -> np.ndarray:
    """xc:[C,B,H,W] zero-padded and split into [s, s, C, B*Hq*Wq + tail]
    phase maps (``conv2d``)."""
    C, B, H, W = xc.shape
    s = stride
    buf = np.zeros((s, s, C, B * Hq * Wq + tail), dtype=xc.dtype)
    grid = buf[..., :B * Hq * Wq].reshape(s, s, C, B, Hq, Wq)
    for a, b, xin, gq in _phases(H, W, s, padding):
        grid[(a, b, ..., *gq)] = xc[(..., *xin)]
    return buf


@functools.lru_cache(maxsize=256)
def _live_taps(K: int, stride: int, padding: int, H: int, W: int) -> tuple:
    """The taps (ky, kx) whose window reaches the map, not only its zero
    padding.  Cached: each layer asks for the same shape on every call, and
    working it out took ~10 us a call on a 2-core Xeon VM, which a batch-1
    forward pays 98 times."""
    def live(size, n_out):
        return [k for k in range(K)
                if any(padding <= k + i * stride < padding + size for i in range(n_out))]

    return tuple((ky, kx) for ky in live(H, conv_out_size(H, K, stride, padding))
                 for kx in live(W, conv_out_size(W, K, stride, padding)))


def _tap_mac(acc: np.ndarray, w: np.ndarray, xs: np.ndarray) -> None:
    """acc[M,n] += w[M,C] . xs[C,n], the batch folded into the GEMM's
    columns.  A GEMM with an inner dimension of 1 is slow, so a [M,1] weight
    is an elementwise product: a rank-1 update when xs has one row (one
    input channel), a per-row scale when it has M (a depthwise tap)."""
    if w.shape[1] == 1:
        acc += w * xs
    else:
        acc += w @ xs


def upsample_nearest2x(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise ConfigError(f"upsample needs rank 4, got {x.ndim}")
    out = Tensor(x.data.repeat(2, axis=2).repeat(2, axis=3))
    B, C, H, W = x.data.shape

    def bw(gy):
        return (gy.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5)),)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# bilinear sampling (zero padding outside [0,H-1]x[0,W-1])

def grid_sample_taps(x: Tensor, ys: Tensor, xs: Tensor) -> Tensor:
    """Bilinearly sample x:[B,C,H,W] at real coords ys/xs:[B,T,Ho,Wo].

    Returns [B,C*T,Ho,Wo] with the channel axis major (tap index minor);
    out-of-bounds neighbors contribute zero.  Differentiable w.r.t. x and
    both coordinate fields.

    The samples are gathered from a channel-major copy of x with a 2-cell
    zero border, in which the four corners of a point sit at the flat
    offsets {0, 1, W+4, W+5} of its floor cell, so each corner is one
    ``take`` of contiguous rows.  The output's memory is [C*T,B,Ho,Wo]; a
    1x1 conv over it reads it in place.  The closure keeps only the three
    inputs; the backward rebuilds the padded map and the corners.
    """
    B, C, H, W = x.data.shape
    if ys.shape != xs.shape or ys.shape[0] != B:
        raise ConfigError(f"coordinate shapes {ys.shape}/{xs.shape} mismatch input {x.shape}")
    T, Ho, Wo = ys.shape[1:]
    xp = _border2(x.data)
    out = np.zeros((C, T * B * Ho * Wo), dtype=x.data.dtype)
    for _, _, idx, fy, fx in _bilinear_corners(ys.data, xs.data, H, W):
        out += xp.take(idx, axis=1) * (fy * fx)
    out = Tensor(out.reshape(C * T, B, Ho, Wo).transpose(1, 0, 2, 3))

    def bw(gy_flat):
        # channel-major like the samples: [C, T*B*Ho*Wo]
        gy = np.ascontiguousarray(
            gy_flat.reshape(B, C, T, Ho * Wo).transpose(1, 2, 0, 3)).reshape(C, -1)
        xp = _border2(x.data)
        gys = np.zeros(gy.shape[1], dtype=ys.data.dtype)
        gxs = np.zeros(gy.shape[1], dtype=xs.data.dtype)
        gxp = np.zeros(xp.shape)
        for dy, dx, idx, fy, fx in _bilinear_corners(ys.data, xs.data, H, W):
            wgt = fy * fx
            for c in range(C):
                gxp[c] += np.bincount(idx, weights=gy[c] * wgt, minlength=xp.shape[1])
            # d out / d corner weight, summed over channels
            gdot = np.einsum("cp,cp->p", gy, xp.take(idx, axis=1))
            gys += gdot * (fx * (1.0 if dy else -1.0))
            gxs += gdot * (fy * (1.0 if dx else -1.0))
        gx = gxp.reshape(C, B, H + 4, W + 4)[:, :, 2:-2, 2:-2].transpose(1, 0, 2, 3)
        return (gx.astype(gy.dtype, order="C"), _tap_major(gys, ys.shape),
                _tap_major(gxs, xs.shape))

    return _record(out, (x, ys, xs), bw)


def _border2(x: np.ndarray) -> np.ndarray:
    """x:[B,C,H,W] as [C, B*(H+4)*(W+4)]: channel-major, 2 zero cells around."""
    B, C, H, W = x.shape
    xp = np.zeros((C, B, H + 4, W + 4), dtype=x.dtype)
    xp[:, :, 2:-2, 2:-2] = x.transpose(1, 0, 2, 3)
    return xp.reshape(C, -1)


def _tap_major(a: np.ndarray, shape: tuple) -> np.ndarray:
    """[T*B*Ho*Wo] in tap-major order as the [B,T,Ho,Wo] view of shape."""
    B, T, Ho, Wo = shape
    return a.reshape(T, B, Ho, Wo).transpose(1, 0, 2, 3)


def _bilinear_corners(ys: np.ndarray, xs: np.ndarray, H: int, W: int):
    """The four neighbours of every sampling point, one corner at a time.

    For coords ys/xs:[B,T,Ho,Wo] on an HxW map, taken in tap-major order
    [T,B,Ho,Wo], yields (dy, dx, idx, fy, fx): the corner's offset from the
    floor cell, its flat index into ``_border2``'s padded map, and its row
    and column weights.  A floor index is cast to int and then clamped to
    [-2, H] (or [-2, W]), so a point off the map reads the zero border; in
    that order a NaN coordinate, whose cast is undefined, still reads the
    border, and its NaN weight makes the sample NaN.
    """
    B, T = ys.shape[:2]
    y = ys.transpose(1, 0, 2, 3).reshape(-1)
    xx = xs.transpose(1, 0, 2, 3).reshape(-1)
    y0 = np.floor(y)
    x0 = np.floor(xx)
    wy = y - y0
    wx = xx - x0
    Wp = W + 4
    y0i = np.clip(y0.astype(np.int64), -2, H)
    x0i = np.clip(x0.astype(np.int64), -2, W)
    # each tap's run of B*Ho*Wo points starts at batch plane 0
    plane = np.repeat(np.arange(B, dtype=np.int64) * ((H + 4) * Wp), y.size // (B * T))
    base = (((y0i + 2) * Wp + (x0i + 2)).reshape(T, -1) + plane).reshape(-1)
    for dy in (0, 1):
        fy = wy if dy else 1.0 - wy
        for dx in (0, 1):
            fx = wx if dx else 1.0 - wx
            yield dy, dx, base + (dy * Wp + dx), fy, fx


# ---------------------------------------------------------------------------
# composed helpers

def log_softmax(x: Tensor, axis: int) -> Tensor:
    m = Tensor(x.data.max(axis=axis, keepdims=True))   # a constant shift
    shifted = sub(x, m)
    lse = log(sum_axis(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax(x: Tensor, axis: int) -> Tensor:
    return exp(log_softmax(x, axis))


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Channelwise layer normalization over axis 1 of a [B,C,H,W] map."""
    mu = mean_axis(x, axis=1, keepdims=True)
    xc = sub(x, mu)
    var = mean_axis(mul(xc, xc), axis=1, keepdims=True)
    inv = safe_div(Tensor(np.ones((), dtype=x.data.dtype)),
                   sqrt(add(var, Tensor(eps))), eps=0.0)
    C = x.shape[1]
    return add(mul(mul(xc, inv), reshape(gamma, (1, C, 1, 1))),
               reshape(beta, (1, C, 1, 1)))


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-3,
               sample: Optional[int] = None, rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be scalar-valued over ``inputs``.  With ``sample`` set, only
    that many randomly chosen coordinates per input are perturbed.
    """
    if h <= 0:
        raise UsageError("h must be positive")
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        loss = f(*inputs)
        backward(tape, loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gflat = ga.reshape(-1)
        idxs = range(flat.size)
        if sample is not None and flat.size > sample:
            r = rng or np.random.default_rng(0)
            idxs = r.choice(flat.size, size=sample, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = f(*inputs).item()
            flat[i] = orig - h
            with no_grad():
                fm = f(*inputs).item()
            flat[i] = orig
            cd = (fp - fm) / (2.0 * h)
            a = gflat[i]
            err = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            worst = max(worst, err)
    return worst
