"""Selective-scan state-space kernels: single scans, four-way 2D scans,
the gated residual scan block, and its two-input fusion variant."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, NumericError, Tensor, _record
from .nn import ChannelLayerNorm, Conv2d, DepthwiseConv3x3, Linear, Module, ModuleList, Parameter

DIRECTIONS = ("row_fwd", "row_bwd", "col_fwd", "col_bwd")


# ---------------------------------------------------------------------------
# scan core

def ssm_scan_core(u: Tensor, delta: Tensor, A: Tensor, Bc: Tensor, Cc: Tensor,
                  D_skip: Tensor, order: np.ndarray | None = None) -> Tensor:
    """Linear state recurrences over the tokens of u:[B,L,D].

    Without ``order`` this is one scan along axis 1: delta [B,L,D]; Bc, Cc
    [B,L,N]; A [D,N]; D_skip [D].  With an integer table ``order`` [G,L]
    whose rows are permutations of range(L), it is G scans summed: scan g
    visits token order[g, t] at step t and reads delta [G,B,L,D], Bc, Cc
    [G,B,L,N], A [G,D,N] and D_skip [G,D] at index g.  Every operand and
    the output are indexed by token, not by step.

        h_t = exp(delta_t * A) * h_{t-1} + (delta_t * B_t) * u_t
        y_t = sum_n C_t * h_t + D_skip * u_t,   h_0 = 0

    The steps run in chunks of k = 2*ceil(sqrt(L)).  A chunk's operands are
    gathered time-major through the table, so a traversal costs no pass of
    its own, and its states are stored as [k,N,G,B,D]: one step of all G
    scans is one contiguous block, and every elementwise product broadcasts
    over the G*B*D inner extent rather than over the short state axis N.
    A recorded scan keeps only the state at each chunk's end, [L/k,N,G,B,D];
    the backward sweeps the chunks in reverse and recomputes each chunk's
    exp(delta*A) and states from the boundary before it (the recompute of
    Gu & Dao 2023, arXiv 2312.00752, with the O(sqrt(L)) checkpoints of
    Chen et al. 2016, arXiv 1604.06174).
    """
    B, L, D = u.shape
    lead = () if order is None else (len(order),)
    order = np.arange(L)[None] if order is None else np.asarray(order)
    G, N = len(order), A.shape[-1]
    if (delta.shape != lead + (B, L, D) or Bc.shape != lead + (B, L, N)
            or Cc.shape != Bc.shape or A.shape != lead + (D, N)
            or D_skip.shape != lead + (D,)):
        raise ConfigError(f"scan operand shapes disagree: u {u.shape}, delta "
                          f"{delta.shape}, A {A.shape}, B {Bc.shape}, C {Cc.shape}, "
                          f"D {D_skip.shape}")
    if order.shape != (G, L) or not (np.sort(order, axis=1) == np.arange(L)).all():
        raise ConfigError(f"scan order rows must be permutations of range({L})")
    # 2*ceil(sqrt(L)) rather than ceil(sqrt(L)): level on one thread, with
    # half as many chunks and so half the per-chunk numpy calls
    k = max(1, 2 * math.ceil(math.sqrt(L)))
    steps = np.ascontiguousarray(order.T)                                  # [L,G]
    chunks = [(t0, steps[t0:t0 + k]) for t0 in range(0, L, k)]
    group = np.arange(G)
    A_b = np.ascontiguousarray(np.broadcast_to(                             # [N,G,B,D]
        A.data.reshape(G, D, N).transpose(2, 0, 1)[:, :, None], (N, G, B, D)))
    Dsk = D_skip.data.reshape(G, D).sum(axis=0)

    def by_token(x, X):  # [G,B,L,X] operand -> [L,G,B,X] view, indexed by token
        return x.reshape(G, B, L, X).transpose(2, 0, 1, 3)

    u_tok = u.data.transpose(1, 0, 2)
    delta_tok, B_tok, C_tok = by_token(delta.data, D), by_token(Bc.data, N), by_token(Cc.data, N)
    tmp = np.empty((N, G, B, D), np.result_type(u.data, delta.data, A.data, Bc.data, Cc.data))

    def time_major(rows):
        # one chunk's steps of every scan, gathered through its rows of the
        # table: u, delta, delta*u [k,G,B,D]; B, C [k,N,G,B]; all C-contiguous
        at = (rows, group)
        ut, dt = u_tok[rows], delta_tok[at]
        return (ut, dt, dt * ut, np.ascontiguousarray(B_tok[at].transpose(0, 3, 1, 2)),
                np.ascontiguousarray(C_tok[at].transpose(0, 3, 1, 2)))

    def outer(x, c):
        # x [k,G,B,D] times c [k,N,G,B] -> [k,N,G,B,D]; filling c along D
        # first beats broadcasting it over the innermost axis
        out = np.empty(c.shape + (D,), tmp.dtype)
        out[...] = c[..., None]
        return np.multiply(out, x[:, None], out=out)

    def recur(x, h):
        # h[i+1] += x[i] * h[i] along lists of per-step views
        for xi, prev, cur in zip(x, h, h[1:]):
            np.multiply(xi, prev, tmp)
            np.add(cur, tmp, cur)

    def states(dt, du, Bt, h0):
        # exp(delta*A) and the states of one chunk, from the state h0 before
        # it (None at the first chunk); [k,N,G,B,D] each
        dA = np.multiply(dt[:, None], A_b)
        np.exp(dA, out=dA)
        hs = outer(du, Bt)                                                # dBu, then h
        a, h = list(dA), list(hs)
        if h0 is None:
            recur(a[1:], h)
        else:
            recur(a, [h0] + h)
        return dA, hs

    ys = np.empty((L, G, B, D), tmp.dtype)                                  # by token
    bounds = np.empty((len(chunks), N, G, B, D), tmp.dtype)
    for c, (t0, rows) in enumerate(chunks):
        _, dt, du, Bt, Ct = time_major(rows)
        _, hs = states(dt, du, Bt, bounds[c - 1] if c else None)
        # a non-finite lane stays non-finite, so the chunk's last state
        # shows whether any state in it is
        if not np.isfinite(hs[-1]).all():
            bad = np.where(~np.isfinite(hs.reshape(len(rows), -1)).all(axis=1))[0]
            raise NumericError(f"non-finite scan state at step {t0 + int(bad[0])}")
        bounds[c] = hs[-1]
        ys[rows, group] = np.einsum("lngbd,lngb->lgbd", hs, Ct)
    out = Tensor(ys.sum(axis=1).transpose(1, 0, 2) + u.data * Dsk)

    def bw(gy):
        gy_tok = gy.transpose(1, 0, 2)
        gDsk = np.einsum("bld,bld->d", gy, u.data)
        gu_tok = np.empty((L, G, B, D), tmp.dtype)
        gdelta, gBc, gCc = (np.empty(x.shape, tmp.dtype) for x in (delta, Bc, Cc))
        gd_tok, gB_tok, gC_tok = by_token(gdelta, D), by_token(gBc, N), by_token(gCc, N)
        gA, carry = 0.0, None
        for c in range(len(chunks) - 1, -1, -1):
            rows, h0 = chunks[c][1], bounds[c - 1] if c else None
            at = (rows, group)
            ut, dt, du, Bt, Ct = time_major(rows)
            dA, hs = states(dt, du, Bt, h0)
            gt = gy_tok[rows]                                             # [k,G,B,D]
            gC_tok[at] = np.einsum("lngbd,lgbd->lgbn", hs, gt)
            gh = outer(gt, Ct)                                            # dL/dh_t
            if carry is not None:                               # from the next chunk
                np.add(gh[-1], carry, out=gh[-1])
            recur(list(dA)[:0:-1], list(gh)[::-1])        # gh[t] += dA[t+1] * gh[t+1]
            carry = dA[0] * gh[0]
            gB_tok[at] = np.einsum("lngbd,lgbd->lgbn", gh, du)
            ghB = np.einsum("lngbd,lngb->lgbd", gh, Bt)
            # gh becomes X = gh * h_{t-1} * dA, the gradient of delta_t * A
            gh[1:] *= hs[:-1]
            if h0 is None:
                gh[0] = 0.0
            else:
                gh[0] *= h0
            gh *= dA
            gd_tok[at] = np.einsum("lngbd,ngbd->lgbd", gh, A_b) + ghB * ut
            gA = gA + np.einsum("lngbd,lgbd->ngbd", gh, dt)
            gu_tok[at] = ghB * dt
        gA = gA.sum(axis=2).transpose(1, 2, 0)
        gu = gy * Dsk + gu_tok.sum(axis=1).transpose(1, 0, 2)
        return (gu, gdelta, gA.reshape(A.shape), gBc, gCc,
                np.tile(gDsk, (G, 1)).reshape(D_skip.shape))

    return _record(out, (u, delta, A, Bc, Cc, D_skip), bw)


def scan_reference(u, delta, A, Bc, Cc, D_skip):
    """Independent step-by-step recurrence oracle (float64, plain numpy)."""
    u = np.asarray(u, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    Bc = np.asarray(Bc, dtype=np.float64)
    Cc = np.asarray(Cc, dtype=np.float64)
    D_skip = np.asarray(D_skip, dtype=np.float64)
    B, L, D = u.shape
    N = A.shape[-1]
    y = np.zeros((B, L, D))
    for b in range(B):
        h = np.zeros((D, N))
        for t in range(L):
            h = np.exp(delta[b, t][:, None] * A) * h \
                + (delta[b, t][:, None] * Bc[b, t][None, :]) * u[b, t][:, None]
            y[b, t] = h @ Cc[b, t] + D_skip * u[b, t]
    return y


def projection_reference(params: "SsmParams", src):
    """(delta, A, B, C, D_skip) of one scan, projected from a [B,L,D] source
    sequence by ``params`` (float64, plain numpy)."""
    def f64(t):
        return np.asarray(t.data, dtype=np.float64)

    r, n = params.dt_rank, params.d_state
    proj = np.asarray(src, dtype=np.float64) @ f64(params.x_proj.weight).T
    delta = np.logaddexp(0.0, proj[..., :r] @ f64(params.dt_proj.weight).T
                         + f64(params.dt_proj.bias))
    return (delta, -np.exp(f64(params.A_log)), proj[..., r:r + n], proj[..., r + n:],
            f64(params.D_skip))


def four_way_reference(feature, params, src_feature=None):
    """Per-direction oracle for ``four_way_scan`` (float64, plain numpy):
    each direction flattens both maps with explicit transposes and flips,
    projects its source with its own parameters, runs ``scan_reference``
    and unflattens; the four maps are summed."""
    x = np.asarray(feature, dtype=np.float64)
    s = x if src_feature is None else np.asarray(src_feature, dtype=np.float64)
    B, C, H, W = x.shape
    out = np.zeros_like(x)
    for d, p in zip(DIRECTIONS, params):
        def flatten(m):
            if d.startswith("col"):
                m = m.transpose(0, 1, 3, 2)
            seq = m.reshape(B, C, H * W).transpose(0, 2, 1)
            return seq[:, ::-1] if d.endswith("bwd") else seq

        y = scan_reference(flatten(x), *projection_reference(p, flatten(s)))
        if d.endswith("bwd"):
            y = y[:, ::-1]
        y = y.transpose(0, 2, 1)
        out += (y.reshape(B, C, H, W) if d.startswith("row")
                else y.reshape(B, C, W, H).transpose(0, 1, 3, 2))
    return out


# ---------------------------------------------------------------------------
# parameters

class SsmParams(Module):
    """Per-scan parameter bundle: state matrix, skip, and the projections
    that derive the timestep and input/output couplings from a sequence."""

    def __init__(self, rng, d_inner: int, d_state: int):
        super().__init__()
        self.d_state = d_state
        self.dt_rank = max(1, math.ceil(d_inner / 16))
        # negative-real diagonal init: A = -exp(A_log), rows log(1..N)
        self.A_log = Parameter(
            np.tile(np.log(np.arange(1, d_state + 1, dtype=np.float64)), (d_inner, 1)))
        self.D_skip = Parameter(np.ones(d_inner))
        self.x_proj = Linear(rng, d_inner, self.dt_rank + 2 * d_state, bias=False)
        self.dt_proj = Linear(rng, self.dt_rank, d_inner, bias=True)
        # bias chosen so softplus(bias) starts in roughly [1e-3, 1e-1]
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))
        self.dt_proj.bias.data = np.log(np.expm1(dt)).astype(self.dt_proj.bias.data.dtype)


# ---------------------------------------------------------------------------
# four-way scan

def traversal_orders(H: int, W: int) -> np.ndarray:
    """[4, H*W] order table: row g lists the row-major token indices in the
    order that scan DIRECTIONS[g] visits them."""
    rows = np.arange(H * W)
    cols = rows.reshape(H, W).T.ravel()
    return np.stack([rows, rows[::-1], cols, cols[::-1]])


def four_way_scan(feature: Tensor, params: list[SsmParams],
                  src_feature: Tensor | None = None) -> Tensor:
    """Scan a [B,C,H,W] map along all four directions and merge by sum.

    With ``src_feature`` given, delta/B/C come from that map instead (the
    two-input fusion form); scanned values stay with feature.  The
    projections work token by token, so they commute with the traversal:
    they run once, in row order, over the four parameter sets' weights
    stacked, and the traversals are the scan core's order table.
    """
    if feature.ndim != 4:
        raise ConfigError(f"four_way_scan needs rank 4, got {feature.shape}")
    if len(params) != 4:
        raise ConfigError(f"need 4 parameter sets, got {len(params)}")
    if src_feature is not None and src_feature.shape != feature.shape:
        raise ConfigError(f"source map {src_feature.shape} != feature {feature.shape}")
    B, C, H, W = feature.shape
    L, r, n = H * W, params[0].dt_rank, params[0].d_state

    def tokens(x):  # [B,C,H,W] -> [B,L,C], row-major
        return ad.transpose(ad.reshape(x, (B, C, L)), (0, 2, 1))

    seq = tokens(feature)
    src = seq if src_feature is None else tokens(src_feature)
    proj = ad.linear(src, ad.concat([p.x_proj.weight for p in params], axis=0))
    proj = ad.transpose(ad.reshape(proj, (B, L, 4, r + 2 * n)), (2, 0, 1, 3))  # [4,B,L,R]
    w_dt = ad.reshape(ad.stack([p.dt_proj.weight for p in params]), (4, 1, C, r))
    b_dt = ad.reshape(ad.stack([p.dt_proj.bias for p in params]), (4, 1, 1, C))
    delta = ad.softplus(ad.add(ad.matmul(proj[..., :r], ad.transpose(w_dt, (0, 1, 3, 2))), b_dt))
    A = ad.neg(ad.exp(ad.stack([p.A_log for p in params])))
    y = ssm_scan_core(seq, delta, A, proj[..., r:r + n], proj[..., r + n:],
                      ad.stack([p.D_skip for p in params]), traversal_orders(H, W))
    return ad.reshape(ad.transpose(y, (0, 2, 1)), (B, C, H, W))


# ---------------------------------------------------------------------------
# blocks

class MambaBlock(Module):
    """Gated four-way selective-scan block with a residual connection.

    out = x + proj_out( scan( SiLU(dwconv(proj_in(ln(x)))) ) * SiLU(gate(ln(x))) )
    """

    def __init__(self, rng, channels: int, d_state: int = 8, expand: int = 2):
        super().__init__()
        self.channels = channels
        d_inner = channels * expand
        self.norm = ChannelLayerNorm(channels)
        self.proj_in = Conv2d(rng, channels, d_inner, 1)
        self.gate = Conv2d(rng, channels, d_inner, 1)
        self.dw = DepthwiseConv3x3(rng, d_inner)
        self.scan = ModuleList([SsmParams(rng, d_inner, d_state) for _ in DIRECTIONS])
        self.proj_out = Conv2d(rng, d_inner, channels, 1)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.channels:
            raise ConfigError(f"block expects {self.channels} channels, got {x.shape[1]}")
        xn = self.norm(x)
        inner = ad.silu(self.dw(self.proj_in(xn)))
        scanned = four_way_scan(inner, list(self.scan))
        gated = ad.mul(scanned, ad.silu(self.gate(xn)))
        return ad.add(x, self.proj_out(gated))


class FusionMambaBlock(Module):
    """Two-input scan block: the primary map supplies the scanned values and
    the gate; the auxiliary map supplies delta/B/C in every direction."""

    def __init__(self, rng, channels: int, d_state: int = 8, expand: int = 2):
        super().__init__()
        self.channels = channels
        d_inner = channels * expand
        self.norm = ChannelLayerNorm(channels)
        self.aux_norm = ChannelLayerNorm(channels)
        self.proj_in = Conv2d(rng, channels, d_inner, 1)
        self.aux_proj_in = Conv2d(rng, channels, d_inner, 1)
        self.gate = Conv2d(rng, channels, d_inner, 1)
        self.dw = DepthwiseConv3x3(rng, d_inner)
        self.aux_dw = DepthwiseConv3x3(rng, d_inner)
        self.scan = ModuleList([SsmParams(rng, d_inner, d_state) for _ in DIRECTIONS])
        self.proj_out = Conv2d(rng, d_inner, channels, 1)

    def __call__(self, primary: Tensor, auxiliary: Tensor) -> Tensor:
        if primary.shape != auxiliary.shape:
            raise ConfigError(
                f"fusion inputs must share shape: {primary.shape} vs {auxiliary.shape}")
        pn = self.norm(primary)
        an = self.aux_norm(auxiliary)
        p_inner = ad.silu(self.dw(self.proj_in(pn)))
        a_inner = ad.silu(self.aux_dw(self.aux_proj_in(an)))
        scanned = four_way_scan(p_inner, list(self.scan), src_feature=a_inner)
        gated = ad.mul(scanned, ad.silu(self.gate(pn)))
        return ad.add(primary, self.proj_out(gated))
