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
                  D_skip: Tensor) -> Tensor:
    """Linear state recurrence along axis 1.

    u, delta: [B,L,D]; Bc, Cc: [B,L,N]; A: [D,N] or [G,D,N] with the batch
    split into G contiguous groups; D_skip: [D] or [G,D].

        h_t = exp(delta_t * A) * h_{t-1} + (delta_t * B_t) * u_t
        y_t = sum_n C_t * h_t + D_skip * u_t,   h_0 = 0

    The state is stored time-major as [L,N,B,D]: one time step is one
    contiguous block, and every elementwise product broadcasts over the
    B*D inner extent rather than over the short state axis N.
    """
    B, L, D = u.shape
    N = Bc.shape[-1]
    if delta.shape != (B, L, D) or Cc.shape != (B, L, N):
        raise ConfigError(f"scan operand shapes disagree: u {u.shape}, delta "
                          f"{delta.shape}, B {Bc.shape}, C {Cc.shape}")
    grouped = A.ndim == 3
    G = A.shape[0] if grouped else 1
    if B % G:
        raise ConfigError(f"batch {B} not divisible into {G} groups")
    rep = B // G
    A_t = np.repeat(A.data.reshape(G, D, N).transpose(2, 0, 1), rep, axis=1)  # [N,B,D]
    Dsk_b = np.repeat(D_skip.data.reshape(G, D), rep, axis=0)                # [B,D]

    def time_major():
        # delta, delta*u: [L,B,D]; B, C: [L,N,B].  Rebuilt by the backward
        # instead of being held by it, so a recorded scan keeps only dA, hs.
        dt = delta.data.transpose(1, 0, 2).copy()
        du = dt * u.data.transpose(1, 0, 2)
        return (dt, du, Bc.data.transpose(1, 2, 0).copy(),
                Cc.data.transpose(1, 2, 0).copy())

    dt, du, Bt, Ct = time_major()
    dA = np.multiply(dt[:, None], A_t)                                    # [L,N,B,D]
    np.exp(dA, out=dA)
    hs = np.multiply(du[:, None], Bt[..., None])                          # dBu, then h
    tmp = np.empty_like(hs[0])
    for t in range(1, L):
        np.multiply(dA[t], hs[t - 1], out=tmp)
        hs[t] += tmp
    if not np.isfinite(hs).all():
        bad = np.where(~np.isfinite(hs.reshape(L, -1)).all(axis=1))[0]
        raise NumericError(f"non-finite scan state at step {int(bad[0])}")
    y = np.einsum("lnbd,lnb->bld", hs, Ct) + u.data * Dsk_b[:, None]
    out = Tensor(y)

    def bw(gy):
        dt, du, Bt, Ct = time_major()
        gt = gy.transpose(1, 0, 2).copy()                                 # [L,B,D]
        gu = gy * Dsk_b[:, None]
        gDsk = np.einsum("bld,bld->bd", gy, u.data)
        gCc = np.einsum("lnbd,lbd->bln", hs, gt)
        gh = np.multiply(gt[:, None], Ct[..., None])                      # dL/dh_t
        tmp = np.empty_like(gh[0])
        for t in range(L - 2, -1, -1):
            np.multiply(dA[t + 1], gh[t + 1], out=tmp)
            gh[t] += tmp
        gBc = np.einsum("lnbd,lbd->bln", gh, du)
        ghB = np.einsum("lnbd,lnb->bld", gh, Bt)
        # gh becomes X = gh * h_{t-1} * dA, the gradient of delta_t * A
        gh[1:] *= hs[:-1]
        gh[0] = 0.0
        gh *= dA
        gdelta = np.einsum("lnbd,nbd->bld", gh, A_t) + ghB * u.data
        gA_t = np.einsum("lnbd,lbd->nbd", gh, dt)
        gu += ghB * delta.data
        gA = gA_t.reshape(N, G, rep, D).sum(axis=2).transpose(1, 2, 0)
        gDsk2 = gDsk.reshape(G, rep, D).sum(axis=1)
        if not grouped:
            gA = gA[0]
            gDsk2 = gDsk2[0]
        return (gu, gdelta, gA, gBc, gCc, gDsk2)

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


# ---------------------------------------------------------------------------
# parameters

class SsmParams(Module):
    """Per-scan parameter bundle: state matrix, skip, and the projections
    that derive the timestep and input/output couplings from a sequence."""

    def __init__(self, rng, d_inner: int, d_state: int):
        super().__init__()
        self.d_inner = d_inner
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

    def neg_A(self) -> Tensor:
        return ad.neg(ad.exp(self.A_log))

    def derive(self, src: Tensor):
        """Compute (delta, B, C) for a scan from source sequence [B,L,D]."""
        r, n = self.dt_rank, self.d_state
        proj = self.x_proj(src)
        dt_seed = proj[:, :, :r]
        Bc = proj[:, :, r:r + n]
        Cc = proj[:, :, r + n:r + 2 * n]
        delta = ad.softplus(self.dt_proj(dt_seed))
        return delta, Bc, Cc


def selective_scan(u: Tensor, params: SsmParams, src: Tensor | None = None) -> Tensor:
    """Scan u:[B,L,D]; delta/B/C are derived from ``src`` (defaults to u)."""
    delta, Bc, Cc = params.derive(u if src is None else src)
    return ssm_scan_core(u, delta, params.neg_A(), Bc, Cc, params.D_skip)


# ---------------------------------------------------------------------------
# 2D flattening

def flatten_direction(x: Tensor, direction: str) -> Tensor:
    """[B,C,H,W] -> [B,L,C] in the given traversal order."""
    B, C, H, W = x.shape
    if direction in ("row_fwd", "row_bwd"):
        seq = ad.transpose(ad.reshape(x, (B, C, H * W)), (0, 2, 1))
    elif direction in ("col_fwd", "col_bwd"):
        seq = ad.transpose(ad.reshape(ad.transpose(x, (0, 1, 3, 2)), (B, C, H * W)), (0, 2, 1))
    else:
        raise ConfigError(f"unknown scan direction {direction!r}")
    if direction.endswith("bwd"):
        seq = ad.flip(seq, axis=1)
    return seq


def unflatten_direction(seq: Tensor, direction: str, H: int, W: int) -> Tensor:
    """Inverse of flatten_direction, restoring [B,C,H,W]."""
    B, L, C = seq.shape
    if L != H * W:
        raise ConfigError(f"sequence length {L} != {H}x{W}")
    if direction.endswith("bwd"):
        seq = ad.flip(seq, axis=1)
    chw = ad.transpose(seq, (0, 2, 1))
    if direction.startswith("row"):
        return ad.reshape(chw, (B, C, H, W))
    return ad.transpose(ad.reshape(chw, (B, C, W, H)), (0, 1, 3, 2))


def four_way_scan(feature: Tensor, params: list[SsmParams],
                  src_feature: Tensor | None = None) -> Tensor:
    """Scan a [B,C,H,W] map along all four directions and merge by sum.

    With ``src_feature`` given, delta/B/C come from that map's sequences
    instead (the two-input fusion form); scanned values stay with feature.
    """
    if feature.ndim != 4:
        raise ConfigError(f"four_way_scan needs rank 4, got {feature.shape}")
    if len(params) != 4:
        raise ConfigError(f"need 4 parameter sets, got {len(params)}")
    B, C, H, W = feature.shape
    seqs, deltas, bs, cs = [], [], [], []
    for d, p in zip(DIRECTIONS, params):
        seq = flatten_direction(feature, d)
        src = seq if src_feature is None else flatten_direction(src_feature, d)
        delta, Bc, Cc = p.derive(src)
        seqs.append(seq)
        deltas.append(delta)
        bs.append(Bc)
        cs.append(Cc)
    N = params[0].d_state
    A_g = ad.concat([ad.reshape(p.neg_A(), (1, C, N)) for p in params], axis=0)
    D_g = ad.concat([ad.reshape(p.D_skip, (1, C)) for p in params], axis=0)
    y = ssm_scan_core(ad.concat(seqs, axis=0), ad.concat(deltas, axis=0), A_g,
                      ad.concat(bs, axis=0), ad.concat(cs, axis=0), D_g)
    out = None
    for i, d in enumerate(DIRECTIONS):
        part = unflatten_direction(y[i * B:(i + 1) * B], d, H, W)
        out = part if out is None else ad.add(out, part)
    return out


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
        self.d_inner = d_inner
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
        self.d_inner = d_inner
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
