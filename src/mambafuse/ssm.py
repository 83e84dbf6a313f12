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

    A block axis before D, A [G,P,D,N] and D_skip [G,P,D] (or [P,D,N] and
    [P,D] without ``order``), runs P independent blocks of scans in one
    call: the batch rows split into P equal blocks, and block p's rows read
    A[:, p] and D_skip[:, p].  Every row is computed as in a call of its
    block alone, so the bits do not depend on P.

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
    blocks = A.shape[len(lead):-2]                                         # () or (P,)
    if (delta.shape != lead + (B, L, D) or Bc.shape != lead + (B, L, N)
            or Cc.shape != Bc.shape or A.shape != lead + blocks + (D, N)
            or len(blocks) > 1 or D_skip.shape != lead + blocks + (D,)):
        raise ConfigError(f"scan operand shapes disagree: u {u.shape}, delta "
                          f"{delta.shape}, A {A.shape}, B {Bc.shape}, C {Cc.shape}, "
                          f"D {D_skip.shape}")
    if order.shape != (G, L) or not (np.sort(order, axis=1) == np.arange(L)).all():
        raise ConfigError(f"scan order rows must be permutations of range({L})")
    P = blocks[0] if blocks else 1
    if P < 1 or B % P:
        raise ConfigError(f"a batch of {B} rows does not split into {P} blocks")
    block_rows = [slice(p * (B // P), (p + 1) * (B // P)) for p in range(P)]
    # 2*ceil(sqrt(L)) rather than ceil(sqrt(L)): level on one thread, with
    # half as many chunks and so half the per-chunk numpy calls
    k = max(1, 2 * math.ceil(math.sqrt(L)))
    steps = np.ascontiguousarray(order.T)                                  # [L,G]
    chunks = [(t0, steps[t0:t0 + k]) for t0 in range(0, L, k)]
    group = np.arange(G)
    A_b = np.ascontiguousarray(np.broadcast_to(                             # [N,G,B,D]
        A.data.reshape(G, P, D, N).transpose(3, 0, 1, 2)[:, :, :, None],
        (N, G, P, B // P, D))).reshape(N, G, B, D)
    Dsk = D_skip.data.reshape(G, P, D).sum(axis=0)                          # [P,D]

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
    ys = ys.sum(axis=1).transpose(1, 0, 2)
    for p, br in enumerate(block_rows):
        ys[br] += u.data[br] * Dsk[p]
    out = Tensor(ys)

    def bw(gy):
        gy_tok = gy.transpose(1, 0, 2)
        gDsk = np.stack([np.einsum("bld,bld->d", gy[br], u.data[br]) for br in block_rows])
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
        gA = gA.reshape(N, G, P, B // P, D).sum(axis=3).transpose(1, 2, 3, 0)
        gu = gu_tok.sum(axis=1).transpose(1, 0, 2)
        for p, br in enumerate(block_rows):
            gu[br] += gy[br] * Dsk[p]
        return (gu, gdelta, gA.reshape(A.shape), gBc, gCc,
                np.tile(gDsk, (G, 1, 1)).reshape(D_skip.shape))

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


def four_way_scan(features: list[Tensor], params: list[list[SsmParams]],
                  src_features: list[Tensor] | None = None) -> list[Tensor]:
    """Scan P equal-shaped [B,C,H,W] maps along all four directions, map p
    with its own four parameter sets ``params[p]``, and merge each map's four
    scans by sum.

    With ``src_features`` given, delta/B/C of map p come from
    ``src_features[p]`` instead (the two-input fusion form); scanned values
    stay with the map.  The projections work token by token, so they commute
    with the traversal: they run once, in row order, over the parameter
    sets' weights stacked, and the traversals are the scan core's order
    table.  The P maps are stacked along the batch axis, so P blocks cost one
    projection and one scan-core call; each output has the bits of a call on
    its map alone.
    """
    P = len(features)
    if P == 0 or len(params) != P or (src_features is not None and len(src_features) != P):
        raise ConfigError(f"need one parameter list (and source map) per map, got "
                          f"{P} maps and {len(params)} parameter lists")
    shape = features[0].shape
    if len(shape) != 4:
        raise ConfigError(f"four_way_scan needs rank 4, got {shape}")
    for x in [*features, *(src_features or ())]:
        if x.shape != shape:
            raise ConfigError(f"map {x.shape} != map {shape}")
    if any(len(ps) != 4 for ps in params):
        raise ConfigError(f"need 4 parameter sets per map, got {[len(ps) for ps in params]}")
    B, C, H, W = shape
    L, r, n = H * W, params[0][0].dt_rank, params[0][0].d_state
    R, PB = r + 2 * n, P * B
    # numpy's matmul pairs batch row i with weight matrix i, so the
    # projection weights are stacked once per batch row (a block axis beside
    # the row axis would make them rank 5); the scan core takes A and D_skip
    # once per block
    row_sets = [ps for ps in params for _ in range(B)]                     # [PB][4]
    rows_by_dir = [ps[g] for g in range(4) for ps in row_sets]             # [4*PB]
    by_dir = [ps[g] for g in range(4) for ps in params]                    # [4*P]

    def tokens(maps):  # P maps [B,C,H,W] -> [PB,L,C], row-major
        return ad.transpose(ad.reshape(ad.concat(maps, axis=0), (PB, C, L)), (0, 2, 1))

    seq = tokens(features)
    src = seq if src_features is None else tokens(src_features)
    w_x = ad.stack([q.x_proj.weight for ps in row_sets for q in ps], (PB, 4 * R, C))
    proj = ad.matmul(src, ad.transpose(w_x, (0, 2, 1)))                    # [PB,L,4R]
    proj = ad.transpose(ad.reshape(proj, (PB, L, 4, R)), (2, 0, 1, 3))     # [4,PB,L,R]
    w_dt = ad.stack([q.dt_proj.weight for q in rows_by_dir], (4, PB, C, r))
    b_dt = ad.stack([q.dt_proj.bias for q in rows_by_dir], (4, PB, 1, C))
    delta = ad.softplus(ad.add(ad.matmul(proj[..., :r], ad.transpose(w_dt, (0, 1, 3, 2))),
                               b_dt))
    A = ad.neg(ad.exp(ad.stack([q.A_log for q in by_dir], (4, P, C, n))))
    D_skip = ad.stack([q.D_skip for q in by_dir], (4, P, C))
    y = ssm_scan_core(seq, delta, A, proj[..., r:r + n], proj[..., r + n:], D_skip,
                      traversal_orders(H, W))
    y = ad.reshape(ad.transpose(y, (0, 2, 1)), (PB, C, H, W))
    return [y] if P == 1 else [y[p * B:(p + 1) * B] for p in range(P)]


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
        return mamba_blocks([self], [x])[0]


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
        return fusion_blocks([self], [primary], [auxiliary])[0]


def _gated_residuals(blocks, xs, xns, scanned):
    return [ad.add(x, blk.proj_out(ad.mul(s, ad.silu(blk.gate(xn)))))
            for blk, x, xn, s in zip(blocks, xs, xns, scanned)]


def mamba_blocks(blocks: list[MambaBlock], xs: list[Tensor]) -> list[Tensor]:
    """Run block p on xs[p] for P independent blocks of equal shape, with one
    four-way scan for all of them; output p has the bits of blocks[p](xs[p])."""
    for blk, x in zip(blocks, xs):
        if x.shape[1] != blk.channels:
            raise ConfigError(f"block expects {blk.channels} channels, got {x.shape[1]}")
    xns = [blk.norm(x) for blk, x in zip(blocks, xs)]
    inner = [ad.silu(blk.dw(blk.proj_in(xn))) for blk, xn in zip(blocks, xns)]
    scanned = four_way_scan(inner, [list(blk.scan) for blk in blocks])
    return _gated_residuals(blocks, xs, xns, scanned)


def fusion_blocks(blocks: list[FusionMambaBlock], primaries: list[Tensor],
                  auxiliaries: list[Tensor]) -> list[Tensor]:
    """Run block p on (primaries[p], auxiliaries[p]) for P independent fusion
    blocks of equal shape, with one four-way scan for all of them."""
    for pri, aux in zip(primaries, auxiliaries):
        if pri.shape != aux.shape:
            raise ConfigError(f"fusion inputs must share shape: {pri.shape} vs {aux.shape}")
    pns, ans = zip(*[(blk.norm(pri), blk.aux_norm(aux))
                     for blk, pri, aux in zip(blocks, primaries, auxiliaries)])
    p_inner = [ad.silu(blk.dw(blk.proj_in(pn))) for blk, pn in zip(blocks, pns)]
    a_inner = [ad.silu(blk.aux_dw(blk.aux_proj_in(an))) for blk, an in zip(blocks, ans)]
    scanned = four_way_scan(p_inner, [list(blk.scan) for blk in blocks], a_inner)
    return _gated_residuals(blocks, primaries, pns, scanned)
