"""Spatial attention, cross-enhanced spatial attention, channel attention,
and the cross-channel fusion that combines the two modality streams."""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import AlignmentError, ConfigError, SAFE_DIV_EPS, Tensor
from .nn import Conv2d, Linear, Module

class SpatialAttention(Module):
    """sigma(conv_kxk(concat(channel-max, channel-mean))) -> [B,1,H,W] in (0,1)."""

    def __init__(self, rng, kernel: int = 7):
        super().__init__()
        if kernel % 2 == 0:
            raise ConfigError(f"spatial attention kernel must be odd, got {kernel}")
        self.conv = Conv2d(rng, 2, 1, kernel, padding=(kernel - 1) // 2)

    def __call__(self, x: Tensor) -> Tensor:
        stats = ad.concat([ad.max_channel(x), ad.mean_channel(x)], axis=1)
        return ad.sigmoid(self.conv(stats))


def cross_enhanced_spatial(rgb: Tensor, ir: Tensor,
                           rgb_attn: SpatialAttention, ir_attn: SpatialAttention):
    """Multiply each modality by both spatial attention maps.

    Returns (enhanced_rgb, enhanced_ir); the [B,1,H,W] maps broadcast over
    channels, so rgb may have 3 channels and ir 1.
    """
    if rgb.shape[0] != ir.shape[0] or rgb.shape[2:] != ir.shape[2:]:
        raise AlignmentError(
            f"modalities must share batch and spatial dims: {rgb.shape} vs {ir.shape}")
    a_rgb = rgb_attn(rgb)
    a_ir = ir_attn(ir)
    joint = ad.mul(a_rgb, a_ir)
    return ad.mul(rgb, joint), ad.mul(ir, joint)


class ChannelAttention(Module):
    """sigma(mlp(avgpool(x))) -> [B,C,1,1] in (0,1); mlp bottleneck C -> C/r -> C."""

    def __init__(self, rng, channels: int, reduction: int = 4):
        super().__init__()
        if channels % reduction:
            raise ConfigError(f"channels {channels} not divisible by reduction {reduction}")
        self.channels = channels
        hidden = channels // reduction
        self.fc1 = Linear(rng, channels, hidden)
        self.fc2 = Linear(rng, hidden, channels)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.channels:
            raise ConfigError(f"expected {self.channels} channels, got {x.shape[1]}")
        B, C = x.shape[0], x.shape[1]
        vec = ad.reshape(ad.global_avg_pool(x), (B, C))
        weights = ad.sigmoid(self.fc2(ad.silu(self.fc1(vec))))
        return ad.reshape(weights, (B, C, 1, 1))


def cross_channel_fuse(f_rgb: Tensor, f_ir: Tensor, w_rgb: Tensor, w_ir: Tensor,
                       eps: float = SAFE_DIV_EPS) -> Tensor:
    """f_rgb*w_rgb/w_ir + f_ir*w_ir/w_rgb with stabilized division.

    Channel weights [B,C,1,1] broadcast over space; symmetric under swapping
    the (feature, weight) pairs of the two modalities.
    """
    for f, w in ((f_rgb, w_rgb), (f_ir, w_ir)):
        if f.shape[0] != w.shape[0] or f.shape[1] != w.shape[1]:
            raise ConfigError(f"feature/weight shape mismatch: {f.shape} vs {w.shape}")
    if f_rgb.shape != f_ir.shape:
        raise ConfigError(f"modal features must share shape: {f_rgb.shape} vs {f_ir.shape}")
    term_rgb = ad.safe_div(ad.mul(f_rgb, w_rgb), w_ir, eps=eps)
    term_ir = ad.safe_div(ad.mul(f_ir, w_ir), w_rgb, eps=eps)
    return ad.add(term_rgb, term_ir)
