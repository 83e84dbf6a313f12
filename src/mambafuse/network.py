"""Backbone assembly: deformable-token scan stages, the two-modality fusion
pipeline, and the four-stage multiscale stack."""

from __future__ import annotations

from .autodiff import ConfigError, Tensor
from .attention import (ChannelAttention, SpatialAttention, cross_channel_fuse,
                        cross_enhanced_spatial)
from .config import ModelConfig
from .deformable import DeformableToken
from .nn import Module
from .ssm import FusionMambaBlock, MambaBlock, fusion_blocks, mamba_blocks


class DTMB(DeformableToken):
    """Deformable tokenization followed by a scan block; downsamples by
    the token stride and sets the stage channel width."""

    def __init__(self, rng, cin: int, cout: int, kernel: int, stride: int,
                 padding: int, d_state: int, expand: int):
        super().__init__(rng, cin, cout, kernel, stride, padding)
        self.mamba = MambaBlock(rng, cout, d_state=d_state, expand=expand)

    def tokens(self, x: Tensor) -> Tensor:
        if x.shape[2] % self.stride or x.shape[3] % self.stride:
            raise ConfigError(
                f"spatial dims {x.shape[2:]} not divisible by stride {self.stride}")
        return super().__call__(x)

    def __call__(self, x: Tensor) -> Tensor:
        return self.mamba(self.tokens(x))


class AttentionPack(Module):
    """Per-modality spatial attentions and channel attentions (separate weights)."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.rgb_spatial = SpatialAttention(rng)
        self.ir_spatial = SpatialAttention(rng)
        self.rgb_channel = ChannelAttention(rng, cfg.base_width)
        self.ir_channel = ChannelAttention(rng, cfg.base_width)


class _Pair(Module):
    def __init__(self, rgb: Module, ir: Module):
        super().__init__()
        self.rgb = rgb
        self.ir = ir


class _Branch(Module):
    def __init__(self, dtmb: DTMB):
        super().__init__()
        self.dtmb = dtmb


class FFAR(Module):
    """Cross-enhanced spatial attention -> per-modality DTMB -> two fusion
    scan blocks -> channel attention -> cross-channel fusion.  The two
    modalities' scan blocks run as pairs: one four-way scan for both DTMB
    blocks, and one for both fusion blocks."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        c0, s = cfg.base_width, cfg.ffar_stride
        self.attn = AttentionPack(rng, cfg)
        # rgb/ir DTMBs are addressable as <branch>.dtmb in the checkpoint;
        # each patchifies with a kernel equal to its stride
        self.rgb = _Branch(DTMB(rng, 3, c0, s, s, 0, cfg.ssm_state, cfg.ssm_expand))
        self.ir = _Branch(DTMB(rng, 1, c0, s, s, 0, cfg.ssm_state, cfg.ssm_expand))
        self.fusion_mamba = _Pair(
            FusionMambaBlock(rng, c0, cfg.ssm_state, cfg.ssm_expand),
            FusionMambaBlock(rng, c0, cfg.ssm_state, cfg.ssm_expand))

    def __call__(self, rgb: Tensor, ir: Tensor) -> Tensor:
        if rgb.shape[1] != 3 or ir.shape[1] != 1:
            raise ConfigError(
                f"expected 3-channel rgb and 1-channel ir, got {rgb.shape}/{ir.shape}")
        rgb_cs, ir_cs = cross_enhanced_spatial(
            rgb, ir, self.attn.rgb_spatial, self.attn.ir_spatial)
        f_rgb, f_ir = mamba_blocks(
            [self.rgb.dtmb.mamba, self.ir.dtmb.mamba],
            [self.rgb.dtmb.tokens(rgb_cs), self.ir.dtmb.tokens(ir_cs)])
        f_rgb_fm, f_ir_fm = fusion_blocks(
            [self.fusion_mamba.rgb, self.fusion_mamba.ir], [f_rgb, f_ir], [f_ir, f_rgb])
        w_rgb = self.attn.rgb_channel(f_rgb_fm)
        w_ir = self.attn.ir_channel(f_ir_fm)
        return cross_channel_fuse(f_rgb_fm, f_ir_fm, w_rgb, w_ir)


class MDTMB(Module):
    """Four stacked stride-2 stages; levels 2..4 feed the neck."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        widths = (cfg.base_width,) + tuple(cfg.stage_widths)
        for i in range(4):
            # 3x3 tokens at stride 2, padding 1
            setattr(self, f"stage{i + 1}",
                    _Branch(DTMB(rng, widths[i], widths[i + 1], 3, 2, 1,
                                 cfg.ssm_state, cfg.ssm_expand)))

    def stages(self):
        return [getattr(self, f"stage{i + 1}").dtmb for i in range(4)]

    def __call__(self, f_f: Tensor):
        if f_f.shape[2] % 16 or f_f.shape[3] % 16:
            raise ConfigError(
                f"fused map spatial dims {f_f.shape[2:]} must be divisible by 16")
        feats = []
        x = f_f
        for stage in self.stages():
            x = stage(x)
            feats.append(x)
        return feats[1], feats[2], feats[3]


class Backbone(Module):
    """FFAR followed by the multiscale stack; emits strides 16/32/64."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.ffar = FFAR(rng, cfg)
        self.mdtmb = MDTMB(rng, cfg)

    def __call__(self, rgb: Tensor, ir: Tensor):
        return self.mdtmb(self.ffar(rgb, ir))
