"""Backbone and neck composition: shape contracts, stride arithmetic, and
behavioral checks that the fusion path actually uses both modalities."""

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import ConfigError, Tensor, no_grad
from mambafuse.attention import cross_channel_fuse, cross_enhanced_spatial
from mambafuse.config import ModelConfig, tiny_config
from mambafuse.deformable import DeformableToken
from mambafuse.detect import DNM, REG_MAX, DetectHead, SPPFMamba
from mambafuse.model import build_detector
from mambafuse.network import DTMB, FFAR, MDTMB, Backbone


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(31), np.uint64(salt))))


def small_pair(r, size=128, batch=1):
    rgb = r.normal(size=(batch, 3, size, size)).astype(np.float32)
    ir = r.normal(size=(batch, 1, size, size)).astype(np.float32)
    return Tensor(rgb), Tensor(ir)


def test_ffar_output_is_quarter_resolution():
    cfg = tiny_config()
    ffar = FFAR(rng(1), cfg)
    rgb, ir = small_pair(rng(2))
    out = ffar(rgb, ir)
    assert out.shape == (1, cfg.base_width, 32, 32)


def test_ffar_rejects_wrong_channel_layout():
    cfg = tiny_config()
    ffar = FFAR(rng(3), cfg)
    bad = Tensor(np.zeros((1, 1, 128, 128), dtype=np.float32))
    ir = Tensor(np.zeros((1, 1, 128, 128), dtype=np.float32))
    with pytest.raises(ConfigError):
        ffar(bad, ir)


def test_ffar_depends_on_both_modalities():
    cfg = tiny_config()
    ffar = FFAR(rng(4), cfg)
    r = rng(5)
    rgb, ir = small_pair(r)
    _, ir2 = small_pair(r)
    with no_grad():
        a = ffar(rgb, ir).data
        b = ffar(rgb, ir2).data
    assert not np.array_equal(a, b)


def test_ffar_not_symmetric_under_modality_content_swap():
    # separate per-modality weights: feeding the IR content through the RGB
    # branch must not reproduce the same fused map
    cfg = tiny_config()
    ffar = FFAR(rng(6), cfg)
    r = rng(7)
    ir_a = Tensor(r.normal(size=(1, 1, 128, 128)).astype(np.float32))
    ir_b = Tensor(r.normal(size=(1, 1, 128, 128)).astype(np.float32))
    rgb_a = Tensor(np.repeat(ir_a.data, 3, axis=1))
    rgb_b = Tensor(np.repeat(ir_b.data, 3, axis=1))
    with no_grad():
        ab = ffar(rgb_a, ir_b).data
        ba = ffar(rgb_b, ir_a).data
    assert not np.allclose(ab, ba)


def sequential_ffar(ffar, rgb, ir):
    """The FFAR with every scan block run on its own, one after another."""
    rgb_cs, ir_cs = cross_enhanced_spatial(rgb, ir, ffar.attn.rgb_spatial, ffar.attn.ir_spatial)
    f_rgb = ffar.rgb.dtmb(rgb_cs)
    f_ir = ffar.ir.dtmb(ir_cs)
    f_rgb_fm = ffar.fusion_mamba.rgb(f_rgb, f_ir)
    f_ir_fm = ffar.fusion_mamba.ir(f_ir, f_rgb)
    return cross_channel_fuse(f_rgb_fm, f_ir_fm, ffar.attn.rgb_channel(f_rgb_fm),
                              ffar.attn.ir_channel(f_ir_fm))


@pytest.mark.parametrize("batch", [1, 8])
def test_ffar_paired_scans_equal_sequential_blocks_bitwise(batch):
    ffar = FFAR(rng(23), tiny_config())
    rgb, ir = small_pair(rng(24), batch=batch)
    with no_grad():
        assert ffar(rgb, ir).data.tobytes() == sequential_ffar(ffar, rgb, ir).data.tobytes()


def test_mdtmb_halves_resolution_per_stage():
    cfg = tiny_config()
    mdtmb = MDTMB(rng(8), cfg)
    x = Tensor(rng(9).normal(size=(1, cfg.base_width, 32, 32)).astype(np.float32))
    with no_grad():
        p2, p3, p4 = mdtmb(x)
    assert p2.shape == (1, cfg.stage_widths[1], 8, 8)
    assert p3.shape == (1, cfg.stage_widths[2], 4, 4)
    assert p4.shape == (1, cfg.stage_widths[3], 2, 2)


def test_mdtmb_rejects_indivisible_input():
    cfg = tiny_config()
    mdtmb = MDTMB(rng(10), cfg)
    with pytest.raises(ConfigError):
        mdtmb(Tensor(np.zeros((1, cfg.base_width, 24, 24), dtype=np.float32)))


def test_backbone_level_strides_match_config():
    cfg = tiny_config()
    bb = Backbone(rng(11), cfg)
    rgb, ir = small_pair(rng(12))
    with no_grad():
        p2, p3, p4 = bb(rgb, ir)
    for p, stride in zip((p2, p3, p4), cfg.level_strides):
        assert p.shape[2] == 128 // stride and p.shape[3] == 128 // stride
    assert cfg.level_strides == (16, 32, 64)


def test_neck_preserves_level_shapes():
    cfg = tiny_config()
    neck = DNM(rng(13), cfg)
    r = rng(14)
    c2, c3, c4 = cfg.level_widths
    p2 = Tensor(r.normal(size=(1, c2, 8, 8)).astype(np.float32))
    p3 = Tensor(r.normal(size=(1, c3, 4, 4)).astype(np.float32))
    p4 = Tensor(r.normal(size=(1, c4, 2, 2)).astype(np.float32))
    with no_grad():
        t2, b3, b4 = neck(p2, p3, p4)
    assert t2.shape == p2.shape
    assert b3.shape == p3.shape
    assert b4.shape == p4.shape


def test_neck_rejects_non_pyramid_inputs():
    cfg = tiny_config()
    neck = DNM(rng(15), cfg)
    c2, c3, c4 = cfg.level_widths
    p2 = Tensor(np.zeros((1, c2, 8, 8), dtype=np.float32))
    p3 = Tensor(np.zeros((1, c3, 3, 3), dtype=np.float32))
    p4 = Tensor(np.zeros((1, c4, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        neck(p2, p3, p4)


def test_sppf_matches_cascaded_pool_composition():
    cfg = tiny_config()
    sppf = SPPFMamba(rng(16), cfg.stage_widths[3], cfg.ssm_state, cfg.ssm_expand)
    x = Tensor(rng(17).normal(size=(1, cfg.stage_widths[3], 4, 4)).astype(np.float32))
    with no_grad():
        y0 = sppf.cv1(x)
        p1 = ad.max_pool2d(y0, 5, 1, 2)
        p2 = ad.max_pool2d(p1, 5, 1, 2)
        p3 = ad.max_pool2d(p2, 5, 1, 2)
        want = sppf.cv2(ad.concat([y0, sppf.m1(p1), sppf.m2(p2), sppf.m3(p3)],
                                  axis=1)).data
        np.testing.assert_array_equal(sppf(x).data, want)


def test_head_channel_contract():
    cfg = tiny_config()
    head = DetectHead(rng(18), cfg)
    r = rng(19)
    feats = [Tensor(r.normal(size=(2, c, 8 >> i, 8 >> i)).astype(np.float32))
             for i, c in enumerate(cfg.level_widths)]
    with no_grad():
        out = head(feats)
    for i, (cls, box) in enumerate(out):
        assert cls.shape[1] == cfg.num_classes
        assert box.shape[1] == 4 * (REG_MAX + 1)
        assert cls.shape[2:] == feats[i].shape[2:]


def test_detector_end_to_end_shapes_at_desk_size():
    cfg = tiny_config()
    model = build_detector(cfg, seed=3)
    r = rng(20)
    preds = model.predict_np(r.normal(size=(1, 3, 128, 128)).astype(np.float32),
                             r.normal(size=(1, 1, 128, 128)).astype(np.float32))
    sides = [p[0].shape[2] for p in preds]
    assert sides == [8, 4, 2]


def test_dtmb_token_then_scan_composition():
    cfg = tiny_config()
    stage = DTMB(rng(21), 3, 8, 3, 2, 1, cfg.ssm_state, cfg.ssm_expand)
    x = Tensor(rng(22).normal(size=(1, 3, 8, 8)).astype(np.float32))
    with no_grad():
        want = stage.mamba(DeformableToken.__call__(stage, x)).data
        np.testing.assert_array_equal(stage(x).data, want)
    with pytest.raises(ConfigError):
        stage(Tensor(np.zeros((1, 3, 7, 7), dtype=np.float32)))


def test_config_input_size_divisibility():
    with pytest.raises(ConfigError):
        ModelConfig(input_size=100)
    with pytest.raises(ConfigError):
        tiny_config(stage_widths=(16, 24, 32))
