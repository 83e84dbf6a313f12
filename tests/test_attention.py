"""Attention paths: spatial map behavior, cross-modal enhancement, channel
weighting, and the reciprocal-weighted fusion identity."""

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.attention import (ChannelAttention, SpatialAttention,
                                 cross_channel_fuse, cross_enhanced_spatial)
from mambafuse.autodiff import AlignmentError, ConfigError, Tensor


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(55), np.uint64(salt))))


# ---------------------------------------------------------------------------
# spatial


def test_spatial_attention_is_half_with_zero_conv():
    att = SpatialAttention(rng(1), kernel=7)
    att.conv.weight.data[:] = 0
    att.conv.bias.data[:] = 0
    x = Tensor(rng(2).normal(size=(2, 5, 6, 6)).astype(np.float32))
    out = att(x).data
    assert out.shape == (2, 1, 6, 6)
    np.testing.assert_array_equal(out, np.full_like(out, 0.5))


def test_spatial_attention_range_and_shape():
    att = SpatialAttention(rng(3), kernel=3)
    x = Tensor(rng(4).normal(size=(1, 4, 5, 7)).astype(np.float32) * 10)
    out = att(x).data
    assert out.shape == (1, 1, 5, 7)
    assert np.all(out > 0) and np.all(out < 1)


def test_spatial_attention_rejects_even_kernel():
    with pytest.raises(ConfigError):
        SpatialAttention(rng(5), kernel=4)


def test_spatial_attention_matches_composed_primitives():
    att = SpatialAttention(rng(6), kernel=3)
    x = Tensor(rng(7).normal(size=(2, 3, 4, 4)).astype(np.float32))
    stats = np.concatenate([x.data.max(axis=1, keepdims=True),
                            x.data.mean(axis=1, keepdims=True)], axis=1)
    want = ad.sigmoid(ad.conv2d(Tensor(stats), att.conv.weight, att.conv.bias,
                                1, 1)).data
    np.testing.assert_allclose(att(x).data, want, rtol=1e-6, atol=1e-7)


def test_cross_enhanced_spatial_is_joint_product():
    r = rng(8)
    rgb = Tensor(r.normal(size=(1, 3, 6, 6)).astype(np.float32))
    ir = Tensor(r.normal(size=(1, 1, 6, 6)).astype(np.float32))
    att_rgb = SpatialAttention(r, kernel=3)
    att_ir = SpatialAttention(r, kernel=3)
    e_rgb, e_ir = cross_enhanced_spatial(rgb, ir, att_rgb, att_ir)
    joint = att_rgb(rgb).data * att_ir(ir).data
    np.testing.assert_allclose(e_rgb.data, rgb.data * joint, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(e_ir.data, ir.data * joint, rtol=1e-6, atol=1e-7)


def test_cross_enhanced_spatial_rejects_misaligned_maps():
    r = rng(9)
    rgb = Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32))
    ir = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(AlignmentError):
        cross_enhanced_spatial(rgb, ir, SpatialAttention(r, 3), SpatialAttention(r, 3))


# ---------------------------------------------------------------------------
# channel


def test_channel_attention_is_sigmoid_of_mlp_on_mean():
    r = rng(10)
    att = ChannelAttention(r, channels=8, reduction=4)
    x = Tensor(r.normal(size=(2, 8, 3, 3)).astype(np.float32))
    out = att(x).data
    assert out.shape == (2, 8, 1, 1)
    vec = x.data.mean(axis=(2, 3))
    h = ad.silu(ad.linear(Tensor(vec), att.fc1.weight, att.fc1.bias))
    want = ad.sigmoid(ad.linear(h, att.fc2.weight, att.fc2.bias)).data
    np.testing.assert_allclose(out.reshape(2, 8), want, rtol=1e-5, atol=1e-6)


def test_channel_attention_validates_config():
    with pytest.raises(ConfigError):
        ChannelAttention(rng(12), channels=6, reduction=4)


# ---------------------------------------------------------------------------
# cross-channel fusion


def test_fuse_swap_symmetry():
    r = rng(14)
    f1 = Tensor(r.normal(size=(2, 4, 3, 3)).astype(np.float32))
    f2 = Tensor(r.normal(size=(2, 4, 3, 3)).astype(np.float32))
    w1 = Tensor(r.uniform(0.1, 0.9, size=(2, 4, 1, 1)).astype(np.float32))
    w2 = Tensor(r.uniform(0.1, 0.9, size=(2, 4, 1, 1)).astype(np.float32))
    np.testing.assert_array_equal(cross_channel_fuse(f1, f2, w1, w2).data,
                                  cross_channel_fuse(f2, f1, w2, w1).data)


def test_fuse_scalar_hand_case():
    # 2*0.5/0.25 + 3*0.25/0.5 = 4 + 1.5
    out = cross_channel_fuse(Tensor([[[[2.0]]]]), Tensor([[[[3.0]]]]),
                             Tensor([[[[0.5]]]]), Tensor([[[[0.25]]]]), eps=0.0)
    assert out.item() == pytest.approx(5.5)


def test_fuse_equal_weights_is_plain_sum():
    r = rng(15)
    f1 = Tensor(r.normal(size=(1, 3, 2, 2)).astype(np.float32))
    f2 = Tensor(r.normal(size=(1, 3, 2, 2)).astype(np.float32))
    w = Tensor(np.full((1, 3, 1, 1), 0.7, dtype=np.float32))
    out = cross_channel_fuse(f1, f2, w, w, eps=0.0).data
    np.testing.assert_allclose(out, f1.data + f2.data, rtol=1e-5)


def test_fuse_zero_weight_stays_finite():
    f = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    z = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    out = cross_channel_fuse(f, f, w, z).data  # divides by the zero weight
    assert np.all(np.isfinite(out))


def test_fuse_rejects_shape_mismatch():
    f = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
    g = Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32))
    w3 = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
    w4 = Tensor(np.zeros((1, 4, 1, 1), dtype=np.float32))
    with pytest.raises(ConfigError):
        cross_channel_fuse(f, g, w3, w4)
