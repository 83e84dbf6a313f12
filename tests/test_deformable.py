"""Deformable convolution: equivalence with plain convolution at zero offset,
integer-shift oracles, gradients through sampling coordinates, and the
two-branch token module."""

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import ConfigError, Tensor, grad_check, precision
from mambafuse.deformable import DeformableToken, deformable_conv2d


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(4242), np.uint64(salt))))


@pytest.mark.parametrize("K,stride,padding", [(1, 1, 0), (3, 1, 1), (3, 2, 1), (4, 4, 0)])
def test_zero_offsets_reduce_to_plain_conv(K, stride, padding):
    r = rng(1)
    x = Tensor(r.normal(size=(2, 3, 8, 8)).astype(np.float32))
    w = Tensor(r.normal(size=(4, 3, K, K)).astype(np.float32))
    b = Tensor(r.normal(size=4).astype(np.float32))
    Ho = ad.conv_out_size(8, K, stride, padding)
    offs = Tensor(np.zeros((2, 2 * K * K, Ho, Ho), dtype=np.float32))
    got = deformable_conv2d(x, w, b, offs, stride, padding).data
    want = ad.conv2d(x, w, b, stride, padding).data
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_uniform_integer_offset_equals_shifted_input():
    # offset (dy=0, dx=1) everywhere samples the input shifted one column
    # left, so on interior sites the result equals conv of the shifted map
    r = rng(2)
    x = r.normal(size=(1, 2, 7, 7)).astype(np.float32)
    w = Tensor(r.normal(size=(3, 2, 3, 3)).astype(np.float32))
    offs = np.zeros((1, 18, 5, 5), dtype=np.float32)
    offs[:, 1::2] = 1.0  # dx channels
    got = deformable_conv2d(Tensor(x), w, None, Tensor(offs), 1, 0).data
    shifted = np.roll(x, -1, axis=3)
    want = ad.conv2d(Tensor(shifted), w, None, 1, 0).data
    np.testing.assert_allclose(got[:, :, :, :4], want[:, :, :, :4],
                               rtol=1e-4, atol=1e-4)


def test_fractional_offset_blends_neighbors():
    # single 1x1 kernel, half-pixel dx: output = mean of two neighbors
    x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    offs = np.zeros((1, 2, 3, 3), dtype=np.float32)
    offs[:, 1] = 0.5
    got = deformable_conv2d(Tensor(x), w, None, Tensor(offs), 1, 0).data
    want = np.array([[0.5, 1.5, 1.0],
                     [3.5, 4.5, 2.5],
                     [6.5, 7.5, 4.0]], dtype=np.float32)  # edge blends with 0
    np.testing.assert_allclose(got[0, 0], want, rtol=1e-6)


def test_offsets_beyond_border_sample_zero():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    offs = np.full((1, 2, 3, 3), 100.0, dtype=np.float32)
    out = deformable_conv2d(x, w, None, Tensor(offs), 1, 0).data
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_grad_through_offsets_at_fractional_points():
    with precision("f64"):
        r = rng(3)
        x = Tensor(r.normal(size=(1, 2, 5, 5)))
        w = Tensor(r.normal(size=(2, 2, 3, 3)))
        offs = Tensor(r.uniform(0.2, 0.7, size=(1, 18, 5, 5)))

        def f(xi, wi, oi):
            return ad.sum_all(ad.sigmoid(deformable_conv2d(xi, wi, None, oi, 1, 1)))

        assert grad_check(f, [x, w, offs], h=1e-4, sample=30) < 1e-6


def test_offset_conv_starts_at_zero():
    tok = DeformableToken(rng(4), cin=3, cout=5, kernel=3, stride=2, padding=1)
    assert tok.offset_conv.weight.shape == (18, 3, 3, 3)
    x = Tensor(rng(5).normal(size=(1, 3, 8, 8)).astype(np.float32))
    np.testing.assert_array_equal(tok.offsets(x).data,
                                  np.zeros((1, 18, 4, 4), dtype=np.float32))


def test_deformable_conv_records_seven_tape_nodes():
    # two offset slices, two lattice adds, the sampler, the weight reshape
    # and the 1x1 conv that contracts the samples and adds the bias
    r = rng(6)
    x = Tensor(r.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(r.normal(size=4).astype(np.float32), requires_grad=True)
    offs = Tensor(r.uniform(-1, 1, size=(2, 18, 4, 4)).astype(np.float32),
                  requires_grad=True)
    with ad.Tape() as tape:
        deformable_conv2d(x, w, b, offs, 2, 1)
    assert len(tape) == 7


def test_deformable_conv_validates_offset_shape():
    x = Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32))
    w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
    offs = Tensor(np.zeros((1, 18, 3, 3), dtype=np.float32))  # wrong grid
    with pytest.raises(ConfigError):
        deformable_conv2d(x, w, None, offs, 1, 1)


def test_token_module_sums_both_branches():
    r = rng(7)
    tok = DeformableToken(r, cin=3, cout=5, kernel=3, stride=2, padding=1)
    x = Tensor(r.normal(size=(1, 3, 8, 8)).astype(np.float32))
    normal = ad.conv2d(x, tok.norm_conv.weight, tok.norm_conv.bias, 2, 1).data
    deform = deformable_conv2d(x, tok.def_conv.weight, tok.def_conv.bias,
                               tok.offsets(x), 2, 1).data
    np.testing.assert_allclose(tok(x).data, normal + deform,
                               rtol=1e-5, atol=1e-6)


def test_fresh_token_module_equals_two_plain_convs():
    # offsets start at zero, so at initialization the deformable branch is a
    # plain convolution and the module is the sum of its two conv branches
    r = rng(8)
    tok = DeformableToken(r, cin=2, cout=4, kernel=4, stride=4, padding=0)
    x = Tensor(r.normal(size=(1, 2, 16, 16)).astype(np.float32))
    want = ad.conv2d(x, tok.norm_conv.weight, tok.norm_conv.bias, 4, 0).data + \
        ad.conv2d(x, tok.def_conv.weight, tok.def_conv.bias, 4, 0).data
    np.testing.assert_allclose(tok(x).data, want, rtol=1e-5, atol=1e-5)
