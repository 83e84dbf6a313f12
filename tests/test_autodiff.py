"""Tensor core: forward oracles against naive numpy loops, finite-difference
gradient checks, and tape semantics."""

import tracemalloc
import weakref

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import (ConfigError, Tape, Tensor, UsageError,
                                grad_check, no_grad, precision)
from mambafuse.nn import DepthwiseConv3x3


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(77), np.uint64(salt))))


# ---------------------------------------------------------------------------
# forward oracles


def naive_conv2d(x, w, b, stride, padding):
    B, C, H, W = x.shape
    Cout, _, K, _ = w.shape
    Ho = (H + 2 * padding - K) // stride + 1
    Wo = (W + 2 * padding - K) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    y = np.zeros((B, Cout, Ho, Wo), dtype=np.float64)
    for bi in range(B):
        for co in range(Cout):
            for oy in range(Ho):
                for ox in range(Wo):
                    patch = xp[bi, :, oy * stride:oy * stride + K,
                               ox * stride:ox * stride + K]
                    y[bi, co, oy, ox] = (patch * w[co]).sum()
            if b is not None:
                y[bi, co] += b[co]
    return y


# ids: stride-padding, then the one-output-channel and no-bias variants; then
# conv shapes of the model: a 1x1 conv, the 4x4 stride-4 patchify of the IR
# and the RGB image, and the 7x7 attention conv; the last two are maps smaller
# than the kernel window, where taps that read only padding are skipped
@pytest.mark.parametrize("stride,padding,cout,bias,cin,kernel,hw", [
    pytest.param(1, 0, 4, True, 3, 3, (7, 6), id="1-0"),
    pytest.param(1, 1, 4, True, 3, 3, (7, 6), id="1-1"),
    pytest.param(2, 1, 4, True, 3, 3, (7, 6), id="2-1"),
    pytest.param(2, 0, 4, True, 3, 3, (7, 6), id="2-0"),
    pytest.param(1, 3, 1, True, 3, 3, (7, 6), id="1-3-cout1"),
    pytest.param(2, 1, 1, True, 3, 3, (7, 6), id="2-1-cout1"),
    pytest.param(2, 0, 1, True, 3, 3, (7, 6), id="2-0-cout1"),
    pytest.param(1, 1, 1, False, 3, 3, (7, 6), id="1-1-cout1-nobias"),
    pytest.param(2, 1, 4, False, 3, 3, (7, 6), id="2-1-nobias"),
    pytest.param(1, 0, 4, True, 3, 1, (7, 6), id="1x1"),
    pytest.param(4, 0, 4, True, 1, 4, (8, 12), id="patchify-cin1"),
    pytest.param(4, 0, 4, True, 3, 4, (8, 12), id="patchify-cin3"),
    pytest.param(1, 3, 1, True, 2, 7, (7, 6), id="7x7-cout1"),
    pytest.param(1, 1, 4, True, 3, 3, (1, 1), id="dead-taps-1x1-map"),
    pytest.param(2, 1, 4, True, 3, 3, (2, 2), id="dead-taps-2x2-map-stride2"),
    pytest.param(3, 1, 4, True, 3, 3, (7, 6), id="3x3-stride3"),
    pytest.param(2, 0, 4, True, 3, 1, (7, 6), id="1x1-stride2"),
    pytest.param(2, 1, 4, True, 3, 4, (7, 6), id="4x4-stride2"),
])
def test_conv2d_matches_naive_loop(stride, padding, cout, bias, cin, kernel, hw):
    r = rng(1)
    x = r.normal(size=(2, cin) + hw).astype(np.float32)
    w = r.normal(size=(cout, cin, kernel, kernel)).astype(np.float32)
    b = r.normal(size=cout).astype(np.float32) if bias else None
    got = ad.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                    stride, padding).data
    want = naive_conv2d(x, w, b, stride, padding)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv2d_rejects_bad_channel_count():
    with pytest.raises(ConfigError):
        ad.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 4, 3, 3))), None)


def test_conv2d_rejects_bias_of_wrong_shape():
    x, w = Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 2, 3, 3)))
    for bias_shape in ((5,), (1, 3)):
        with pytest.raises(ConfigError, match="bias"):
            ad.conv2d(x, w, Tensor(np.zeros(bias_shape)), 1, 1)


def test_max_pool2d_matches_naive_loop():
    r = rng(2)
    x = r.normal(size=(2, 3, 8, 8)).astype(np.float32)
    got = ad.max_pool2d(Tensor(x), 5, 1, 2).data
    xp = np.full((2, 3, 12, 12), np.finfo(np.float32).min, dtype=np.float32)
    xp[:, :, 2:10, 2:10] = x
    want = np.zeros_like(got)
    for oy in range(8):
        for ox in range(8):
            want[:, :, oy, ox] = xp[:, :, oy:oy + 5, ox:ox + 5].max(axis=(2, 3))
    np.testing.assert_array_equal(got, want)


def test_linear_matches_einsum():
    r = rng(3)
    x = r.normal(size=(2, 5, 4)).astype(np.float32)
    w = r.normal(size=(6, 4)).astype(np.float32)
    b = r.normal(size=6).astype(np.float32)
    got = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    want = np.einsum("bld,od->blo", x, w) + b
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_matmul_broadcasts_batch_dims():
    r = rng(4)
    a = r.normal(size=(3, 2, 4)).astype(np.float32)
    b = r.normal(size=(4, 5)).astype(np.float32)
    got = ad.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, a @ b, rtol=1e-6)


def test_upsample_nearest2x_repeats_pixels():
    x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
    y = ad.upsample_nearest2x(Tensor(x)).data
    assert y.shape == (1, 2, 4, 4)
    assert np.array_equal(y[:, :, ::2, ::2], x)
    assert np.array_equal(y[:, :, 1::2, 1::2], x)


def test_channel_reductions_match_numpy():
    x = Tensor(rng(5).normal(size=(1, 3, 4, 4)).astype(np.float32))
    np.testing.assert_array_equal(ad.max_channel(x).data, x.data.max(axis=1, keepdims=True))
    np.testing.assert_allclose(ad.mean_channel(x).data,
                               x.data.mean(axis=1, keepdims=True), rtol=1e-6)
    np.testing.assert_allclose(ad.global_avg_pool(x).data,
                               x.data.mean(axis=(2, 3), keepdims=True), rtol=1e-6)


def test_safe_div_by_zero_is_bounded():
    out = ad.safe_div(Tensor([1.0]), Tensor([0.0]))
    np.testing.assert_allclose(out.data, [1.0 / 1e-4], rtol=1e-6)


def test_max_axis_tie_routes_to_first_index():
    x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
    with Tape() as tape:
        ad.backward(tape, ad.sum_all(ad.max_axis(x, axis=1)))
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# bilinear sampling


def sample_plane(plane, x, y):
    """grid_sample_taps on one [H,W] plane at column x, row y, as a float."""
    H, W = plane.shape
    coord = lambda v: Tensor(np.full((1, 1, 1, 1), v))  # noqa: E731
    return ad.grid_sample_taps(Tensor(plane.reshape(1, 1, H, W)),
                               coord(y), coord(x)).data.item()


def test_bilinear_sample_at_lattice_point_is_exact():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert sample_plane(plane, 1.0, 0.0) == 2.0


def test_bilinear_sample_center_of_2x2():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert sample_plane(plane, 0.5, 0.5) == pytest.approx(2.5)


def test_bilinear_sample_out_of_bounds_is_zero():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert sample_plane(plane, -2.0, 0.0) == 0.0
    assert sample_plane(plane, 0.0, 5.0) == 0.0


def test_bilinear_sample_edge_blends_with_zero_outside():
    plane = np.array([[8.0]])
    # halfway off a 1x1 plane: 0.5*8 + 0.5*0
    assert sample_plane(plane, 0.5, 0.0) == pytest.approx(4.0)


def naive_grid_sample(x, ys, xs):
    """Per point and channel: the four bilinear corners, zero off the map."""
    B, C, H, W = x.shape
    _, T, Ho, Wo = ys.shape
    out = np.zeros((B, C, T, Ho, Wo))
    for b, t, i, j in np.ndindex(B, T, Ho, Wo):
        y, xx = float(ys[b, t, i, j]), float(xs[b, t, i, j])
        y0, x0 = int(np.floor(y)), int(np.floor(xx))
        for yc, xc in ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)):
            if 0 <= yc < H and 0 <= xc < W:
                wgt = (1.0 - abs(y - yc)) * (1.0 - abs(xx - xc))
                out[b, :, t, i, j] += wgt * x[b, :, yc, xc]
    return out.reshape(B, C * T, Ho, Wo)


def sample_coords(r, shape, H, W):
    # from -2 to H+1 / W+1, with some exact integers
    ys = r.uniform(-2.0, H + 1.0, size=shape)
    xs = r.uniform(-2.0, W + 1.0, size=shape)
    ys.reshape(-1)[::3] = np.round(ys.reshape(-1)[::3])
    xs.reshape(-1)[::4] = np.round(xs.reshape(-1)[::4])
    return ys, xs


def test_grid_sample_taps_matches_naive_loop():
    r = rng(30)
    x = r.normal(size=(2, 3, 5, 6))
    ys, xs = sample_coords(r, (2, 4, 3, 3), 5, 6)
    assert ys.min() < -1.0 and ys.max() > 5.0
    want = naive_grid_sample(x, ys, xs)
    with precision("f64"):
        got = ad.grid_sample_taps(Tensor(x), Tensor(ys), Tensor(xs)).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    got32 = ad.grid_sample_taps(Tensor(x), Tensor(ys), Tensor(xs)).data
    np.testing.assert_allclose(got32, want, rtol=1e-5, atol=1e-5)


def reference_corners(x, ys, xs):
    """The sampler's earlier corner loop: per corner, its indices clipped
    onto the map, the gathered [B,C,P] values, its weights, and a mask of
    the corners that lie on the map."""
    B, C, H, W = x.shape
    y = ys.reshape(B, -1)
    xx = xs.reshape(B, -1)
    y0 = np.floor(y)
    x0 = np.floor(xx)
    wy = y - y0
    wx = xx - x0
    y0i = y0.astype(np.int64)
    x0i = x0.astype(np.int64)
    plane = (np.arange(B * C, dtype=np.int64) * (H * W)).reshape(B, C, 1)
    xflat = x.reshape(-1)
    for dy in (0, 1):
        fy = wy if dy else 1.0 - wy
        yc = y0i + dy
        for dx in (0, 1):
            fx = wx if dx else 1.0 - wx
            xc = x0i + dx
            valid = (yc >= 0) & (yc < H) & (xc >= 0) & (xc < W)
            idx = plane + (np.clip(yc, 0, H - 1) * W + np.clip(xc, 0, W - 1))[:, None]
            yield dy, dx, idx, xflat.take(idx), fy, fx, valid


def reference_grid_sample(x, ys, xs, gy_flat):
    """The sampler's output and its three gradients for the output gradient
    gy_flat, by the earlier per-corner loop, with its float64 sums."""
    B, C, H, W = x.shape
    T, Ho, Wo = ys.shape[1:]
    out = np.zeros((B, C, T * Ho * Wo), dtype=x.dtype)
    for _, _, idx, g, fy, fx, valid in reference_corners(x, ys, xs):
        out += g * (fy * fx * valid)[:, None]
    gy = gy_flat.reshape(B, C, -1)
    gys = np.zeros((B, T * Ho * Wo), dtype=ys.dtype)
    gxs = np.zeros((B, T * Ho * Wo), dtype=xs.dtype)
    gx = np.zeros(B * C * H * W)
    for dy, dx, idx, g, fy, fx, valid in reference_corners(x, ys, xs):
        wgt = fy * fx * valid
        gx += np.bincount(idx.reshape(-1), weights=(gy * wgt[:, None]).reshape(-1),
                          minlength=gx.size)
        gdot = np.einsum("bcp,bcp->bp", gy, g) * valid
        gys += gdot * (fx * (1.0 if dy else -1.0))
        gxs += gdot * (fy * (1.0 if dx else -1.0))
    return (out.reshape(B, C * T, Ho, Wo), gx.reshape(B, C, H, W).astype(gy.dtype),
            gys.reshape(ys.shape), gxs.reshape(xs.shape))


def sampled_with_grads(x, ys, xs, gy):
    """grid_sample_taps' output and the gradients that gy gives x, ys, xs."""
    x, ys, xs = (Tensor(a, requires_grad=True) for a in (x, ys, xs))
    with Tape() as tape:
        out = ad.grid_sample_taps(x, ys, xs)
        ad.backward(tape, ad.sum_all(ad.mul(out, Tensor(gy))))
    return out.data, x.grad, ys.grad, xs.grad


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    uint = np.dtype(f"u{want.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


# the model's sampler shapes at 128 px (batch 2): the FFAR RGB and IR
# tokens (4x4 taps at stride 4) and the first MDTMB stage (3x3 at stride 2)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape,taps,grid", [
    pytest.param((2, 3, 128, 128), 16, 32, id="ffar-rgb"),
    pytest.param((2, 1, 128, 128), 16, 32, id="ffar-ir"),
    pytest.param((2, 8, 32, 32), 9, 16, id="stage1"),
])
def test_grid_sample_taps_matches_per_corner_reference_bitwise(shape, taps, grid, dtype):
    r = rng(38)
    B, C, H, W = shape
    x = r.normal(size=shape).astype(dtype)
    ys = r.uniform(-50.0, H + 40.0, size=(B, taps, grid, grid)).astype(dtype)
    xs = r.uniform(-50.0, W + 40.0, size=(B, taps, grid, grid)).astype(dtype)
    ys.reshape(-1)[::3] = np.round(ys.reshape(-1)[::3])
    xs.reshape(-1)[::4] = np.round(xs.reshape(-1)[::4])
    gy = r.normal(size=(B, C * taps, grid, grid)).astype(dtype)
    with precision("f64" if dtype == np.float64 else "f32"):
        got = sampled_with_grads(x, ys, xs, gy)
    for g, w in zip(got, reference_grid_sample(x, ys, xs, gy)):
        assert_same_bits(g, w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # casts and inf - inf
def test_grid_sample_taps_nonfinite_and_huge_coordinates():
    # NaN and infinite coordinates give NaN samples; points far off the map
    # (past the int64 range, or at 3e9) read zeros; none indexes out of range
    r = rng(39)
    x = r.normal(size=(2, 3, 5, 6)).astype(np.float32)
    special = np.array([np.nan, np.inf, -np.inf, 1e20, -1e20, 3e9], dtype=np.float32)
    n = special.size
    ys = np.full((2, 2 * n, 1, 1), 2.5, dtype=np.float32)
    xs = np.full((2, 2 * n, 1, 1), 1.25, dtype=np.float32)
    ys[:, :n, 0, 0] = special
    xs[:, n:, 0, 0] = special
    gy = r.normal(size=(2, 3 * 2 * n, 1, 1)).astype(np.float32)
    out = sampled_with_grads(x, ys, xs, gy)[0].reshape(2, 3, 2, n)
    want = reference_grid_sample(x, ys, xs, gy)[0].reshape(2, 3, 2, n)
    np.testing.assert_array_equal(out, want)
    assert np.isnan(out[..., :3]).all()
    assert (out[..., 3:] == 0).all()


def naive_depthwise(x, w, b):
    B, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros(x.shape)
    for bi, c, i, j in np.ndindex(B, C, H, W):
        y[bi, c, i, j] = (xp[bi, c, i:i + 3, j:j + 3] * w[c]).sum() + b[c]
    return y


def test_depthwise_conv3x3_matches_naive_loop():
    r = rng(31)
    x = r.normal(size=(2, 4, 5, 7)).astype(np.float32)
    w = r.normal(size=(4, 3, 3)).astype(np.float32)
    b = r.normal(size=4).astype(np.float32)
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
    np.testing.assert_allclose(got, naive_depthwise(x, w, b), rtol=1e-5, atol=1e-5)


def test_depthwise_module_records_one_tape_node():
    dw = DepthwiseConv3x3(rng(34), 4)
    x = Tensor(rng(35).normal(size=(2, 4, 5, 5)), requires_grad=True)
    with Tape() as tape:
        y = dw(x)
    assert len(tape) == 1
    np.testing.assert_allclose(y.data, naive_depthwise(x.data, dw.weight.data, dw.bias.data),
                               rtol=1e-5, atol=1e-5)


def test_depthwise_conv3x3_rejects_mismatched_weight():
    with pytest.raises(ConfigError):
        ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 3))),
                  Tensor(np.zeros(2)), 1, 1)


# ---------------------------------------------------------------------------
# gradients by central differences


@pytest.mark.parametrize("op", [ad.sigmoid, ad.silu, ad.exp, ad.softplus],
                         ids=["sigmoid", "silu", "exp", "softplus"])
def test_grad_pointwise_unary(op):
    with precision("f64"):
        x = Tensor(rng(6).normal(size=(3, 3)))
        err = grad_check(lambda t: ad.sum_all(op(t)), [x], h=1e-5)
        assert err < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_matches_two_exp_formula_bitwise(dtype):
    # value and derivative share one exp(-|x|); both must round exactly as
    # the separate formulas do, out to large |x|
    r = rng(16)
    x = np.concatenate([r.normal(size=200) * 4, r.normal(size=50) * 60,
                        [0.0, -0.0, 88.0, -88.0, 700.0, -700.0, 1e30, -1e30]])
    with precision("f64" if dtype == np.float64 else "f32"):
        t = Tensor(x.astype(dtype), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.softplus(t)
            ad.backward(tape, ad.sum_all(y))
    xd = x.astype(dtype)
    with np.errstate(over="ignore"):
        want_y = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
        z = np.exp(-np.abs(xd))
        want_g = np.where(xd >= 0, 1.0, z) / (1.0 + z)
    np.testing.assert_array_equal(y.data, want_y.astype(dtype))
    np.testing.assert_array_equal(t.grad, want_g.astype(dtype))


def test_grad_binary_and_broadcast():
    with precision("f64"):
        r = rng(7)
        a = Tensor(r.normal(size=(2, 3)))
        b = Tensor(r.normal(size=(1, 3)))

        def f(x, y):
            return ad.sum_all(ad.mul(ad.safe_div(x, ad.softplus(y)), ad.sub(x, y)))

        assert grad_check(f, [a, b], h=1e-5) < 1e-6


def test_grad_reductions_and_shapes():
    with precision("f64"):
        x = Tensor(rng(8).normal(size=(2, 3, 4, 4)))

        def f(t):
            p = ad.max_pool2d(t, 3, 2, 1)
            q = ad.global_avg_pool(ad.mul(t, t))
            return ad.add(ad.sum_all(p), ad.sum_all(q))

        assert grad_check(f, [x], h=1e-5, sample=24) < 1e-6


def test_grad_matmul_linear():
    with precision("f64"):
        r = rng(9)
        x = Tensor(r.normal(size=(2, 4)))
        w = Tensor(r.normal(size=(3, 4)))
        b = Tensor(r.normal(size=3))

        def f(xi, wi, bi):
            return ad.sum_all(ad.sigmoid(ad.linear(xi, wi, bi)))

        assert grad_check(f, [x, w, b], h=1e-5) < 1e-6


# ids for the 3x3 cases: cout-stride-padding; the others are the model's conv
# shapes and the dead-tap shapes of test_conv2d_matches_naive_loop
@pytest.mark.parametrize("cout,stride,padding,cin,kernel,hw", [
    pytest.param(1, 1, 3, 2, 3, (7, 6), id="1-1-3"),
    pytest.param(1, 2, 1, 2, 3, (7, 6), id="1-2-1"),
    pytest.param(3, 2, 1, 2, 3, (7, 6), id="3-2-1"),
    pytest.param(3, 1, 0, 2, 1, (7, 6), id="1x1"),
    pytest.param(3, 4, 0, 1, 4, (8, 12), id="patchify-cin1"),
    pytest.param(3, 4, 0, 3, 4, (8, 12), id="patchify-cin3"),
    pytest.param(1, 1, 3, 2, 7, (7, 6), id="7x7-cout1"),
    pytest.param(3, 1, 1, 2, 3, (1, 1), id="dead-taps-1x1-map"),
    pytest.param(3, 2, 1, 2, 3, (2, 2), id="dead-taps-2x2-map-stride2"),
    pytest.param(3, 3, 1, 2, 3, (7, 6), id="3x3-stride3"),
    pytest.param(3, 2, 0, 2, 1, (7, 6), id="1x1-stride2"),
    pytest.param(3, 2, 1, 2, 4, (7, 6), id="4x4-stride2"),
])
def test_grad_conv2d(cout, stride, padding, cin, kernel, hw):
    with precision("f64"):
        r = rng(10)
        x = Tensor(r.normal(size=(2, cin) + hw))
        w = Tensor(r.normal(size=(cout, cin, kernel, kernel)))
        b = Tensor(r.normal(size=cout))

        def f(xi, wi, bi):
            return ad.sum_all(ad.sigmoid(ad.conv2d(xi, wi, bi, stride, padding)))

        # the gradient suite's bound: some entries here are near zero
        assert grad_check(f, [x, w, b], h=1e-5) < 1e-5


def test_grad_bilinear_coordinates():
    with precision("f64"):
        plane = Tensor(rng(10).normal(size=(1, 1, 4, 4)))
        ys = Tensor(np.array([[[[1.3]]]]))
        xs = Tensor(np.array([[[[2.6]]]]))

        def f(p, y, x):
            return ad.sum_all(ad.grid_sample_taps(p, y, x))

        assert grad_check(f, [plane, ys, xs], h=1e-5) < 1e-6


def test_grad_grid_sample_taps_three_channels():
    with precision("f64"):
        r = rng(32)
        x = Tensor(r.normal(size=(2, 3, 4, 5)))
        ys_np, xs_np = sample_coords(r, (2, 2, 2, 3), 4, 5)
        # central differences must not straddle a cell edge, so every point
        # keeps 0.01 from an integer (the loop oracle covers exact integers)
        ys_np = np.floor(ys_np) + np.clip(ys_np - np.floor(ys_np), 0.01, 0.99)
        xs_np = np.floor(xs_np) + np.clip(xs_np - np.floor(xs_np), 0.01, 0.99)
        ys, xs = Tensor(ys_np), Tensor(xs_np)
        wout = Tensor(r.normal(size=(2, 6, 2, 3)))

        def f(xi, yi, xi2):
            return ad.sum_all(ad.mul(ad.grid_sample_taps(xi, yi, xi2), wout))

        assert grad_check(f, [x, ys, xs], h=1e-5) < 1e-6


def test_grad_depthwise_conv3x3():
    with precision("f64"):
        r = rng(33)
        x = Tensor(r.normal(size=(2, 3, 4, 5)))
        w = Tensor(r.normal(size=(3, 3, 3)))
        b = Tensor(r.normal(size=3))

        def f(xi, wi, bi):
            return ad.sum_all(ad.sigmoid(ad.conv2d(xi, wi, bi, 1, 1)))

        assert grad_check(f, [x, w, b], h=1e-5) < 1e-6


def test_grad_softmax_layernorm():
    with precision("f64"):
        r = rng(11)
        x = Tensor(r.normal(size=(2, 5)))
        weights = Tensor(r.normal(size=(2, 5)))
        assert grad_check(lambda t: ad.sum_all(ad.mul(ad.softmax(t, 1), weights)),
                          [x], h=1e-5) < 1e-6
        xm = Tensor(r.normal(size=(1, 3, 2, 2)))
        gamma = Tensor(r.normal(size=3))
        beta = Tensor(r.normal(size=3))

        def f(a, g, b):
            return ad.sum_all(ad.silu(ad.layer_norm_channels(a, g, b)))

        assert grad_check(f, [xm, gamma, beta], h=1e-5) < 1e-6


def test_grad_concat_getitem_flip():
    with precision("f64"):
        r = rng(12)
        a = Tensor(r.normal(size=(2, 3)))
        b = Tensor(r.normal(size=(2, 2)))

        def f(x, y):
            c = ad.concat([x, y], axis=1)
            return ad.add(ad.sum_all(ad.mul(ad.flip(c, 1), c)),
                          ad.sum_all(ad.mul(c[:, 1:4], c[:, 1:4])))

        assert grad_check(f, [a, b], h=1e-5) < 1e-6


def test_grad_stack():
    # x appears twice, so its gradient sums two slices of the stacked one
    with precision("f64"):
        r = rng(13)
        a = Tensor(r.normal(size=(2, 3)))
        b = Tensor(r.normal(size=(2, 3)))
        np.testing.assert_array_equal(ad.stack([a, b, a]).data,
                                      np.stack([a.data, b.data, a.data]))

        def f(x, y):
            s = ad.stack([x, y, x])
            return ad.sum_all(ad.mul(s, ad.sigmoid(s)))

        assert grad_check(f, [a, b], h=1e-5) < 1e-6
        # with a shape, the stacked result is reshaped in the same node
        weights = Tensor(np.arange(18.0).reshape(3, 6) / 18.0)
        with Tape() as tape:
            s = ad.stack([a, b, a], (3, 6))
        assert len(tape) == 1
        np.testing.assert_array_equal(s.data, np.stack([a.data, b.data, a.data]).reshape(3, 6))

        def g(x, y):
            return ad.sum_all(ad.mul(ad.stack([x, y, x], (3, 6)), weights))

        assert grad_check(g, [a, b], h=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# tape semantics


def test_no_grad_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        with no_grad():
            ad.sum_all(ad.mul(x, x))
        assert len(tape) == 0


def test_module_call_outside_any_tape_records_nothing():
    dw = DepthwiseConv3x3(rng(36), 2)
    out = dw(Tensor(rng(37).normal(size=(1, 2, 4, 4)), requires_grad=True))
    assert out.node is None and not out.requires_grad


def test_second_backward_over_consumed_tape_raises():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(tape, loss)
        with pytest.raises(UsageError, match="consumed"):
            ad.backward(tape, loss)
    assert len(tape) == 2   # emptied nodes still count
    np.testing.assert_allclose(x.grad, [6.0])


def test_tape_frees_unread_outputs_and_backward_frees_as_it_sweeps():
    x = Tensor(np.ones(1 << 20, dtype=np.float32), requires_grad=True)   # 4 MB
    nbytes = x.data.nbytes
    one, two = Tensor(1.0), Tensor(2.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            # add, mul, add, mul, ...: mul's closure reads its input (the
            # preceding add's output), add's closure reads nothing
            y = x
            for i in range(10):
                y = ad.mul(y, two) if i % 2 else ad.add(y, one)
            loss = ad.sum_all(y)
            del y
            after_fwd = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            ad.backward(tape, loss)
            current, peak = tracemalloc.get_traced_memory()
        # the 5 add outputs are alive, the 5 mul outputs are not
        assert after_fwd < 5.5 * nbytes
        # one gradient slot plus one fresh gradient at a time, not one per node
        assert peak - base - after_fwd < 3 * nbytes
        # only x.grad outlives the sweep while the tape is still alive
        assert current - base < 1.5 * nbytes
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 32.0, dtype=np.float32))


def held_beyond_output(op, *inputs):
    """Bytes that recording ``op(*inputs)`` keeps alive beyond its output."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            out = op(*inputs)
            held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    return held


def test_recorded_grid_sample_holds_only_its_inputs():
    # the stage-0 RGB shape: 16 taps on a 32x32 grid of a 128 px image.
    # Kept corners (positions, weights and gathered values) would be ~15 MB
    r = rng(31)
    x = Tensor(r.normal(size=(8, 3, 128, 128)).astype(np.float32), requires_grad=True)
    ys, xs = (Tensor(r.uniform(-2, 130, size=(8, 16, 32, 32)).astype(np.float32),
                     requires_grad=True) for _ in range(2))
    assert held_beyond_output(ad.grid_sample_taps, x, ys, xs) < 2**20


def test_recorded_silu_holds_nothing_beyond_its_output():
    a = Tensor(rng(32).normal(size=(8, 16, 32, 32)).astype(np.float32), requires_grad=True)
    assert held_beyond_output(ad.silu, a) < 4096


def test_recorded_unpadded_conv_holds_nothing_beyond_its_output():
    # a 1x1 conv at padding 0 reads its input in place: no padded copy and
    # no column matrix
    r = rng(33)
    x = Tensor(r.normal(size=(8, 16, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(24, 16, 1, 1)).astype(np.float32), requires_grad=True)
    assert held_beyond_output(lambda x, w: ad.conv2d(x, w, None), x, w) < 4096



def test_recorded_patchify_conv_holds_no_copy_of_its_input():
    # an unpadded strided conv keeps its input, not a copy, and rebuilds its
    # phase maps in the backward: it holds its tap-major weights and
    # closures, not a 1.5 MB phase copy of the input
    r = rng(36)
    x = Tensor(r.normal(size=(8, 3, 128, 128)).astype(np.float32))
    w = Tensor(r.normal(size=(8, 3, 4, 4)).astype(np.float32), requires_grad=True)
    assert held_beyond_output(lambda x, w: ad.conv2d(x, w, None, 4, 0), x, w) < 2**14


# the MDTMB token convs and the 2->1 attention conv
@pytest.mark.parametrize("cout,cin,kernel,stride,padding", [
    pytest.param(24, 16, 3, 1, 1, id="3x3"),
    pytest.param(24, 16, 3, 2, 1, id="3x3-stride2"),
    pytest.param(1, 2, 7, 1, 3, id="7x7-cout1"),
])
def test_recorded_padded_conv_holds_one_padded_input(cout, cin, kernel, stride, padding):
    # one zero-bordered copy of the input, split into stride x stride phase
    # maps with a short tail, plus the tap-major weights
    r = rng(35)
    x = Tensor(r.normal(size=(8, cin, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(cout, cin, kernel, kernel)).astype(np.float32),
               requires_grad=True)
    padded = 8 * cin * (32 + 2 * padding) ** 2 * 4
    held = held_beyond_output(lambda x, w: ad.conv2d(x, w, None, stride, padding), x, w)
    assert held < 1.1 * padded


def test_recorded_padded_conv_frees_its_unpadded_input():
    # the closure reads its padded copy of the input, so the input itself (an
    # intermediate the forward drops) is freed
    r = rng(34)
    x0 = Tensor(r.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(r.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(4, np.float32), requires_grad=True)
    with Tape():
        x = ad.silu(x0)
        y = ad.conv2d(x, w, b, 1, 1)
    data = weakref.ref(x.data)
    del x
    assert data() is None
    assert y.requires_grad

def test_recorded_log_softmax_makes_five_nodes():
    # the max shift is a constant: sub, exp, sum_axis, log and sub record; a
    # recorded max would never receive a gradient and only keep x alive
    x = Tensor(rng(34).normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = ad.log_softmax(x, 1)
    assert len(tape.nodes) == 5
    z = x.data.astype(np.float64)
    want = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(y.data, want, rtol=1e-5, atol=1e-6)


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(UsageError):
            ad.backward(tape, y)


def test_gradient_accumulates_across_fanout():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), ad.mul(x, x))
        ad.backward(tape, ad.sum_all(y))
    np.testing.assert_allclose(x.grad, [12.0])



def test_conv2d_with_all_zero_output_gradient_gives_no_gradient():
    # a head branch with no positives: the conv and everything before it on
    # that branch get no gradient, while the other branch still gets one
    r = np.random.default_rng(3)
    x = Tensor(r.normal(size=(2, 3, 5, 5)).astype(np.float32), requires_grad=True)
    w0 = Tensor(r.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b0 = Tensor(np.zeros(4, np.float32), requires_grad=True)
    w1 = Tensor(r.normal(size=(4, 4, 1, 1)).astype(np.float32), requires_grad=True)
    w2 = Tensor(r.normal(size=(2, 3, 1, 1)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        h = ad.silu(ad.conv2d(x, w0, b0, 1, 1))
        dead = ad.mul(ad.conv2d(h, w1, None), Tensor(np.zeros((2, 4, 5, 5), np.float32)))
        ad.backward(tape, ad.add(ad.sum_all(dead), ad.sum_all(ad.conv2d(x, w2, None))))
    assert w0.grad is None and b0.grad is None and w1.grad is None
    assert w2.grad is not None
    np.testing.assert_allclose(x.grad, np.broadcast_to(w2.data.sum(axis=0)[None],
                                                       (2, 3, 5, 5)), rtol=1e-6)


@pytest.mark.parametrize("wshape", [(4, 3, 3, 3), (3, 3, 3)])
def test_conv2d_weight_gradient_is_c_contiguous(wshape):
    # laid out like the weight, so the optimizer's passes read it in order
    r = np.random.default_rng(4)
    x = Tensor(r.normal(size=(2, 3, 5, 5)).astype(np.float32))
    w = Tensor(r.normal(size=wshape).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        ad.backward(tape, ad.sum_all(ad.conv2d(x, w, None, 1, 1)))
    assert w.grad.shape == wshape and w.grad.flags.c_contiguous

def test_linear_weight_gradient_is_c_contiguous():
    # linear reads W through a transposed view; its gradient still comes
    # back laid out like W
    r = np.random.default_rng(5)
    x = Tensor(r.normal(size=(2, 5, 3)))
    w = Tensor(r.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        ad.backward(tape, ad.sum_all(ad.linear(x, w)))
    assert w.grad.flags.c_contiguous
    np.testing.assert_allclose(w.grad, np.broadcast_to(x.data.sum(axis=(0, 1)), (4, 3)),
                               rtol=1e-6)


def test_rank_limit_enforced():
    with pytest.raises(ConfigError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))


def test_precision_context_switches_dtype():
    assert Tensor([1.0]).data.dtype == np.float32
    with precision("f64"):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
