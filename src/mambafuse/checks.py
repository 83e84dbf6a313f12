"""Self-contained invariant suite: one registered property per line of the
report.  Exit status of the CLI ``check`` command reflects the verdict."""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .attention import cross_channel_fuse
from .autodiff import Tensor, grad_check, precision
from .deformable import deformable_conv2d
from .detect import SPPFMamba
from .ssm import (DIRECTIONS, FusionMambaBlock, MambaBlock, SsmParams,
                  four_way_reference, four_way_scan, scan_reference, ssm_scan_core)


def _rng(salt: int = 0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(0xC0FFEE), np.uint64(salt))))


def check_grad_elementwise():
    with precision("f64"):
        rng = _rng(1)
        x = Tensor(rng.normal(size=(3, 4)))
        y = Tensor(rng.normal(size=(3, 4)))

        def f(a, b):
            return ad.sum_all(ad.mul(ad.silu(a), ad.sigmoid(ad.softplus(b))))

        err = grad_check(f, [x, y], h=1e-4)
        assert err < 1e-5, f"elementwise grad error {err:.2e}"


def check_grad_conv2d():
    # a 3x3 conv and the model's conv shapes: a 1x1 conv, the 4x4 stride-4
    # patchify of a one- and a three-channel image, the 7x7 attention conv;
    # two maps smaller than the kernel window, whose taps that read only
    # padding are skipped: a 1x1 map, and a 2x2 one at stride 2; then a
    # depthwise 3x3 conv, whose weight is [C,K,K]
    with precision("f64"):
        rng = _rng(2)
        for x_shape, w_shape, stride, pad in (
                ((1, 2, 6, 6), (3, 2, 3, 3), 1, 1), ((1, 2, 6, 6), (3, 2, 1, 1), 1, 0),
                ((1, 1, 8, 8), (3, 1, 4, 4), 4, 0), ((1, 3, 8, 8), (3, 3, 4, 4), 4, 0),
                ((1, 2, 6, 6), (1, 2, 7, 7), 1, 3), ((1, 2, 1, 1), (3, 2, 3, 3), 1, 1),
                ((1, 2, 2, 2), (3, 2, 3, 3), 2, 1), ((2, 3, 5, 4), (3, 3, 3), 1, 1)):
            x = Tensor(rng.normal(size=x_shape))
            w = Tensor(rng.normal(size=w_shape))
            b = Tensor(rng.normal(size=w_shape[0]))

            def f(xi, wi, bi):
                return ad.sum_all(ad.sigmoid(ad.conv2d(xi, wi, bi, stride, pad)))

            err = grad_check(f, [x, w, b], h=1e-4)
            assert err < 1e-5, (f"conv2d grad error {err:.2e} (input {x_shape}, "
                                f"weight {w_shape}, stride {stride})")


def check_grad_four_way_scan():
    with precision("f64"):
        rng = _rng(3)
        params = [SsmParams(rng, d_inner=3, d_state=2) for _ in DIRECTIONS]
        for p in params:  # delta of order 1, so no gradient is lost in rounding
            p.dt_proj.bias.data[:] = rng.normal(size=3)
        x = Tensor(rng.normal(size=(1, 3, 2, 3)))
        src = Tensor(rng.normal(size=(1, 3, 2, 3)))
        leaves = [x, src] + [t for p in params for t in
                             (p.A_log, p.D_skip, p.x_proj.weight, p.dt_proj.weight,
                              p.dt_proj.bias)]

        def f(*_):
            return ad.sum_all(ad.sigmoid(four_way_scan([x], [params], [src])[0]))

        err = grad_check(f, leaves, h=1e-4)
        assert err < 1e-5, f"four-way scan grad error {err:.2e}"


def check_grad_deformable():
    with precision("f64"):
        rng = _rng(4)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        offs = Tensor(rng.uniform(0.1, 0.6, size=(1, 18, 6, 6)))  # fractional only

        def f(xi, wi, oi):
            return ad.sum_all(ad.sigmoid(
                deformable_conv2d(xi, wi, None, oi, stride=1, padding=1)))

        err = grad_check(f, [x, w, offs], h=1e-4)
        assert err < 1e-5, f"deformable grad error {err:.2e}"


def check_scan_oracle():
    rng = _rng(5)
    for L in (1, 7, 32):
        u = rng.normal(size=(2, L, 3)).astype(np.float32)
        delta = np.log1p(np.exp(rng.normal(size=(2, L, 3)))).astype(np.float32)
        A = -np.exp(rng.normal(size=(3, 4))).astype(np.float32)
        Bc = rng.normal(size=(2, L, 4)).astype(np.float32)
        Cc = rng.normal(size=(2, L, 4)).astype(np.float32)
        D = rng.normal(size=3).astype(np.float32)
        y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                          Tensor(Cc), Tensor(D)).data
        ref = scan_reference(u, delta, A, Bc, Cc, D)
        rel = np.abs(y - ref).max() / max(np.abs(ref).max(), 1e-8)
        assert rel < 1e-5, f"scan oracle rel err {rel:.2e} at L={L}"


def check_zero_offset_equivalence():
    rng = _rng(6)
    for trial in range(5):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        K = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        pad = (K - 1) // 2
        H = int(rng.integers(5, 9))
        x = Tensor(rng.normal(size=(1, cin, H, H)).astype(np.float32))
        w = Tensor(rng.normal(size=(cout, cin, K, K)).astype(np.float32))
        Ho = ad.conv_out_size(H, K, stride, pad)
        offs = Tensor(np.zeros((1, 2 * K * K, Ho, Ho), dtype=np.float32))
        a = deformable_conv2d(x, w, None, offs, stride, pad).data
        b = ad.conv2d(x, w, None, stride, pad).data
        assert np.abs(a - b).max() < 1e-5, "zero-offset mismatch"


def check_fuse_symmetry():
    rng = _rng(7)
    f1 = Tensor(rng.normal(size=(2, 4, 3, 3)))
    f2 = Tensor(rng.normal(size=(2, 4, 3, 3)))
    w1 = Tensor(rng.uniform(0.2, 0.8, size=(2, 4, 1, 1)))
    w2 = Tensor(rng.uniform(0.2, 0.8, size=(2, 4, 1, 1)))
    a = cross_channel_fuse(f1, f2, w1, w2).data
    b = cross_channel_fuse(f2, f1, w2, w1).data
    assert np.array_equal(a, b), "modality-swap symmetry violated"
    scalar = cross_channel_fuse(Tensor([[[[2.0]]]]), Tensor([[[[3.0]]]]),
                                Tensor([[[[0.5]]]]), Tensor([[[[0.25]]]]),
                                eps=0.0).item()
    assert abs(scalar - 5.5) < 1e-6, f"scalar fuse case gave {scalar}"


def check_residual_identities():
    rng = _rng(8)
    x = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
    blk = MambaBlock(rng, 4, d_state=2)
    blk.proj_out.weight.data[:] = 0
    blk.proj_out.bias.data[:] = 0
    assert np.array_equal(blk(x).data, x.data), "scan block residual identity"
    fus = FusionMambaBlock(rng, 4, d_state=2)
    fus.proj_out.weight.data[:] = 0
    fus.proj_out.bias.data[:] = 0
    aux = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
    assert np.array_equal(fus(x, aux).data, x.data), "fusion residual identity"
    sppf = SPPFMamba(rng, 4, d_state=2, expand=2)
    for m in (sppf.m1, sppf.m2, sppf.m3):
        m.proj_out.weight.data[:] = 0
        m.proj_out.bias.data[:] = 0
    # with identity inner blocks the module reduces to plain pyramid pooling
    y0 = sppf.cv1(x)
    p1 = ad.max_pool2d(y0, 5, 1, 2)
    p2 = ad.max_pool2d(p1, 5, 1, 2)
    p3 = ad.max_pool2d(p2, 5, 1, 2)
    plain = sppf.cv2(ad.concat([y0, p1, p2, p3], axis=1)).data
    assert np.array_equal(sppf(x).data, plain), "pooling block residual identity"


def check_four_way_oracle():
    rng = _rng(9)
    params = [SsmParams(rng, d_inner=3, d_state=2) for _ in DIRECTIONS]
    # the scan runs in chunks of 2*ceil(sqrt(L)) steps: L = 130 ends in a short one
    for H, W in ((3, 4), (10, 13)):
        x = rng.normal(size=(2, 3, H, W)).astype(np.float32)
        for src in (None, rng.normal(size=(2, 3, H, W)).astype(np.float32)):
            y = four_way_scan([Tensor(x)], [params],
                              None if src is None else [Tensor(src)])[0].data
            ref = four_way_reference(x, params, src)
            rel = np.abs(y - ref).max() / max(np.abs(ref).max(), 1e-8)
            form = "plain" if src is None else "fusion"
            assert rel < 1e-5, (f"four-way scan ({form}, {H}x{W}) against the "
                                f"per-direction oracle: {rel:.2e}")


def check_checkpoint_roundtrip():
    rng = _rng(10)
    tensors = {"a.w": rng.normal(size=(3, 4)).astype(np.float32),
               "b.bias": rng.normal(size=7).astype(np.float32)}
    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "c1.ckpt")
        p2 = os.path.join(d, "c2.ckpt")
        checkpoint.save(p1, tensors)
        loaded = checkpoint.load(p1)
        checkpoint.save(p2, loaded)
        assert open(p1, "rb").read() == open(p2, "rb").read(), "round-trip bytes differ"
    for k in tensors:
        assert np.array_equal(tensors[k], loaded[k]), f"tensor {k} changed"


def check_forward_determinism():
    x = _rng(11).normal(size=(1, 3, 4, 4)).astype(np.float32)
    blk = MambaBlock(_rng(12), 3, d_state=2)
    a = blk(Tensor(x)).data
    b = blk(Tensor(x)).data
    assert np.array_equal(a, b), "repeated forward not bit-identical"


PROPERTIES = [
    ("grad-elementwise", check_grad_elementwise),
    ("grad-conv2d", check_grad_conv2d),
    ("grad-four-way-scan", check_grad_four_way_scan),
    ("grad-deformable", check_grad_deformable),
    ("scan-oracle", check_scan_oracle),
    ("zero-offset-equivalence", check_zero_offset_equivalence),
    ("cross-channel-fuse-symmetry", check_fuse_symmetry),
    ("residual-identities", check_residual_identities),
    ("four-way-oracle", check_four_way_oracle),
    ("checkpoint-roundtrip", check_checkpoint_roundtrip),
    ("forward-determinism", check_forward_determinism),
]


def run_checks(report=print) -> bool:
    """Run every registered property; one PASS/FAIL line each."""
    ok = True
    for name, fn in PROPERTIES:
        try:
            fn()
            report(f"PASS {name}")
        except Exception as e:  # report and continue
            ok = False
            report(f"FAIL {name}: {e}")
    return ok
