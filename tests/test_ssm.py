"""State-space scan kernels: recurrence oracles, direction handling, and the
scan blocks' structural identities."""

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import NumericError, Tensor, grad_check, precision
from mambafuse.ssm import (DIRECTIONS, FusionMambaBlock, MambaBlock, SsmParams,
                           flatten_direction, four_way_scan, scan_reference,
                           selective_scan, ssm_scan_core, unflatten_direction)


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(911), np.uint64(salt))))


def random_scan_operands(r, B, L, D, N, dtype=np.float32):
    u = r.normal(size=(B, L, D)).astype(dtype)
    delta = np.log1p(np.exp(r.normal(size=(B, L, D)))).astype(dtype)
    A = -np.exp(r.normal(size=(D, N))).astype(dtype)
    Bc = r.normal(size=(B, L, N)).astype(dtype)
    Cc = r.normal(size=(B, L, N)).astype(dtype)
    Dsk = r.normal(size=D).astype(dtype)
    return u, delta, A, Bc, Cc, Dsk


def test_single_step_closed_form():
    # L=1: y = C . (delta*B*u) + D*u, computable by hand
    u = np.array([[[2.0]]])
    delta = np.array([[[0.5]]])
    A = np.array([[-1.0]])
    Bc = np.array([[[3.0]]])
    Cc = np.array([[[4.0]]])
    Dsk = np.array([0.25])
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(Cc), Tensor(Dsk)).data
    # h1 = 0.5*3*2 = 3, y = 4*3 + 0.25*2
    np.testing.assert_allclose(y, [[[12.5]]], rtol=1e-6)


def test_zero_output_coupling_reduces_to_skip_path():
    r = rng(1)
    u, delta, A, Bc, Cc, Dsk = random_scan_operands(r, 2, 9, 3, 4)
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(np.zeros_like(Cc)), Tensor(Dsk)).data
    np.testing.assert_allclose(y, u * Dsk, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("L", [1, 7, 32])
def test_scan_matches_stepwise_reference(L):
    r = rng(2)
    u, delta, A, Bc, Cc, Dsk = random_scan_operands(r, 2, L, 6, 4)
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(Cc), Tensor(Dsk)).data
    ref = scan_reference(u, delta, A, Bc, Cc, Dsk)
    rel = np.abs(y - ref).max() / np.abs(ref).max()
    assert rel < 1e-5


def grouped_scan_operands(r, G, B, L, D, N, dtype=np.float32):
    u, delta, _, Bc, Cc, _ = random_scan_operands(r, B, L, D, N, dtype)
    A = -np.exp(r.normal(size=(G, D, N))).astype(dtype)
    Dsk = r.normal(size=(G, D)).astype(dtype)
    return u, delta, A, Bc, Cc, Dsk


def test_grouped_scan_matches_reference_long_sequence():
    # L=256 and N=3, so neither the length nor the state size is the
    # model's; each group of two batch rows has its own A and skip
    u, delta, A, Bc, Cc, Dsk = grouped_scan_operands(rng(14), 2, 4, 256, 5, 3)
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(Cc), Tensor(Dsk)).data
    for g in range(2):
        s = slice(2 * g, 2 * g + 2)
        ref = scan_reference(u[s], delta[s], A[g], Bc[s], Cc[s], Dsk[g])
        rel = np.abs(y[s] - ref).max() / np.abs(ref).max()
        assert rel < 1e-5


def test_grouped_scan_matches_separate_calls():
    r = rng(3)
    u, delta, A1, Bc, Cc, D1 = random_scan_operands(r, 4, 5, 3, 2)
    A2 = -np.exp(r.normal(size=(3, 2))).astype(np.float32)
    D2 = r.normal(size=3).astype(np.float32)
    grouped = ssm_scan_core(
        Tensor(u), Tensor(delta),
        Tensor(np.stack([A1, A2])), Tensor(Bc), Tensor(Cc),
        Tensor(np.stack([D1, D2]))).data
    for g, (A, Dsk) in enumerate([(A1, D1), (A2, D2)]):
        s = slice(2 * g, 2 * g + 2)
        part = ssm_scan_core(Tensor(u[s]), Tensor(delta[s]), Tensor(A),
                             Tensor(Bc[s]), Tensor(Cc[s]), Tensor(Dsk)).data
        np.testing.assert_array_equal(grouped[s], part)


def test_scan_state_decays_with_negative_real_A():
    # exp(delta*A) must be a contraction for any positive delta
    r = rng(4)
    delta = np.log1p(np.exp(r.normal(size=(1, 50, 4)))).astype(np.float32)
    A = -np.exp(r.normal(size=(4, 3))).astype(np.float32)
    dA = np.exp(delta[..., None] * A[None, None])
    assert np.all(dA < 1.0) and np.all(dA > 0.0)


def test_scan_raises_on_nonfinite_state():
    u = np.full((1, 2, 1), 1e30, dtype=np.float32)
    delta = np.full((1, 2, 1), 1e30, dtype=np.float32)
    A = np.array([[1.0]], dtype=np.float32)  # positive: growth, overflows
    Bc = np.full((1, 2, 1), 1e30, dtype=np.float32)
    Cc = np.ones((1, 2, 1), dtype=np.float32)
    with pytest.raises(NumericError, match="step 0"):
        with np.errstate(over="ignore", invalid="ignore"):
            ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                          Tensor(Cc), Tensor(np.ones(1, dtype=np.float32)))


def test_grad_scan_core_finite_difference():
    with precision("f64"):
        r = rng(5)
        ops = [Tensor(o) for o in random_scan_operands(r, 2, 6, 3, 2, np.float64)]

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk)))

        assert grad_check(f, ops, h=1e-5) < 1e-6


def test_grad_grouped_scan_core_finite_difference():
    with precision("f64"):
        ops = [Tensor(o) for o in grouped_scan_operands(rng(15), 2, 4, 6, 3, 2, np.float64)]

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk)))

        # h=1e-4: some delta entries are ~3e-5, where h=1e-5 leaves the
        # central difference with a rounding error of ~1e-5 relative
        assert grad_check(f, ops, h=1e-4) < 1e-6


def test_grad_selective_scan_through_projections():
    with precision("f64"):
        r = rng(6)
        params = SsmParams(r, d_inner=4, d_state=3)
        u = Tensor(r.normal(size=(1, 5, 4)))
        leaves = [u, params.A_log, params.D_skip, params.x_proj.weight,
                  params.dt_proj.weight, params.dt_proj.bias]

        def f(*_):
            return ad.sum_all(selective_scan(u, params))

        assert grad_check(f, leaves, h=1e-4) < 1e-6


# ---------------------------------------------------------------------------
# directions


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_flatten_unflatten_roundtrip(direction):
    x = Tensor(rng(7).normal(size=(2, 3, 4, 5)).astype(np.float32))
    back = unflatten_direction(flatten_direction(x, direction), direction, 4, 5)
    np.testing.assert_array_equal(back.data, x.data)


def test_flatten_orders_are_the_four_traversals():
    x = np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3)
    got = {d: flatten_direction(Tensor(x), d).data[0, :, 0].tolist()
           for d in DIRECTIONS}
    assert got["row_fwd"] == [0, 1, 2, 3, 4, 5]
    assert got["row_bwd"] == [5, 4, 3, 2, 1, 0]
    assert got["col_fwd"] == [0, 3, 1, 4, 2, 5]
    assert got["col_bwd"] == [5, 2, 4, 1, 3, 0]


def test_four_way_scan_on_single_site_is_sum_of_single_scans():
    # a 1x1 map makes every traversal the same length-1 sequence
    r = rng(8)
    params = [SsmParams(r, d_inner=3, d_state=2) for _ in range(4)]
    x = Tensor(r.normal(size=(2, 3, 1, 1)).astype(np.float32))
    merged = four_way_scan(x, params).data
    seq = Tensor(x.data.reshape(2, 3, 1).transpose(0, 2, 1))
    want = sum(selective_scan(seq, p).data for p in params)
    np.testing.assert_allclose(merged.reshape(2, 1, 3), want, rtol=2e-5, atol=1e-6)


def test_four_way_scan_mirror_symmetry_on_single_row():
    # on a height-1 map every traversal degenerates to the row sequence, so
    # with one parameter set shared by all four directions, mirroring the
    # input mirrors the merged output
    r = rng(9)
    shared = SsmParams(r, d_inner=3, d_state=2)
    params = [shared, shared, shared, shared]
    x = Tensor(r.normal(size=(1, 3, 1, 6)).astype(np.float32))
    xf = Tensor(np.flip(x.data, axis=3).copy())
    y = four_way_scan(x, params).data
    yf = four_way_scan(xf, params).data
    np.testing.assert_allclose(np.flip(yf, axis=3), y, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# blocks


def test_mamba_block_residual_identity_with_zero_projection():
    r = rng(10)
    blk = MambaBlock(r, 4, d_state=2)
    blk.proj_out.weight.data[:] = 0
    blk.proj_out.bias.data[:] = 0
    x = Tensor(r.normal(size=(2, 4, 3, 5)).astype(np.float32))
    np.testing.assert_array_equal(blk(x).data, x.data)


def test_fusion_block_with_tied_branches_equals_plain_block():
    r = rng(11)
    fus = FusionMambaBlock(r, 4, d_state=2)
    blk = MambaBlock(r, 4, d_state=2)
    # copy the primary pipeline into the plain block and tie the fusion
    # block's auxiliary pipeline to its primary one
    sd = fus.state_dict()
    tied = {}
    for k, v in sd.items():
        if k.startswith("aux_"):
            continue
        tied[k] = v
    blk.load_state_dict(tied)
    for k, v in list(sd.items()):
        if k.startswith("norm.") or k.startswith("proj_in.") or k.startswith("dw."):
            sd["aux_" + k] = v
    fus.load_state_dict(sd)
    x = Tensor(r.normal(size=(1, 4, 3, 3)).astype(np.float32))
    np.testing.assert_array_equal(fus(x, x).data, blk(x).data)


def test_fusion_block_output_depends_on_auxiliary():
    r = rng(12)
    fus = FusionMambaBlock(r, 4, d_state=2)
    x = Tensor(r.normal(size=(1, 4, 3, 3)).astype(np.float32))
    a1 = Tensor(r.normal(size=(1, 4, 3, 3)).astype(np.float32))
    a2 = Tensor(r.normal(size=(1, 4, 3, 3)).astype(np.float32))
    assert not np.array_equal(fus(x, a1).data, fus(x, a2).data)


def test_mamba_block_grad_reaches_every_parameter():
    with precision("f64"):
        r = rng(13)
        blk = MambaBlock(r, 2, d_state=2)
        blk.bind_names()
        x = Tensor(r.normal(size=(1, 2, 2, 2)))
        with ad.Tape() as tape:
            named = ad.backward(tape, ad.sum_all(blk(x)))
        missing = set(blk.state_dict()) - set(named)
        assert not missing, f"no gradient for {sorted(missing)}"
