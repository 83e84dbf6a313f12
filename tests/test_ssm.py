"""State-space scan kernels: recurrence oracles, direction handling, and the
scan blocks' structural identities."""

import tracemalloc

import numpy as np
import pytest

from mambafuse import autodiff as ad
from mambafuse.autodiff import ConfigError, NumericError, Tape, Tensor, grad_check, precision
from mambafuse.ssm import (DIRECTIONS, FusionMambaBlock, MambaBlock, SsmParams,
                           four_way_reference, four_way_scan, fusion_blocks, mamba_blocks,
                           projection_reference, scan_reference, ssm_scan_core,
                           traversal_orders)


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


# the core runs in chunks of 2*ceil(sqrt(L)) steps: 7, 32 and 130 end in a
# short chunk, and 1 and 2 are one chunk each
@pytest.mark.parametrize("L", [1, 2, 7, 32, 130])
def test_scan_matches_stepwise_reference(L):
    r = rng(2)
    u, delta, A, Bc, Cc, Dsk = random_scan_operands(r, 2, L, 6, 4)
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(Cc), Tensor(Dsk)).data
    ref = scan_reference(u, delta, A, Bc, Cc, Dsk)
    rel = np.abs(y - ref).max() / np.abs(ref).max()
    assert rel < 1e-5


def grouped_scan_operands(r, G, B, L, D, N, dtype=np.float32):
    """Operands of G ordered scans over one u, and a random order table."""
    u = r.normal(size=(B, L, D)).astype(dtype)
    delta = np.log1p(np.exp(r.normal(size=(G, B, L, D)))).astype(dtype)
    A = -np.exp(r.normal(size=(G, D, N))).astype(dtype)
    Bc = r.normal(size=(G, B, L, N)).astype(dtype)
    Cc = r.normal(size=(G, B, L, N)).astype(dtype)
    Dsk = r.normal(size=(G, D)).astype(dtype)
    order = np.stack([r.permutation(L) for _ in range(G)])
    return (u, delta, A, Bc, Cc, Dsk), order


def test_grouped_scan_matches_reference_long_sequence():
    # L=256 and N=3, so neither the length nor the state size is the
    # model's; each group scans the tokens in its own random order, and the
    # oracle scans the permuted sequences, un-permutes and sums
    (u, delta, A, Bc, Cc, Dsk), order = grouped_scan_operands(rng(14), 2, 2, 256, 5, 3)
    y = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                      Tensor(Cc), Tensor(Dsk), order).data
    ref = np.zeros(u.shape)
    for g, o in enumerate(order):
        ref[:, o] += scan_reference(u[:, o], delta[g][:, o], A[g], Bc[g][:, o],
                                    Cc[g][:, o], Dsk[g])
    assert np.abs(y - ref).max() / np.abs(ref).max() < 1e-5


def test_grouped_scan_matches_separate_calls():
    # the ordered form is the sum of single scans over the permuted tokens
    (u, delta, A, Bc, Cc, Dsk), order = grouped_scan_operands(rng(3), 3, 2, 6, 3, 2)
    grouped = ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc),
                            Tensor(Cc), Tensor(Dsk), order).data
    want = np.zeros(u.shape, dtype=np.float32)
    for g, o in enumerate(order):
        want[:, o] += ssm_scan_core(Tensor(u[:, o]), Tensor(delta[g][:, o]), Tensor(A[g]),
                                    Tensor(Bc[g][:, o]), Tensor(Cc[g][:, o]),
                                    Tensor(Dsk[g])).data
    np.testing.assert_allclose(grouped, want, rtol=1e-5, atol=1e-6)


def blocked_scan_operands(r, G, P, B, L, D, N, dtype=np.float32):
    """Operands of P blocks of G ordered scans, B rows per block, with an A
    and a D_skip per block: delta, Bc, Cc [G,P*B,L,X], A [G,P,D,N]."""
    (u, delta, _, Bc, Cc, _), order = grouped_scan_operands(r, G, P * B, L, D, N, dtype)
    A = -np.exp(r.normal(size=(G, P, D, N))).astype(dtype)
    Dsk = r.normal(size=(G, P, D)).astype(dtype)
    return (u, delta, A, Bc, Cc, Dsk), order


def test_blocked_scan_matches_separate_block_calls_bitwise():
    # L = 130 ends in a short chunk; block p's rows read A[:, p], D_skip[:, p]
    P, B = 3, 2
    operands, order = blocked_scan_operands(rng(22), 2, P, B, 130, 3, 2)
    u, delta, A, Bc, Cc, Dsk = [Tensor(o, requires_grad=True) for o in operands]
    gy = rng(23).normal(size=u.shape).astype(np.float32)
    with Tape() as tape:
        y = ssm_scan_core(u, delta, A, Bc, Cc, Dsk, order)
        ad.backward(tape, ad.sum_all(ad.mul(y, Tensor(gy))))
    blocked = [y.data] + [t.grad for t in (u, delta, A, Bc, Cc, Dsk)]
    for p in range(P):
        rows = slice(p * B, (p + 1) * B)
        ops = [Tensor(o, requires_grad=True) for o in
               (u.data[rows], delta.data[:, rows], A.data[:, p], Bc.data[:, rows],
                Cc.data[:, rows], Dsk.data[:, p])]
        with Tape() as tape:
            y1 = ssm_scan_core(*ops, order)
            ad.backward(tape, ad.sum_all(ad.mul(y1, Tensor(gy[rows]))))
        want = [y1.data] + [t.grad for t in ops]
        got = [blocked[0][rows], blocked[1][rows], blocked[2][:, rows], blocked[3][:, p],
               blocked[4][:, rows], blocked[5][:, rows], blocked[6][:, p]]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_scan_rejects_batch_that_does_not_split_into_blocks():
    (u, delta, A, Bc, Cc, Dsk), order = blocked_scan_operands(rng(24), 2, 2, 1, 4, 2, 2)
    # three rows for two blocks
    u = np.concatenate([u, u[:1]])
    delta, Bc, Cc = (np.concatenate([x, x[:, :1]], axis=1) for x in (delta, Bc, Cc))
    with pytest.raises(ConfigError, match="does not split into 2 blocks"):
        ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc), Tensor(Cc),
                      Tensor(Dsk), order)


@pytest.mark.parametrize("order", [[[0, 1, 1]], [[0, 1]], [[0, 1, 2], [2, 1, 0]]])
def test_scan_rejects_bad_order_table(order):
    # a repeated token, a short row, and a table whose row count does not
    # match the operands' group axis
    (u, delta, A, Bc, Cc, Dsk), _ = grouped_scan_operands(rng(17), 1, 1, 3, 2, 2)
    with pytest.raises(ConfigError):
        ssm_scan_core(Tensor(u), Tensor(delta), Tensor(A), Tensor(Bc), Tensor(Cc),
                      Tensor(Dsk), np.array(order))


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


def test_scan_error_names_the_global_step():
    # the first non-finite state falls in the last chunk (steps 120..129 at
    # L = 130); the message names its step, not its index in the chunk
    L, token = 130, 123
    u = np.zeros((1, L, 1), dtype=np.float32)
    u[0, token] = np.inf
    ones = np.ones((1, L, 1), dtype=np.float32)
    operands = (Tensor(u), Tensor(ones), Tensor(-np.ones((1, 1), dtype=np.float32)),
                Tensor(ones), Tensor(ones), Tensor(np.ones(1, dtype=np.float32)))
    with pytest.raises(NumericError, match=f"^non-finite scan state at step {token}$"):
        ssm_scan_core(*operands)
    # visiting the tokens in reverse puts the same token at step L-1-token
    order = np.arange(L)[::-1][None]
    operands = [Tensor(o.data[None]) for o in operands[1:]]
    with pytest.raises(NumericError, match=f"^non-finite scan state at step {L - 1 - token}$"):
        ssm_scan_core(Tensor(u), *operands, order)


def test_recorded_scan_holds_only_chunk_boundary_states():
    # the FFAR shape: four traversals of a 32x32 map, batch 8, 16 channels,
    # 4 states.  Full exp(delta*A) and states would hold 2 x 8 MB until the
    # backward; the 16 chunk-end states are 128 KB
    operands, _ = grouped_scan_operands(rng(21), 4, 8, 1024, 16, 4)
    operands = [Tensor(o, requires_grad=True) for o in operands]
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            y = ssm_scan_core(*operands, traversal_orders(32, 32))
            held = tracemalloc.get_traced_memory()[0] - base - y.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert held < 2 * 2**20


def test_grad_scan_core_finite_difference():
    with precision("f64"):
        r = rng(5)
        ops = [Tensor(o) for o in random_scan_operands(r, 2, 6, 3, 2, np.float64)]

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk)))

        assert grad_check(f, ops, h=1e-5) < 1e-6


def test_grad_grouped_scan_core_finite_difference():
    with precision("f64"):
        operands, order = grouped_scan_operands(rng(15), 2, 2, 6, 3, 2, np.float64)

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk, order)))

        assert grad_check(f, [Tensor(o) for o in operands], h=1e-5) < 1e-6


def test_grad_blocked_scan_core_finite_difference():
    # two blocks with their own A and D_skip.  Some A gradients are ~5e-5,
    # where the central difference's rounding at h = 1e-5 alone reads ~2e-6
    with precision("f64"):
        operands, order = blocked_scan_operands(rng(25), 2, 2, 1, 6, 3, 2, np.float64)

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk, order)))

        assert grad_check(f, [Tensor(o) for o in operands], h=1e-4) < 1e-6


@pytest.mark.parametrize("L", [1, 2, 130])
def test_grad_scan_core_across_chunk_edges(L):
    # L = 130 runs in chunks of 24 with a short last chunk; a small delta
    # keeps exp(delta*A) near 1, so states and their adjoints carry across
    # many chunk boundaries.  At L = 130 some gradients are ~3e-5, where the
    # central difference's rounding needs h = 1e-4 and a 1e-5 bound
    with precision("f64"):
        operands, order = grouped_scan_operands(rng(20), 2, 1, L, 2, 2, np.float64)
        operands = [Tensor(o) for o in operands]
        operands[1].data *= 0.05

        def f(u, delta, A, Bc, Cc, Dsk):
            return ad.sum_all(ad.sigmoid(ssm_scan_core(u, delta, A, Bc, Cc, Dsk, order)))

        assert grad_check(f, operands, h=1e-4) < 1e-5


def test_grad_selective_scan_through_projections():
    # the four-way scan, fusion form, through both maps and every leaf of
    # the four parameter sets
    with precision("f64"):
        r = rng(6)
        params = [SsmParams(r, d_inner=4, d_state=3) for _ in DIRECTIONS]
        # delta of order 1: at the initial delta of 1e-3..1e-1 some A_log
        # gradients are ~4e-8, below the central difference's rounding error
        for p in params:
            p.dt_proj.bias.data[:] = r.normal(size=4)
        x = Tensor(r.normal(size=(1, 4, 2, 3)))
        src = Tensor(r.normal(size=(1, 4, 2, 3)))
        leaves = [x, src] + [t for p in params for t in
                             (p.A_log, p.D_skip, p.x_proj.weight, p.dt_proj.weight,
                              p.dt_proj.bias)]

        def f(*_):
            return ad.sum_all(ad.sigmoid(four_way_scan([x], [params], [src])[0]))

        assert grad_check(f, leaves, h=1e-4) < 1e-6


# ---------------------------------------------------------------------------
# directions


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_flatten_unflatten_roundtrip(direction):
    # gathering the row-major tokens through the direction's order is the
    # explicit flatten (transposes and flips); scattering back restores them
    x = rng(7).normal(size=(2, 3, 4, 5)).astype(np.float32)
    order = traversal_orders(4, 5)[DIRECTIONS.index(direction)]
    m = x if direction.startswith("row") else x.transpose(0, 1, 3, 2)
    flat = m.reshape(2, 3, 20)
    if direction.endswith("bwd"):
        flat = flat[:, :, ::-1]
    tokens = x.reshape(2, 3, 20)
    np.testing.assert_array_equal(tokens[:, :, order], flat)
    back = np.empty_like(tokens)
    back[:, :, order] = flat
    np.testing.assert_array_equal(back, tokens)


def test_flatten_orders_are_the_four_traversals():
    got = dict(zip(DIRECTIONS, traversal_orders(2, 3).tolist()))
    assert got["row_fwd"] == [0, 1, 2, 3, 4, 5]
    assert got["row_bwd"] == [5, 4, 3, 2, 1, 0]
    assert got["col_fwd"] == [0, 3, 1, 4, 2, 5]
    assert got["col_bwd"] == [5, 2, 4, 1, 3, 0]


def test_four_way_scan_on_single_site_is_sum_of_single_scans():
    # a 1x1 map makes every traversal the same length-1 sequence
    r = rng(8)
    params = [SsmParams(r, d_inner=3, d_state=2) for _ in range(4)]
    x = Tensor(r.normal(size=(2, 3, 1, 1)).astype(np.float32))
    merged = four_way_scan([x], [params])[0].data
    seq = x.data.reshape(2, 3, 1).transpose(0, 2, 1)
    want = 0
    for p in params:
        delta, A, Bc, Cc, Dsk = (o.astype(np.float32) for o in projection_reference(p, seq))
        want = want + ssm_scan_core(Tensor(seq), Tensor(delta), Tensor(A), Tensor(Bc),
                                    Tensor(Cc), Tensor(Dsk)).data
    np.testing.assert_allclose(merged.reshape(2, 1, 3), want, rtol=2e-5, atol=1e-6)


@pytest.mark.parametrize("H,W", [(1, 1), (1, 2), (10, 13)], ids=["L1", "L2", "L130"])
def test_four_way_scan_matches_reference_at_chunk_edges(H, W):
    # L = 130 ends in a short chunk; the initial delta (1e-3..1e-1) keeps
    # the states alive across chunk boundaries
    r = rng(19)
    params = [SsmParams(r, d_inner=3, d_state=2) for _ in DIRECTIONS]
    x = r.normal(size=(2, 3, H, W)).astype(np.float32)
    src = r.normal(size=(2, 3, H, W)).astype(np.float32)
    y = four_way_scan([Tensor(x)], [params], [Tensor(src)])[0].data
    ref = four_way_reference(x, params, src)
    assert np.abs(y - ref).max() / np.abs(ref).max() < 1e-5


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fusion"])
def test_four_way_scan_matches_per_direction_reference(fusion):
    r = rng(16)
    params = [SsmParams(r, d_inner=4, d_state=3) for _ in DIRECTIONS]
    x = r.normal(size=(2, 4, 3, 5)).astype(np.float32)
    src = r.normal(size=(2, 4, 3, 5)).astype(np.float32) if fusion else None
    y = four_way_scan([Tensor(x)], [params], None if src is None else [Tensor(src)])[0].data
    ref = four_way_reference(x, params, src)
    assert np.abs(y - ref).max() / np.abs(ref).max() < 1e-5


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fusion"])
def test_multi_map_four_way_scan_equals_separate_calls(fusion):
    # three maps, each with its own four parameter sets: one call gives the
    # bits of three one-map calls
    r = rng(26)
    params = [[SsmParams(r, d_inner=4, d_state=3) for _ in DIRECTIONS] for _ in range(3)]
    xs = [r.normal(size=(2, 4, 3, 5)).astype(np.float32) for _ in range(3)]
    srcs = [r.normal(size=(2, 4, 3, 5)).astype(np.float32) for _ in range(3)] if fusion else None
    ys = four_way_scan([Tensor(x) for x in xs], params,
                       None if srcs is None else [Tensor(s) for s in srcs])
    for p, y in enumerate(ys):
        src = None if srcs is None else srcs[p]
        alone = four_way_scan([Tensor(xs[p])], [params[p]],
                              None if src is None else [Tensor(src)])[0]
        assert y.data.tobytes() == alone.data.tobytes()


def test_multi_map_four_way_scan_matches_reference_in_float64():
    # each map against the per-direction oracle with its own parameter sets
    with precision("f64"):
        r = rng(27)
        params = [[SsmParams(r, d_inner=3, d_state=2) for _ in DIRECTIONS] for _ in range(2)]
        xs = [r.normal(size=(2, 3, 4, 3)) for _ in range(2)]
        srcs = [r.normal(size=(2, 3, 4, 3)) for _ in range(2)]
        ys = four_way_scan([Tensor(x) for x in xs], params, [Tensor(s) for s in srcs])
        for y, x, ps, src in zip(ys, xs, params, srcs):
            np.testing.assert_allclose(y.data, four_way_reference(x, ps, src),
                                       rtol=1e-10, atol=1e-12)


def test_four_way_scan_rejects_maps_of_different_shapes():
    r = rng(28)
    params = [[SsmParams(r, d_inner=3, d_state=2) for _ in DIRECTIONS] for _ in range(2)]
    xs = [Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((1, 3, 2, 3)))]
    with pytest.raises(ConfigError):
        four_way_scan(xs, params)
    with pytest.raises(ConfigError):
        four_way_scan(xs[:1], params)


@pytest.mark.parametrize("fusion,budget", [(False, 25), (True, 27)], ids=["plain", "fusion"])
def test_four_way_scan_tape_node_budget(fusion, budget):
    # one fused op: a row-order flatten, the stacked projections, one
    # ordered scan and one unflatten
    r = rng(18)
    params = [SsmParams(r, d_inner=4, d_state=2) for _ in DIRECTIONS]
    x = Tensor(r.normal(size=(1, 4, 3, 3)), requires_grad=True)
    src = Tensor(r.normal(size=(1, 4, 3, 3)), requires_grad=True) if fusion else None
    with ad.Tape() as tape:
        four_way_scan([x], [params], None if src is None else [src])
    assert len(tape) <= budget


def test_four_way_scan_mirror_symmetry_on_single_row():
    # on a height-1 map every traversal degenerates to the row sequence, so
    # with one parameter set shared by all four directions, mirroring the
    # input mirrors the merged output
    r = rng(9)
    shared = SsmParams(r, d_inner=3, d_state=2)
    params = [shared, shared, shared, shared]
    x = Tensor(r.normal(size=(1, 3, 1, 6)).astype(np.float32))
    xf = Tensor(np.flip(x.data, axis=3).copy())
    y = four_way_scan([x], [params])[0].data
    yf = four_way_scan([xf], [params])[0].data
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


def test_paired_blocks_equal_separate_blocks_bitwise():
    # the forward and every parameter gradient of two blocks run as a pair
    # equal those of the blocks run one at a time.  No input here has a
    # gradient; where one does and both blocks of a pair read it (the FFAR's
    # fusion pair reads each DTMB output twice), its gradient sums the same
    # contributions in another order, so only its rounding can differ
    r = rng(29)
    blocks = [MambaBlock(r, 4, d_state=2) for _ in range(2)]
    fusions = [FusionMambaBlock(r, 4, d_state=2) for _ in range(2)]
    xs = [Tensor(r.normal(size=(2, 4, 3, 5)).astype(np.float32)) for _ in range(2)]

    def run(paired):
        for m in blocks + fusions:
            for _, p in m.named_parameters():
                p.grad = None
        with Tape() as tape:
            if paired:
                fs = mamba_blocks(blocks, xs)
                outs = fusion_blocks(fusions, fs, xs[::-1])
            else:
                fs = [blk(x) for blk, x in zip(blocks, xs)]
                outs = [fus(f, x) for fus, f, x in zip(fusions, fs, xs[::-1])]
            ad.backward(tape, ad.sum_all(ad.mul(outs[0], outs[1])))
        grads = [p.grad.copy() for m in blocks + fusions for _, p in m.named_parameters()]
        return [o.data for o in outs], grads

    (outs_p, grads_p), (outs_s, grads_s) = run(True), run(False)
    for a, b in zip(outs_p + grads_p, outs_s + grads_s):
        assert a.tobytes() == b.tobytes()


def test_mamba_block_grad_reaches_every_parameter():
    with precision("f64"):
        r = rng(13)
        blk = MambaBlock(r, 2, d_state=2)
        x = Tensor(r.normal(size=(1, 2, 2, 2)))
        with ad.Tape() as tape:
            ad.backward(tape, ad.sum_all(blk(x)))
        missing = [name for name, p in blk.named_parameters() if p.grad is None]
        assert not missing, f"no gradient for {sorted(missing)}"
