"""Training-harness plumbing: dataset generation and I/O, checkpoints,
schedules, optimizer mechanics, determinism, and the self-check registry."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mambafuse
from mambafuse import autodiff as ad
from mambafuse import checkpoint
from mambafuse.autodiff import Tape, Tensor
from mambafuse.checkpoint import CheckpointError
from mambafuse.checks import PROPERTIES, run_checks
from mambafuse.config import (SEED_MAX, ModelConfig, TrainConfig, dump_config,
                              parse_config_text, tiny_config)
from mambafuse.data import (load_dataset, read_labels, read_pgm, read_ppm, render_scene,
                            synth_dataset, write_labels, write_pgm, write_ppm)
from mambafuse.deformable import DeformableToken, deformable_conv2d
from mambafuse.detect import DetectionBox
from mambafuse.model import build_detector
from mambafuse.nn import Conv2d, Module, Parameter
from mambafuse.train import (GRAD_CLIP, LR_FINAL, LR_INITIAL, MOMENTUM, OFFSET_LR_MULT, SGD,
                             WEIGHT_DECAY, blas_thread_fns, compute_batch_loss, cosine_lr,
                             train)
from mambafuse.autodiff import ConfigError


def rng(salt=0):
    return np.random.Generator(np.random.Philox(key=(np.uint64(12), np.uint64(salt))))


# ---------------------------------------------------------------------------
# synthetic data


def test_render_scene_is_deterministic():
    rgb1, ir1, lab1 = render_scene(7, 3, 128)
    rgb2, ir2, lab2 = render_scene(7, 3, 128)
    np.testing.assert_array_equal(rgb1, rgb2)
    np.testing.assert_array_equal(ir1, ir2)
    assert lab1 == lab2


def test_render_scene_shapes_and_ranges():
    rgb, ir, labels = render_scene(0, 0, 128)
    assert rgb.shape == (3, 128, 128) and ir.shape == (1, 128, 128)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0
    assert ir.min() >= 0.0 and ir.max() <= 1.0
    assert 1 <= len(labels) <= 3
    for b in labels:
        b.validate()


def test_scene_streams_are_independent_per_index():
    rgb1, _, _ = render_scene(7, 0, 128)
    rgb2, _, _ = render_scene(7, 1, 128)
    assert not np.array_equal(rgb1, rgb2)


def test_synth_dataset_files_are_bit_identical_across_runs(tmp_path):
    d1 = synth_dataset(3, 4, 128, tmp_path / "a")
    d2 = synth_dataset(3, 4, 128, tmp_path / "b")
    for name in sorted(os.listdir(d1)):
        with open(d1 / name, "rb") as f1, open(d2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_synth_dataset_empty_and_size_validation(tmp_path):
    out = synth_dataset(0, 0, 128, tmp_path / "empty")
    assert (out / "index.txt").read_text() == ""
    with pytest.raises(ValueError):
        synth_dataset(0, 1, 100, tmp_path / "bad")


def test_ppm_pgm_round_trip(tmp_path):
    r = rng(1)
    rgb = np.round(r.uniform(size=(3, 6, 5)) * 255) / 255
    gray = np.round(r.uniform(size=(1, 4, 7)) * 255) / 255
    write_ppm(tmp_path / "x.ppm", rgb)
    write_pgm(tmp_path / "x.pgm", gray)
    got = read_ppm(tmp_path / "x.ppm")
    np.testing.assert_allclose(got, rgb, atol=1e-12)
    assert got.flags.c_contiguous   # channel-major in memory, not a view of RGB triples
    np.testing.assert_allclose(read_pgm(tmp_path / "x.pgm"), gray, atol=1e-12)


def test_pnm_reader_rejects_wrong_magic(tmp_path):
    write_pgm(tmp_path / "x.pgm", np.zeros((1, 2, 2)))
    with pytest.raises(IOError):
        read_ppm(tmp_path / "x.pgm")


def test_pnm_reader_skips_header_comments(tmp_path):
    (tmp_path / "c.pgm").write_bytes(b"P5\n# made by hand\n2 1 # width height\n255\n\x00\xff")
    np.testing.assert_array_equal(read_pgm(tmp_path / "c.pgm"), [[[0.0, 1.0]]])


def _read_bad_ppm(tmp_path, blob):
    (tmp_path / "bad.ppm").write_bytes(blob)
    with pytest.raises(IOError):
        read_ppm(tmp_path / "bad.ppm")


def test_pnm_reader_rejects_truncated_pixels(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n2 2\n255\n" + bytes(11))


def test_pnm_reader_rejects_non_integer_width(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n2.5 2\n255\n" + bytes(12))


def test_pnm_reader_rejects_unterminated_comment(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n# a comment without its newline")


def test_pnm_reader_rejects_zero_maxval(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n2 2\n0\n" + bytes(12))


def test_pnm_reader_rejects_sixteen_bit_maxval(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n2 2\n65535\n" + bytes(24))


def test_pnm_reader_rejects_negative_width(tmp_path):
    _read_bad_ppm(tmp_path, b"P6\n-2 1\n255\n" + bytes(12))


def test_cli_infer_exits_3_on_truncated_ppm(tmp_path, capsys):
    from mambafuse.cli import main
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(dump_config(tiny_config(), TrainConfig()))
    ckpt = tmp_path / "m.ckpt"
    checkpoint.save(ckpt, build_detector(tiny_config(), seed=0).state_dict())
    rgb, ir, _ = render_scene(0, 0, 128)
    write_ppm(tmp_path / "x_rgb.ppm", rgb)
    write_pgm(tmp_path / "x_ir.pgm", ir)
    blob = (tmp_path / "x_rgb.ppm").read_bytes()
    (tmp_path / "x_rgb.ppm").write_bytes(blob[:len(blob) // 2])
    code = main(["infer", "--config", str(cfg), "--ckpt", str(ckpt),
                 "--rgb", str(tmp_path / "x_rgb.ppm"), "--ir", str(tmp_path / "x_ir.pgm")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_labels_round_trip_and_validation(tmp_path):
    labels = [DetectionBox(0.5, 0.5, 0.2, 0.3, 2), DetectionBox(0.1, 0.9, 0.1, 0.1, 0)]
    write_labels(tmp_path / "l.txt", labels)
    assert read_labels(tmp_path / "l.txt") == labels
    (tmp_path / "bad.txt").write_text("1 0.5 0.5 0.0 0.2\n")
    with pytest.raises(Exception):
        read_labels(tmp_path / "bad.txt")


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    r = rng(2)
    tensors = {"m.weight": r.normal(size=(2, 3, 4)).astype(np.float32),
               "m.bias": r.normal(size=(5,)).astype(np.float32)}
    p = tmp_path / "c.ckpt"
    checkpoint.save(p, tensors)
    loaded = checkpoint.load(p)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].dtype == np.float32
        np.testing.assert_array_equal(loaded[k], tensors[k])
    p2 = tmp_path / "c2.ckpt"
    checkpoint.save(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    p = tmp_path / "c.ckpt"
    checkpoint.save(p, {"w": np.ones(4, dtype=np.float32)})
    blob = p.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-3])
    with pytest.raises(CheckpointError):
        checkpoint.load(tmp_path / "trunc.ckpt")
    (tmp_path / "trail.ckpt").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError):
        checkpoint.load(tmp_path / "trail.ckpt")
    (tmp_path / "hdr.ckpt").write_bytes(b"bogus\n" + blob)
    with pytest.raises(CheckpointError):
        checkpoint.load(tmp_path / "hdr.ckpt")


def _manifest_case(tmp_path, manifest: bytes):
    # a manifest spliced in front of one tensor's payload, -1.0 x 4 (non-ASCII)
    p = tmp_path / "c.ckpt"
    checkpoint.save(p, {"w": -np.ones(4, dtype=np.float32)})
    payload = p.read_bytes().split(b"\n", 2)[2]
    p.write_bytes(manifest + payload)
    return p


def test_checkpoint_manifest_shorter_than_count_is_checkpoint_error(tmp_path):
    p = _manifest_case(tmp_path, b"tensors 2\nw 1 4\n")
    with pytest.raises(CheckpointError):
        checkpoint.load(p)


def test_checkpoint_non_integer_rank_is_checkpoint_error(tmp_path):
    p = _manifest_case(tmp_path, b"tensors 1\nw one 4\n")
    with pytest.raises(CheckpointError):
        checkpoint.load(p)


def test_checkpoint_empty_manifest_line_is_checkpoint_error(tmp_path):
    p = _manifest_case(tmp_path, b"tensors 1\n\nw 1 4\n")
    with pytest.raises(CheckpointError):
        checkpoint.load(p)


def test_checkpoint_negative_extent_is_checkpoint_error(tmp_path):
    # (-2) * (-2) matches the payload's four values
    p = _manifest_case(tmp_path, b"tensors 1\nw 2 -2 -2\n")
    with pytest.raises(CheckpointError):
        checkpoint.load(p)


def test_module_state_dict_shape_guard():
    conv = Conv2d(rng(3), 2, 3, 3)
    sd = conv.state_dict()
    sd["weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(ConfigError):
        conv.load_state_dict(sd)
    with pytest.raises(ConfigError):
        conv.load_state_dict({"weight": conv.weight.data})  # missing bias
    sd = conv.state_dict()
    sd["extra"] = np.zeros(1, dtype=np.float32)
    with pytest.raises(ConfigError):
        conv.load_state_dict(sd)


def test_detector_checkpoint_restores_forward(tmp_path):
    cfg = tiny_config()
    m1 = build_detector(cfg, seed=1)
    checkpoint.save(tmp_path / "m.ckpt", m1.state_dict())
    m2 = build_detector(cfg, seed=2)
    m2.load_state_dict(checkpoint.load(tmp_path / "m.ckpt"))
    r = rng(4)
    rgb = r.normal(size=(1, 3, 128, 128)).astype(np.float32)
    ir = r.normal(size=(1, 1, 128, 128)).astype(np.float32)
    p1 = m1.predict_np(rgb, ir)
    p2 = m2.predict_np(rgb, ir)
    for (c1, b1), (c2, b2) in zip(p1, p2):
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(b1, b2)


# ---------------------------------------------------------------------------
# schedule / optimizer


def test_cosine_lr_hits_both_endpoints():
    assert cosine_lr(0, 500, 0.01, 0.0001) == pytest.approx(0.01)
    assert cosine_lr(499, 500, 0.01, 0.0001) == pytest.approx(0.0001)
    mid = cosine_lr(250, 501, 0.01, 0.0001)
    assert mid == pytest.approx((0.01 + 0.0001) / 2, rel=1e-6)


def test_cosine_lr_is_monotonically_decreasing():
    vals = [cosine_lr(s, 100, 0.01, 0.0001) for s in range(100)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sgd_momentum_hand_case():
    p = Parameter(np.array([1.0], dtype=np.float32))
    opt = SGD([p], momentum=0.5, weight_decay=0.0)
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step(lr=0.1)
    np.testing.assert_allclose(p.data, [0.9])
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step(lr=0.1)  # v = 0.5*1 + 1 = 1.5
    np.testing.assert_allclose(p.data, [0.9 - 0.15], rtol=1e-6)


def test_sgd_weight_decay_pulls_toward_zero():
    p = Parameter(np.array([2.0], dtype=np.float32))
    opt = SGD([p], momentum=0.0, weight_decay=0.1)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=1.0)
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 2.0])


def test_grad_clip_scales_to_cap():
    p = Parameter(np.zeros(3, dtype=np.float32))
    opt = SGD([p], momentum=0.0, weight_decay=0.0)
    p.grad = np.array([3.0, 4.0, 0.0], dtype=np.float32)
    norm = opt.clip_grad_norm(1.0)
    assert norm == pytest.approx(5.0)
    opt.step(lr=0.1)
    # the step is lr * cap/norm * g: the gradient it applies has norm 1
    np.testing.assert_allclose(-p.data, 0.1 * 1.0 / 5.0 * p.grad, rtol=1e-6)


def _offset_and_plain_module():
    # a plain conv beside a token module, whose offset conv is the one
    # group that steps at OFFSET_LR_MULT
    m = Module()
    m.plain = Conv2d(rng(30), 2, 18, 3, padding=1)
    m.inner = DeformableToken(rng(31), cin=2, cout=3, kernel=3, stride=1, padding=1)
    return m


def test_sgd_offset_conv_group_steps_at_its_multiple():
    m = _offset_and_plain_module()
    names_before = list(m.state_dict())
    opt = SGD.for_model(m, momentum=0.0, weight_decay=0.0)
    offset_ids = {id(p) for p in m.inner.offset_conv.parameters()}
    assert opt.lr_mults == [OFFSET_LR_MULT if id(p) in offset_ids else 1.0
                            for p in m.parameters()]
    assert OFFSET_LR_MULT > 1.0
    before = {id(p): p.data.copy() for p in m.parameters()}
    for p in m.parameters():
        p.grad = np.full_like(p.data, 0.5)
    opt.step(lr=0.1)
    for p in m.parameters():
        moved = before[id(p)] - p.data
        want = 0.05 * (OFFSET_LR_MULT if id(p) in offset_ids else 1.0)
        np.testing.assert_allclose(moved, want, rtol=1e-5)
    assert list(m.state_dict()) == names_before


def test_sgd_groups_share_one_global_clip():
    m = _offset_and_plain_module()
    opt = SGD.for_model(m, momentum=0.0, weight_decay=0.0)
    for p in m.parameters():
        p.data[...] = 0.0   # so each parameter after the step is minus the step
        p.grad = np.full_like(p.data, 1.0)
    total = sum(p.data.size for p in m.parameters())
    norm = opt.clip_grad_norm(1.0)
    assert norm == pytest.approx(np.sqrt(total))
    opt.step(lr=0.1)
    # one scale for every group: each step is lr * mult * cap/norm * g
    for p, mult in zip(m.parameters(), opt.lr_mults):
        np.testing.assert_allclose(-p.data, 0.1 * mult / norm, rtol=1e-6)
    assert set(opt.lr_mults) == {1.0, OFFSET_LR_MULT}


def reference_step(data, velocity, grads, lr_mults, lr, norm, max_norm, momentum, wd):
    """One clip + step with the out-of-place arithmetic the optimizer had
    before it stepped in place: a scaled copy of every gradient when ``norm``
    (the optimizer's) is above the cap, zeros for a missing gradient, and a
    fresh array for every new parameter.  ``velocity`` is updated in place."""
    if norm > max_norm:
        grads = [None if g is None else g * (max_norm / norm) for g in grads]
    new = []
    for d, v, g, mult in zip(data, velocity, grads, lr_mults):
        g = np.zeros_like(d) if g is None else g
        g = g + wd * d
        v *= momentum
        v += g
        new.append(d - (lr * mult) * v)
    return new


def float64_norm(grads):
    return math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                         for g in grads if g is not None))


@pytest.mark.parametrize("chunk", [None, 100])
def test_sgd_step_matches_out_of_place_reference_bit_for_bit(monkeypatch, chunk):
    if chunk is not None:   # step the larger parameters in chunks of rows
        monkeypatch.setattr(sys.modules["mambafuse.train"], "_STEP_CHUNK", chunk)
    m = _offset_and_plain_module()
    params = m.parameters()
    opt = SGD.for_model(m, MOMENTUM, WEIGHT_DECAY)
    assert max(len(c) for c in opt._chunks) == (1 if chunk is None else 4)
    # a parameter with no gradient, stored as -0.0 with a -0.0 velocity:
    # its step is 0 + wd*p, which turns -0.0 into +0.0 before the momentum
    none_at = params.index(m.plain.bias)
    m.plain.bias.data[...] = -0.0
    opt.velocity[none_at][...] = -0.0
    data = [p.data.copy() for p in params]
    velocity = [v.copy() for v in opt.velocity]
    r = rng(40)
    clipped = 0
    for step in range(20):
        # above the cap on even steps, below it on odd ones
        size = 3.0 if step % 2 == 0 else 1e-3
        grads = [None if i == none_at else (r.normal(size=p.shape) * size).astype(np.float32)
                 for i, p in enumerate(params)]
        for p, g in zip(params, grads):
            p.grad = g
        norm = opt.clip_grad_norm(GRAD_CLIP)
        assert norm == pytest.approx(float64_norm(grads), rel=1e-6)
        clipped += norm > GRAD_CLIP
        lr = cosine_lr(step, 20, LR_INITIAL, LR_FINAL)
        opt.step(lr)
        data = reference_step(data, velocity, grads, opt.lr_mults, lr, norm, GRAD_CLIP,
                              MOMENTUM, WEIGHT_DECAY)
        for p, d in zip(params, data):
            assert p.data.tobytes() == d.tobytes()
        for v, w in zip(opt.velocity, velocity):
            assert v.tobytes() == w.tobytes()
    assert clipped == 10
    assert OFFSET_LR_MULT in opt.lr_mults


def test_sgd_reads_broadcast_and_shared_gradients_without_writing_them():
    params = [Parameter(np.arange(6.0).reshape(2, 3) + k) for k in range(3)]
    opt = SGD(params, MOMENTUM, WEIGHT_DECAY)
    data = [p.data.copy() for p in params]
    broadcast = np.broadcast_to(np.float32(3.0), (2, 3))   # read-only
    shared = np.full((2, 3), 4.0, dtype=np.float32)        # one array, two leaves
    params[0].grad = broadcast
    params[1].grad = params[2].grad = shared
    norm = opt.clip_grad_norm(1.0)
    assert norm == pytest.approx(math.sqrt(6 * 9 + 2 * 6 * 16))
    opt.step(lr=0.5)
    assert not broadcast.flags.writeable
    np.testing.assert_array_equal(broadcast, 3.0)
    np.testing.assert_array_equal(shared, 4.0)
    assert params[1].grad is shared and params[2].grad is shared
    # each gradient applied once, with one scale
    want = reference_step(data, [np.zeros_like(d) for d in data],
                          [broadcast, shared, shared], [1.0] * 3, 0.5, norm, 1.0,
                          MOMENTUM, WEIGHT_DECAY)
    for p, w in zip(params, want):
        assert p.data.tobytes() == w.tobytes()


def test_sgd_clip_and_step_allocate_less_than_two_parameters():
    r = rng(41)
    params = [Parameter(r.normal(size=shape)) for shape in ((64, 32, 3, 3), (64,), (32, 16))]
    opt = SGD(params, MOMENTUM, WEIGHT_DECAY)

    def set_grads():
        for p in params:
            p.grad = r.normal(size=p.shape).astype(np.float32)

    set_grads()
    opt.clip_grad_norm(1.0)
    opt.step(0.01)   # warm-up
    set_grads()
    tracemalloc.start()
    try:
        assert opt.clip_grad_norm(1.0) > 1.0   # the clip scale is applied
        opt.step(0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * params[0].data.nbytes


def test_load_state_dict_and_parameter_copy_so_a_step_writes_no_caller_array():
    conv = Conv2d(rng(42), 2, 3, 3)
    state = {k: v.copy() for k, v in conv.state_dict().items()}
    kept = {k: v.copy() for k, v in state.items()}
    conv.load_state_dict(state)
    opt = SGD(conv.parameters(), MOMENTUM, WEIGHT_DECAY)
    for p in conv.parameters():
        p.grad = np.ones_like(p.data)
    opt.step(0.1)
    assert all(state[k].tobytes() == kept[k].tobytes() for k in state)
    assert not np.array_equal(conv.weight.data, state["weight"])
    # two parameters loaded from one array each step once
    m = Module()
    m.a = Conv2d(rng(43), 2, 3, 1, bias=False)
    m.b = Conv2d(rng(44), 2, 3, 1, bias=False)
    w = np.ones((3, 2, 1, 1), dtype=np.float32)
    m.load_state_dict({"a.weight": w, "b.weight": w})
    opt = SGD(m.parameters(), momentum=0.0, weight_decay=0.0)
    for p in m.parameters():
        p.grad = np.ones_like(p.data)
    opt.step(0.5)
    np.testing.assert_array_equal(w, 1.0)
    np.testing.assert_array_equal(m.a.weight.data, 0.5)
    np.testing.assert_array_equal(m.b.weight.data, 0.5)
    # nor does a step write the array a parameter was built from
    p = Parameter(w)
    opt = SGD([p], momentum=0.0, weight_decay=0.0)
    p.grad = np.ones_like(w)
    opt.step(0.5)
    np.testing.assert_array_equal(w, 1.0)
    np.testing.assert_array_equal(p.data, 0.5)


# ---------------------------------------------------------------------------
# training determinism


def _tiny_train(tmp_path, tag, steps=3, threads=1):
    data = synth_dataset(5, 2, 128, tmp_path / "data") \
        if not (tmp_path / "data" / "index.txt").exists() else tmp_path / "data"
    tc = TrainConfig()
    tc.steps = steps
    tc.batch_size = 2
    tc.threads = threads
    lines = []
    train(tiny_config(), tc, data, tmp_path / f"{tag}.ckpt", log=lines.append)
    return lines, (tmp_path / f"{tag}.ckpt").read_bytes()


def test_pinned_step_records_632_tape_nodes(tmp_path):
    # tape nodes per pinned-recipe step (tiny_config() at seed 0, batch 8 of
    # synth_dataset(0, 8, 128)): the forward plus the loss
    cfg = tiny_config()
    _, rgbs, irs, labels = load_dataset(synth_dataset(0, 8, 128, tmp_path / "data"))
    model = build_detector(cfg, seed=0)
    with Tape() as tape:
        compute_batch_loss(model, rgbs, irs, labels, cfg, TrainConfig())
    assert len(tape) == 632


def test_pinned_step_gives_box_branches_without_positives_no_gradient(tmp_path):
    # every synthetic box routes to head level 1, so the box branches of
    # levels 0 and 2 get an all-zero output gradient and conv2d stops there
    cfg = tiny_config()
    _, rgbs, irs, labels = load_dataset(synth_dataset(0, 8, 128, tmp_path / "data"))
    model = build_detector(cfg, seed=0)
    with Tape() as tape:
        loss, _ = compute_batch_loss(model, rgbs, irs, labels, cfg, TrainConfig())
        ad.backward(tape, loss)
    for name, p in model.named_parameters():
        if name.startswith(("head.level0.box_", "head.level2.box_")):
            assert p.grad is None, name
        elif name.startswith("head."):
            assert p.grad is not None and p.grad.any(), name


def test_training_is_bit_deterministic(tmp_path):
    lines1, blob1 = _tiny_train(tmp_path, "a")
    lines2, blob2 = _tiny_train(tmp_path, "b")
    assert lines1 == lines2
    assert blob1 == blob2


def test_threads_field_does_not_change_training(tmp_path):
    # training has one path: threads=2 logs and saves the threads=1 bytes
    lines1, blob1 = _tiny_train(tmp_path, "t1", threads=1)
    lines2, blob2 = _tiny_train(tmp_path, "t2", threads=2)
    assert lines1 == lines2
    assert blob1 == blob2


_TRAIN_SCRIPT = """
import sys
from mambafuse.config import TrainConfig, tiny_config
from mambafuse.train import train
train(tiny_config(), TrainConfig(steps=3, seed=0, threads=1), sys.argv[1],
      sys.argv[2], log=print)
"""


@pytest.mark.skipif(blas_thread_fns() is None,
                    reason="no OpenBLAS thread symbol found")
def test_training_is_bit_identical_across_blas_thread_counts(tmp_path):
    data = synth_dataset(0, 8, 128, tmp_path / "data")
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        ckpt = tmp_path / f"blas{n}.ckpt"
        out = subprocess.run([sys.executable, "-c", _TRAIN_SCRIPT, str(data), str(ckpt)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        runs.append((out.stdout.splitlines(), ckpt.read_bytes()))
    assert len(runs[0][0]) == 3
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_training_log_format(tmp_path):
    lines, _ = _tiny_train(tmp_path, "c", steps=2)
    assert len(lines) == 2
    for i, line in enumerate(lines):
        parts = line.split()
        assert len(parts) == 6
        assert int(parts[0]) == i
        [float(x) for x in parts[1:]]


def test_inference_is_bit_deterministic():
    cfg = tiny_config()
    m = build_detector(cfg, seed=9)
    r = rng(5)
    rgb = r.normal(size=(1, 3, 128, 128)).astype(np.float32)
    ir = r.normal(size=(1, 1, 128, 128)).astype(np.float32)
    p1 = m.predict_np(rgb, ir)
    p2 = m.predict_np(rgb, ir)
    for (c1, b1), (c2, b2) in zip(p1, p2):
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(b1, b2)


# ---------------------------------------------------------------------------
# config files


def test_config_text_round_trip():
    mc = tiny_config(num_classes=3)
    tc = TrainConfig(steps=42, batch_size=4, threads=2)   # threads: inert but accepted
    text = dump_config(mc, tc)
    mkw, tkw = parse_config_text(text)
    assert ModelConfig(**mkw) == mc
    assert TrainConfig(**tkw) == tc


# keys that once were settable and are now fixed in the module that reads them
REMOVED_KEYS = ("patch_kernel", "stage_kernel", "attn_kernel", "reduction", "eps",
                "reg_max", "lr_initial", "lr_final", "momentum", "weight_decay",
                "grad_clip", "lambda_cls", "lambda_box", "lambda_dfl")


def test_config_parse_errors():
    with pytest.raises(ConfigError):
        parse_config_text("steps 42")
    with pytest.raises(ConfigError):
        parse_config_text("warp_drive = 9")
    for line in ["lr_initial = nan", "momentum = inf"] + [f"{k} = 0.9" for k in REMOVED_KEYS]:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line)


@pytest.mark.parametrize("field,value", [
    ("input_size", 0), ("ffar_stride", 0), ("base_width", 0), ("ssm_state", 0),
    ("stage_widths", (16, 0, 32, 48)), ("ssm_expand", 0), ("ffar_stride", -4),
    ("num_classes", 0), ("num_classes", -1)])
def test_config_rejects_sizes_below_one(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -2), ("steps", 0), ("seed", -1)])
def test_train_config_rejects_values_below_floor(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_train_config_rejects_seed_beyond_64_bits():
    # seeds key uint64 Philox streams
    assert TrainConfig(seed=SEED_MAX).seed == SEED_MAX
    with pytest.raises(ConfigError, match="seed must be at most"):
        TrainConfig(seed=SEED_MAX + 1)


def test_cli_train_exits_2_on_base_width_indivisible_by_reduction(tmp_path, capsys):
    # channel attention's fixed reduction of 4 cannot divide a width of 6
    from mambafuse.cli import main
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(dump_config(tiny_config(), TrainConfig()).replace(
        "base_width = 8", "base_width = 6"))
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == 2
    assert "reduction 4" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["batch_size = 0", "batch_size = -2", "seed = -1",
                                  "seed = 18446744073709551616", "num_classes = -1",
                                  "steps = 0", "momentum = inf", "lr_initial = nan"])
def test_cli_train_exits_2_on_bad_config_value(tmp_path, capsys, line):
    from mambafuse.cli import main
    data = synth_dataset(0, 2, 64, tmp_path / "data")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(dump_config(tiny_config(input_size=64), TrainConfig()) + line + "\n")
    code = main(["train", "--config", str(cfg), "--data", str(data),
                 "--ckpt", str(tmp_path / "m.ckpt"), "--steps", "1"])
    assert code == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--steps", "0", "--data", "d", "--ckpt", "m.ckpt"],
    ["train", "--seed", "-1", "--data", "d", "--ckpt", "m.ckpt"],
    ["synth", "--seed", "-1", "--data", "d"],
    ["infer", "--seed", "-1", "--ckpt", "m.ckpt", "--rgb", "a.ppm", "--ir", "a.pgm"],
    ["eval", "--seed", "-1", "--dets", "dets.txt", "--data", "d"],
    ["viz", "--seed", "-1", "--ckpt", "m.ckpt", "--rgb", "a.ppm", "--ir", "a.pgm",
     "--out", "o.ppm"],
    ["check", "--seed", "-1"]],
    ids=["train-steps", "train-seed", "synth", "infer", "eval", "viz", "check"])
def test_cli_exits_2_on_steps_or_seed_below_floor(tmp_path, monkeypatch, capsys, argv):
    from mambafuse.cli import main
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    flag = "--steps" if "--steps" in argv else "--seed"
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["synth", "--data", "d"], ["train", "--data", "d", "--ckpt", "m.ckpt"]],
    ids=["synth", "train"])
def test_cli_exits_2_on_seed_beyond_64_bits(tmp_path, monkeypatch, capsys, command):
    from mambafuse.cli import main
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(command[:1] + ["--seed", str(SEED_MAX + 1)] + command[1:])
    assert e.value.code == 2
    assert "argument --seed: must be at most" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_train_exits_2_on_class_id_beyond_num_classes(tmp_path, capsys):
    from mambafuse.cli import main
    data = synth_dataset(0, 2, 64, tmp_path / "data")
    (data / "scene_000_labels.txt").write_text("1 0.5 0.5 0.2 0.2\n")
    (data / "scene_001_labels.txt").write_text("1 0.5 0.5 0.2 0.2\n4 0.2 0.2 0.2 0.2\n")
    cfg = tmp_path / "two.cfg"
    cfg.write_text(dump_config(tiny_config(input_size=64, num_classes=2), TrainConfig()))
    code = main(["train", "--config", str(cfg), "--data", str(data),
                 "--ckpt", str(tmp_path / "m.ckpt"), "--steps", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "scene_001" in err and "class 4" in err and "num_classes=2" in err
    assert not (tmp_path / "m.ckpt").exists()


def _train_cli(tmp_path, data, cfg):
    from mambafuse.cli import main
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(dump_config(cfg, TrainConfig()))
    return main(["train", "--config", str(cfg_file), "--data", str(data),
                 "--ckpt", str(tmp_path / "m.ckpt"), "--steps", "1"])


def test_cli_train_exits_3_on_index_line_without_four_fields(tmp_path, capsys):
    data = synth_dataset(0, 2, 64, tmp_path / "data")
    (data / "index.txt").write_text(
        "scene_000 scene_000_rgb.ppm scene_000_ir.pgm scene_000_labels.txt\n"
        "scene_001 scene_001_rgb.ppm scene_001_ir.pgm\n")
    assert _train_cli(tmp_path, data, tiny_config(input_size=64)) == 3
    assert "index.txt line 2: expected 4 fields" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_exits_3_on_scenes_of_different_sizes(tmp_path, capsys):
    data = synth_dataset(0, 2, 64, tmp_path / "data")
    rgb, ir, _ = render_scene(0, 1, 128)
    write_ppm(data / "scene_001_rgb.ppm", rgb)
    write_pgm(data / "scene_001_ir.pgm", ir)
    assert _train_cli(tmp_path, data, tiny_config(input_size=64)) == 3
    assert "scene_001_rgb.ppm: image size (128, 128) differs" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_exits_2_on_image_size_other_than_input_size(tmp_path, capsys):
    # the anchors are normalised by input_size: 64 px scenes under a 128 px
    # config would train on wrong targets
    data = synth_dataset(0, 2, 64, tmp_path / "data")
    assert _train_cli(tmp_path, data, tiny_config()) == 2
    assert "input_size=128" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_infer_exits_2_on_image_size_other_than_input_size(tmp_path, capsys):
    from mambafuse.cli import main
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(dump_config(tiny_config(), TrainConfig()))
    ckpt = tmp_path / "m.ckpt"
    checkpoint.save(ckpt, build_detector(tiny_config(), seed=0).state_dict())
    rgb, ir, _ = render_scene(0, 0, 64)
    write_ppm(tmp_path / "x_rgb.ppm", rgb)
    write_pgm(tmp_path / "x_ir.pgm", ir)
    code = main(["infer", "--config", str(cfg), "--ckpt", str(ckpt),
                 "--rgb", str(tmp_path / "x_rgb.ppm"), "--ir", str(tmp_path / "x_ir.pgm")])
    assert code == 2
    assert "input_size=128" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "0"], ["--size", "0"], ["--size", "100"],
                                  ["--size", "-64"]], ids=["n0", "size0", "size100", "size-64"])
def test_cli_synth_exits_2_on_bad_count_or_size(tmp_path, capsys, argv):
    from mambafuse.cli import main
    try:
        code = main(["synth", "--data", str(tmp_path / "data")] + argv)
    except SystemExit as e:   # argparse rejects the flag itself
        code = e.code
    assert code == 2
    assert argv[0] in capsys.readouterr().err.replace("image size", "--size")
    assert not (tmp_path / "data").exists()


def test_cli_f64_flag_holds_only_for_its_command(tmp_path, monkeypatch):
    from mambafuse import cli
    missing = str(tmp_path / "missing")
    assert cli.main(["--f64", "eval", "--dets", missing, "--data", missing]) == 3
    assert Tensor([1.0]).data.dtype == np.float32
    seen = []

    def failing_eval(args):
        seen.append(Tensor([1.0]).data.dtype)
        raise OSError("no detections")

    monkeypatch.setattr(cli, "cmd_eval", failing_eval)
    assert cli.main(["--f64", "eval", "--dets", missing, "--data", missing]) == 3
    assert seen == [np.float64]
    assert Tensor([1.0]).data.dtype == np.float32


def test_cli_train_rejects_threads_flag(tmp_path):
    from mambafuse.cli import main
    with pytest.raises(SystemExit) as e:
        main(["train", "--threads", "2", "--data", str(tmp_path),
              "--ckpt", str(tmp_path / "m.ckpt")])
    assert e.value.code == 2


@pytest.mark.parametrize("line", ["1 0.5 0.5 0.2", "1 0.5 0.5 0.2 0.2 0.9",
                                  "x 0.5 0.5 0.2 0.2", "1 0.5 half 0.2 0.2"])
def test_cli_eval_exits_3_on_unparsable_label_line(tmp_path, capsys, line):
    from mambafuse.cli import main
    data = synth_dataset(0, 1, 64, tmp_path / "data")
    (data / "scene_000_labels.txt").write_text(f"2 0.5 0.5 0.2 0.2\n{line}\n")
    dets = tmp_path / "dets.txt"
    dets.write_text("")
    code = main(["eval", "--dets", str(dets), "--data", str(data)])
    assert code == 3
    err = capsys.readouterr().err
    assert "scene_000_labels.txt line 2" in err


@pytest.mark.parametrize("line,code", [
    ("scene_000 1 0.9 0.5 0.5 0.2", 3), ("scene_000 1 0.9 0.5 0.5 0.2 0.2 7", 3),
    ("scene_000 one 0.9 0.5 0.5 0.2 0.2", 3), ("scene_000 1 0.9 0.5 0.5 wide 0.2", 3),
    ("scene_999 1 0.9 0.5 0.5 0.2 0.2", 2), ("scene_000 1 nan 0.5 0.5 0.2 0.2", 3),
    ("scene_000 1 0.9 inf 0.5 0.2 0.2", 3), ("scene_000 1 0.9 0.5 0.5 0.2 -inf", 3)])
def test_cli_eval_exit_codes_on_bad_detection_lines(tmp_path, capsys, line, code):
    from mambafuse.cli import main
    data = synth_dataset(0, 1, 64, tmp_path / "data")
    dets = tmp_path / "dets.txt"
    dets.write_text(f"scene_000 1 0.9 0.5 0.5 0.2 0.2\n\n{line}\n")
    assert main(["eval", "--dets", str(dets), "--data", str(data)]) == code
    err = capsys.readouterr().err
    assert ("dets.txt line 3" in err) if code == 3 else ("scene_999" in err)


def test_cli_eval_fuzzed_detection_lines_succeed_or_exit_2_or_3(tmp_path):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from mambafuse.cli import main
    data = str(synth_dataset(0, 1, 64, tmp_path / "data"))
    dets = tmp_path / "dets.txt"
    # well-formed lines with any class and any finite numbers, and lines
    # whose fields are drawn from numbers, special spellings, text and bytes
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    well_formed = st.tuples(st.just("scene_000"), st.integers(-10, 10**30).map(str),
                            *[number] * 5)
    field = st.one_of(
        st.floats().map(repr), st.integers(-10, 10**30).map(str),
        st.sampled_from(["nan", "inf", "-inf", "1e400", "0x1p3", "1_0", "+.5", ""]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    )
    fuzzed = st.tuples(st.one_of(st.just("scene_000"), field), *[field] * 6)
    line = st.one_of(well_formed, fuzzed).map(lambda t: " ".join(t).encode())
    line = st.one_of(line, st.tuples(line, st.binary(max_size=4)).map(b" ".join))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(line, min_size=1, max_size=3))
    def run(lines):
        dets.write_bytes(b"".join(ln + b"\n" for ln in lines))
        assert main(["eval", "--dets", str(dets), "--data", data]) in (0, 2, 3)

    run()


def test_config_comments_and_blanks_ignored():
    mkw, tkw = parse_config_text("# comment\n\nsteps = 7  # trailing\n")
    assert tkw == {"steps": 7}
    assert mkw == {}


# ---------------------------------------------------------------------------
# mutation sensitivity: the integer-shift oracle must pin the offset layout


def test_shift_oracle_distinguishes_offset_axes():
    # a bug that swaps the dy/dx channel interpretation survives the
    # zero-offset test; a one-pixel horizontal shift exposes it
    r = rng(6)
    x = r.normal(size=(1, 1, 6, 6)).astype(np.float32)
    w = Tensor(r.normal(size=(1, 1, 1, 1)).astype(np.float32))
    offs_dx = np.zeros((1, 2, 6, 6), dtype=np.float32)
    offs_dx[:, 1] = 1.0
    offs_dy = np.zeros((1, 2, 6, 6), dtype=np.float32)
    offs_dy[:, 0] = 1.0
    out_dx = deformable_conv2d(Tensor(x), w, None, Tensor(offs_dx), 1, 0).data
    out_dy = deformable_conv2d(Tensor(x), w, None, Tensor(offs_dy), 1, 0).data
    assert not np.allclose(out_dx, out_dy)
    # and the dx variant matches a genuine column shift
    want = np.roll(x, -1, axis=3)
    np.testing.assert_allclose(out_dx[:, :, :, :5], w.data[0, 0, 0, 0] * want[:, :, :, :5],
                               rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# patch overlay rendering


def test_overlay_zero_offsets_red_covers_blue_and_dims_match():
    from mambafuse.viz import BLUE, RED, visualize_patches
    model = build_detector(tiny_config(), seed=0)
    r = rng(40)
    rgb = r.uniform(0.3, 0.7, size=(3, 128, 128))
    ir = r.uniform(0.3, 0.7, size=(1, 128, 128))
    canvas = visualize_patches(model, rgb.astype(np.float32),
                               ir.astype(np.float32), None)
    assert canvas.shape == rgb.shape
    # offset conv is zero-initialized, so adaptive points land exactly on
    # the lattice: red overpaints every blue point
    assert not np.any(np.all(canvas == BLUE[:, None, None], axis=0))
    assert np.any(np.all(canvas == RED[:, None, None], axis=0))


def test_overlay_paints_dx_offset_two_cells_right():
    from mambafuse.viz import BLUE, RED, visualize_patches
    cfg = tiny_config()
    model = build_detector(cfg, seed=0)
    # force a constant (+0, +2) offset on the rendered stage
    model.mdtmb.stage1.dtmb.offset_conv.bias.data[1::2] = 2.0
    r = rng(41)
    rgb = r.uniform(0.3, 0.7, size=(3, 128, 128))
    ir = r.uniform(0.3, 0.7, size=(1, 128, 128))
    canvas = visualize_patches(model, rgb.astype(np.float32),
                               ir.astype(np.float32), None)
    # site (0,0), tap (1,1): lattice grid point (0,0) paints at image pixel
    # (2,2); the +2 offset moves the red point two grid cells right
    s = cfg.ffar_stride
    assert np.array_equal(canvas[:, s // 2, s // 2], BLUE)
    assert np.array_equal(canvas[:, s // 2, s // 2 + 2 * s], RED)


# ---------------------------------------------------------------------------
# self-check registry


def test_run_checks_reports_one_line_per_property():
    lines = []
    ok = run_checks(report=lines.append)
    assert ok
    assert len(lines) == len(PROPERTIES)
    assert all(line.startswith("PASS ") for line in lines)


def test_run_checks_flags_failures_without_stopping():
    from mambafuse import checks as checks_mod

    def boom():
        raise AssertionError("deliberate")

    lines = []
    orig = checks_mod.PROPERTIES
    checks_mod.PROPERTIES = [("boom", boom)] + orig[:1]
    try:
        ok = checks_mod.run_checks(report=lines.append)
    finally:
        checks_mod.PROPERTIES = orig
    assert not ok
    assert lines[0].startswith("FAIL boom")
    assert len(lines) == 2


def test_every_config_field_is_read_by_the_program():
    # a field that no module reads is a knob that changes nothing; threads is
    # inert until the benchmark's threads workload goes (ROADMAP item 1)
    read = set()
    for path in Path(mambafuse.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = {f.name for cls in (ModelConfig, TrainConfig)
              for f in dataclasses.fields(cls)}
    assert fields - read == {"threads"}


def test_source_modules_use_every_import():
    # a name a module imports but never reads; names in __all__ are re-exports
    unused = []
    for path in sorted(Path(mambafuse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {e.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in n.targets)
                 for e in n.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, f"unused imports: {unused}"


def test_source_defines_nothing_unreferenced():
    # a public module-level function or class that no source module, the
    # benchmark or the acceptance suite reads is dead weight;
    # config.dump_config is kept for the config round-trip tests
    root = Path(__file__).resolve().parent.parent
    readers = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    read = set()
    for path in readers + [root / "tests" / "test_acceptance.py"]:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = {f"{path.stem}.{n.name}"
              for path in (root / "src" / "mambafuse").glob("*.py")
              for n in ast.parse(path.read_text()).body
              if isinstance(n, (ast.FunctionDef, ast.ClassDef))
              and not n.name.startswith("_") and n.name not in read}
    assert unread == {"config.dump_config"}
