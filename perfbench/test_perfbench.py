"""Tests of the benchmark's own code.  Run: python3 -m pytest -q perfbench"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def _span(sid, name, parent, start, end, kind="fwd", op=1, origin=None, tid=1):
    return Span(sid, name, kind, parent, op, tid, start=start, end=end, origin=origin)


# ---------------------------------------------------------------------------
# percentile rule

def test_percentile_nearest_rank_hand_cases():
    ten = [7, 1, 9, 3, 10, 2, 8, 4, 6, 5]
    assert wl.percentile(ten, 50) == 5
    assert wl.percentile(ten, 90) == 9
    assert wl.percentile(ten, 91) == 10
    assert wl.percentile(ten, 100) == 10
    assert wl.percentile(ten, 0) == 1
    assert wl.percentile([4.5], 90) == 4.5
    assert wl.percentile([3, 1, 2], 50) == 2
    assert wl.percentile([1, 2, 3, 4], 50) == 2      # a value, not a midpoint
    with pytest.raises(ValueError):
        wl.percentile([], 50)


# ---------------------------------------------------------------------------
# self time and attribution

def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0
    assert spans.covered([(1, 4), (3, 6), (8, 9)]) == 6
    assert spans.covered([(0, 10), (2, 3)]) == 10


def test_self_time_on_hand_built_tree():
    tree = [
        _span(1, "root", None, 0.0, 10.0),
        _span(2, "a", 1, 1.0, 4.0),
        _span(3, "b", 1, 3.0, 6.0, tid=2),     # overlaps a: another thread
        _span(4, "c", 2, 2.0, 3.0),
        _span(5, "late", 1, 9.0, 12.0, tid=2),  # ends after its parent
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10 - 5 - 1)   # union [1,6] plus [9,10]
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(3)
    assert selfs[4] == pytest.approx(1)
    assert selfs[5] == pytest.approx(3)


def test_layer_table_counts_outermost_forward_and_attributes_backward():
    tree = [
        _span(1, "blk", None, 0.0, 10.0),
        _span(2, "blk", 1, 1.0, 5.0),           # nested same name: not re-counted
        _span(3, "op", 2, 2.0, 3.0),
        _span(4, "backward", None, 20.0, 30.0),
        _span(5, "op", 4, 21.0, 25.0, kind="bw", origin=3),
        _span(6, "other", None, 40.0, 41.0, op=2),   # op 2 is not selected
    ]
    rows = spans.layer_table(tree, [1])
    assert rows["blk"]["calls"] == 2
    assert rows["blk"]["fwd"] == pytest.approx(10)
    assert rows["blk"]["self"] == pytest.approx((10 - 4) + (4 - 1))
    assert rows["op"]["calls"] == 1 and rows["op"]["fwd"] == pytest.approx(1)
    # the closure of op's tape node counts for op and every layer around it
    assert rows["op"]["bwd"] == pytest.approx(4)
    assert rows["blk"]["bwd"] == pytest.approx(4)
    assert rows["backward"]["self"] == pytest.approx(10 - 4)
    assert "other" not in rows


def test_time_outside_and_concurrency():
    tree = [
        _span(1, "scan4", None, 0.0, 10.0),
        _span(2, "core", 1, 1.0, 4.0),
        _span(3, "proj", 1, 5.0, 6.0),
        _span(4, "core", 3, 5.2, 5.5),           # inside an excluded span
        _span(5, "cbl", None, 0.0, 4.0, tid=1),
        _span(6, "cbl", None, 1.0, 5.0, tid=2),
    ]
    assert spans.time_outside(tree, [1], "scan4", ("core", "proj")) == pytest.approx(6)
    assert spans.concurrency(tree, 1, "cbl") == pytest.approx(8 / 5)
    assert spans.concurrency(tree, 1, "missing") == 0.0


def test_chrome_trace_holds_one_op_as_complete_events():
    tree = [_span(1, "a", None, 5.0, 5.5), _span(2, "a", None, 6.0, 6.1, kind="bw"),
            _span(3, "b", None, 9.0, 9.5, op=2)]
    events = spans.chrome_trace(tree, 1)["traceEvents"]
    assert [e["name"] for e in events] == ["a", "a [bw]"]
    assert all(e["ph"] == "X" for e in events)
    assert events[0]["ts"] == 0 and events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["ts"] == pytest.approx(1e6)


# ---------------------------------------------------------------------------
# wrappers

def test_install_wraps_call_sites_and_uninstall_restores_them():
    import mambafuse.autodiff as ad
    import mambafuse.ssm as ssm
    train_mod = wl.train_mod
    originals = (ad._record, ssm._record, ssm.ssm_scan_core,
                 train_mod.compute_batch_loss, train_mod.total_loss,
                 ssm.MambaBlock.__call__, train_mod.SGD.step)
    tracer = Tracer()
    tracer.install()
    try:
        assert ssm._record is ad._record and ad._record is not originals[0]
        assert ssm.ssm_scan_core is not originals[2]
        assert train_mod.total_loss is not originals[4]
        assert ssm.MambaBlock.__call__ is not originals[5]
    finally:
        tracer.uninstall()
    assert (ad._record, ssm._record, ssm.ssm_scan_core, train_mod.compute_batch_loss,
            train_mod.total_loss, ssm.MambaBlock.__call__, train_mod.SGD.step) == originals


class _StepClock(wl.Clock):
    """Ends the timed phase after a fixed number of steps."""

    def __init__(self, steps, tracer=None):
        super().__init__(1e9, wl.SpeedProbe((4, 64, 8, 4)), tracer, untraced_share=0.0)
        self.left = steps + 1

    def done(self):
        self.left -= 1
        return self.left <= 0


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_run_logs_bit_identical_loss_lines(tmp_path, threads):
    from mambafuse.config import tiny_config
    spec = wl.Spec("t", "train", lambda: tiny_config(input_size=64), 64, probe_ref_ms=1.0,
                   batch=2, threads=threads)
    runs = []
    for traced in (False, True):
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        lines, out = [], wl.Outcome()
        try:
            wl.run_train(spec, 5, tmp_path / str(traced), _StepClock(3, tracer), out,
                         log_lines=lines)
        finally:
            if tracer:
                tracer.uninstall()
        assert out.failed == 0 and out.checks_ok and out.attempted == 3
        runs.append((lines, tracer))
    (plain, _), (traced_lines, tracer) = runs
    assert len(plain) == wl.SETUP_REPEATS + 3
    assert traced_lines == plain
    # every timed step after the first was traced, set-up too
    ops = {sp.op for sp in tracer.spans}
    assert {"setup", 1, 2, 3, "teardown"} <= ops
    rows = spans.layer_table(tracer.spans, [2])
    assert rows["autodiff.backward"]["counts"]["tape_nodes"] > 0
    assert rows["ssm.ssm_scan_core"]["bwd"] > 0


# ---------------------------------------------------------------------------
# output checks

def test_check_loss_line():
    assert wl.check_loss_line("3 13.7 6.4 0.99 2.0 0.01", 3) is None
    assert "numbered" in wl.check_loss_line("4 13.7 6.4 0.99 2.0 0.01", 3)
    assert "non-finite" in wl.check_loss_line("3 nan 6.4 0.99 2.0 0.01", 3)
    assert "malformed" in wl.check_loss_line("3 13.7", 3)


def test_check_detection_lines():
    ok = "scene_000 2 0.010000 0.500000 0.250000 3.500000 0.100000"
    assert wl.check_detection_lines([ok], 5) is None
    assert wl.check_detection_lines([], 5) is not None
    bad = [ok.replace(" 2 ", " 5 "), ok.replace("0.010000", "0.001000"),
           ok.replace("0.500000", "1.500000"), ok.replace("0.100000", "0.000000"),
           ok.replace("0.250000", "nan")]
    for line in bad:
        assert wl.check_detection_lines([line], 5) is not None, line
