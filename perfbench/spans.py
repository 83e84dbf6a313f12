"""Span tracer that times mambafuse layers from outside the program.

``Tracer.install`` wraps the public functions, ``Module.__call__`` (and the
other public methods of each ``Module`` subclass) and the ``SGD`` methods of
the traced modules, and rebinds every module-level name that refers to an
original, so calls are timed wherever they are looked up.  It also wraps
``autodiff._record`` so each tape node's backward closure is timed and
attributed to the forward span that recorded it.  ``uninstall`` restores
every original.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

TRACED_MODULES = ("autodiff", "ssm", "deformable", "attention", "network",
                  "detect", "train", "data", "checkpoint", "model")

# tiny helpers that are not layers; wrapping them would only add overhead
_SKIP = {"autodiff.default_dtype", "autodiff.set_default_dtype",
         "autodiff.precision", "autodiff.no_grad", "autodiff.current_tape",
         "autodiff.reset_tape", "autodiff.conv_out_size",
         "autodiff.grad_check"}
# private functions that are still layer boundaries
_KEEP_PRIVATE = {"train._sharded_loss"}


def _nms_counts(args, kwargs, result):
    return {"candidates": len(args[0]), "kept": len(result)}


def _backward_counts(args, kwargs, result):
    return {"tape_nodes": len(args[0])}


_COUNTERS = {"detect.nms": _nms_counts, "autodiff.backward": _backward_counts}


class Span:
    """One timed call.  ``kind`` is 'fwd' for a wrapped call and 'bw' for a
    backward closure; a 'bw' span's ``origin`` is the forward span that
    recorded its tape node."""

    __slots__ = ("sid", "name", "kind", "parent", "origin", "op", "tid",
                 "start", "end", "counts")

    def __init__(self, sid, name, kind, parent, op, tid, start=0.0, end=0.0,
                 origin=None, counts=None):
        self.sid = sid
        self.name = name
        self.kind = kind
        self.parent = parent
        self.op = op
        self.tid = tid
        self.start = start
        self.end = end
        self.origin = origin
        self.counts = counts

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"            # id of the step or pair being run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
            return stack

    def _parent(self, stack):
        if stack:
            return stack[-1].sid
        # a worker thread's outermost span was caused by whatever the main
        # thread is waiting in (e.g. train._sharded_loss joining its shards)
        main = self._main_stack
        return main[-1].sid if main else None

    def _wrap(self, name, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sp = Span(next(tracer._ids), name, "fwd", tracer._parent(stack),
                      tracer.op, threading.get_ident())
            stack.append(sp)
            sp.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                stack.pop()
                tracer.spans.append(sp)
            if counter is not None:
                sp.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(out, parents, fn):
            stack = tracer._stack()
            origin = stack[-1] if stack else None
            label = origin.name if origin else "autodiff._record"
            origin_id = origin.sid if origin else None

            def timed(gy):
                st = tracer._stack()
                sp = Span(next(tracer._ids), label, "bw", tracer._parent(st),
                          tracer.op, threading.get_ident(), origin=origin_id)
                sp.start = perf_counter()
                try:
                    return fn(gy)
                finally:
                    sp.end = perf_counter()
                    tracer.spans.append(sp)

            return record(out, parents, timed)

        return traced_record

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        nn = importlib.import_module("mambafuse.nn")
        train_mod = importlib.import_module("mambafuse.train")
        autodiff = importlib.import_module("mambafuse.autodiff")
        replace = {autodiff._record: self._wrap_record(autodiff._record)}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"mambafuse.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if ((attr.startswith("_") and name not in _KEEP_PRIVATE)
                            or name in _SKIP or _is_lazy(obj)):
                        continue
                    replace[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and (
                        issubclass(obj, nn.Module) or obj is train_mod.SGD):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth) or _is_lazy(meth):
                            continue
                        if mname == "__call__":
                            label = name
                        elif not mname.startswith("_"):
                            label = f"{name}.{mname}"
                        else:
                            continue
                        self._patch(obj, mname, self._wrap(label, meth))
        # rebind every module-level reference, e.g. mambafuse.ssm._record or
        # the names train.py imported from detect and data
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mambafuse" or modname.startswith("mambafuse.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patch(mod, attr, replace[obj])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _is_lazy(fn) -> bool:
    # generators and context managers return before their body has run
    return inspect.isgeneratorfunction(fn) or hasattr(fn, "__wrapped__")


# ---------------------------------------------------------------------------
# analysis

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it that its child spans cover
    (children on other threads may overlap each other)."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(sp.sid, ())]
        out[sp.sid] = sp.dur - covered([k for k in kids if k[1] > k[0]])
    return out


def _ancestors(by_id, sid) -> list:
    """Distinct names on the chain from sid up to the root, sid included."""
    names = []
    while sid is not None:
        sp = by_id.get(sid)
        if sp is None:
            break
        if sp.name not in names:
            names.append(sp.name)
        sid = sp.parent
    return names


def layer_table(spans, ops=None) -> dict:
    """Per layer name, totals over the spans of the given ops (all when
    None): calls, fwd (outermost calls only), bwd (closures of the tape
    nodes the layer's calls recorded), self time and summed counters."""
    if ops is not None:
        ops = set(ops)
        spans = [sp for sp in spans if sp.op in ops]
    by_id = {sp.sid: sp for sp in spans}
    selfs = self_times(spans)
    rows: dict = {}

    def row(name):
        r = rows.get(name)
        if r is None:
            r = rows[name] = {"calls": 0, "fwd": 0.0, "bwd": 0.0, "self": 0.0,
                              "counts": {}}
        return r

    for sp in spans:
        if sp.kind == "bw":
            # a backward closure counts as backward time of every layer that
            # was on the stack when its tape node was recorded
            for name in _ancestors(by_id, sp.origin):
                row(name)["bwd"] += sp.dur
            continue
        r = row(sp.name)
        r["calls"] += 1
        r["self"] += selfs[sp.sid]
        if sp.name not in _ancestors(by_id, sp.parent):
            r["fwd"] += sp.dur
        for k, v in (sp.counts or {}).items():
            r["counts"][k] = r["counts"].get(k, 0) + v
    return rows


def time_outside(spans, ops, name, excluded) -> float:
    """Forward time of the outermost ``name`` spans of the given ops minus
    the time of the outermost ``excluded``-named spans nested in them."""
    ops = set(ops)
    spans = [sp for sp in spans if sp.op in ops and sp.kind == "fwd"]
    by_id = {sp.sid: sp for sp in spans}
    total = 0.0
    for sp in spans:
        up = _ancestors(by_id, sp.parent)
        if sp.name == name and name not in up:
            total += sp.dur
        elif sp.name in excluded and name in up and not set(excluded) & set(up):
            total -= sp.dur
    return total


def concurrency(spans, op, name="train.compute_batch_loss") -> float:
    """Summed duration of ``name`` spans in one op over the wall time from
    the first one's start to the last one's end (1.0 when they run one at a
    time, up to the thread count when they fully overlap)."""
    sel = [sp for sp in spans if sp.op == op and sp.name == name and sp.kind == "fwd"]
    if not sel:
        return 0.0
    wall = max(sp.end for sp in sel) - min(sp.start for sp in sel)
    return sum(sp.dur for sp in sel) / wall if wall > 0 else 0.0


def chrome_trace(spans, op) -> dict:
    """Chrome trace-event JSON (open in Perfetto) for the spans of one op."""
    sel = [sp for sp in spans if sp.op == op]
    t0 = min((sp.start for sp in sel), default=0.0)
    tids = {}
    events = []
    for sp in sorted(sel, key=lambda s: (s.start, -s.end)):
        tid = tids.setdefault(sp.tid, len(tids) + 1)
        ev = {"name": sp.name + (" [bw]" if sp.kind == "bw" else ""),
              "cat": sp.kind, "ph": "X", "pid": 1, "tid": tid,
              "ts": round((sp.start - t0) * 1e6, 3),
              "dur": round(sp.dur * 1e6, 3), "args": {"op": sp.op}}
        if sp.counts:
            ev["args"].update(sp.counts)
        events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans, op) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, op), f)
