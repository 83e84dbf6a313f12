"""Named-tensor container: text manifest + raw little-endian float32 payload.

Layout:
    line 0:            ``tensors <count>``
    next <count> lines: ``<name> <rank> <extent0> <extent1> ...``
    then:              the tensors' float32 values, little-endian, row-major,
                       in manifest order.

Round-trips are bit-exact.
"""

from __future__ import annotations

import numpy as np


class CheckpointError(RuntimeError):
    pass


def save(path, tensors: dict[str, np.ndarray]) -> None:
    names = list(tensors)
    lines = [f"tensors {len(names)}"]
    for name in names:
        arr = np.asarray(tensors[name])
        lines.append(f"{name} {arr.ndim} " + " ".join(str(e) for e in arr.shape))
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for name in names:
            f.write(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())


def load(path) -> dict[str, np.ndarray]:
    """Read a container written by ``save``.  Any malformed header, manifest
    or payload raises ``CheckpointError``."""
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def next_line() -> list[str]:
        # one manifest line from ``pos`` on; the payload is never copied
        nonlocal pos
        end = blob.find(b"\n", pos)
        if end < 0:
            end = len(blob)
        line = blob[pos:end]
        pos = end + 1
        return line.decode("ascii").split()

    try:
        kind, count_s = next_line()
        if kind != "tensors":
            raise ValueError(kind)
        count = int(count_s)
    except ValueError as e:
        raise CheckpointError(f"bad container header in {path}") from e
    entries = []
    for i in range(count):
        try:
            fields = next_line()
            name, rank = fields[0], int(fields[1])
            shape = tuple(int(x) for x in fields[2:])
        except (ValueError, IndexError) as e:
            raise CheckpointError(f"bad manifest line {i + 1} of {count} in {path}") from e
        if len(shape) != rank:
            raise CheckpointError(f"manifest rank mismatch for tensor {name!r}")
        if min(shape, default=0) < 0:
            raise CheckpointError(f"negative extent for tensor {name!r}")
        entries.append((name, shape))
    out = {}
    for name, shape in entries:
        n = int(np.prod(shape)) if shape else 1
        if len(blob) - pos < 4 * n:
            raise CheckpointError(f"truncated payload at tensor {name!r}")
        out[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(shape).copy()
        pos += 4 * n
    if pos != len(blob):
        raise CheckpointError(f"trailing bytes after last tensor in {path}")
    return out
