"""Disk formats for real-valued grids.

Two formats are supported:

* 16-bit binary portable graymap (``.pgm``, magic P5, maxval 65535,
  big-endian samples). Values are linearly scaled into the file range and
  the scale factor is recorded in a ``<name>.json`` sidecar so the float
  grid can be recovered (up to 16-bit quantization).
* raw float32 grid (``.f32``): magic ``FGR1``, little-endian uint32 width
  and height, then row-major float32 samples. Lossless at float32.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError
from .tables import read_json

FLOAT_GRID_MAGIC = b"FGR1"
PGM_MAXVAL = 65535


def write_float_grid(path, values) -> None:
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 2:
        raise InputError("write_float_grid expects a 2-D grid")
    h, w = v.shape
    with open(path, "wb") as f:
        f.write(FLOAT_GRID_MAGIC)
        f.write(struct.pack("<II", w, h))
        f.write(v.tobytes(order="C"))


def read_float_grid(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != FLOAT_GRID_MAGIC:
            raise FormatError(f"{path}: bad float-grid magic {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise FormatError(f"{path}: truncated float-grid header")
        w, h = struct.unpack("<II", header)
        data = np.frombuffer(f.read(), dtype=np.float32)
    if data.size != w * h:
        raise FormatError(f"{path}: expected {w * h} samples, found {data.size}")
    return data.reshape(h, w).astype(float)


def write_pgm16(path, values) -> None:
    """Write a grid as binary PGM, recording the value scale in a sidecar.

    The grid maximum is mapped to the top of the 16-bit range (identity
    scale for an all-zero grid).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise InputError("write_pgm16 expects a 2-D grid")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise InputError("write_pgm16 expects finite non-negative values")
    vmax = float(v.max())
    scale = PGM_MAXVAL / vmax if vmax > 0 else 1.0
    stored = np.round(v * scale)
    if stored.max(initial=0) > PGM_MAXVAL:
        raise InputError("scaled values exceed the 16-bit graymap range")
    h, w = v.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii"))
        f.write(stored.astype(">u2").tobytes(order="C"))
    sidecar = {"scale": scale, "width": w, "height": h}
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, sort_keys=True)
        f.write("\n")


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM written by ``write_pgm16``; values are divided by
    the sidecar scale when one is present."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        fields = []
        pos = 0
        while len(fields) < 4:
            while pos < len(data) and data[pos:pos + 1].isspace():
                pos += 1
            if data[pos:pos + 1] == b"#":  # comment line
                pos = data.index(b"\n", pos) + 1
                continue
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
        pos += 1  # single whitespace after maxval
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary graymap (magic {fields[0]!r})")
    if not all(x.isdigit() and int(x) > 0 for x in fields[1:]):
        raise FormatError(f"{path}: PGM header fields must be positive integers, "
                          f"got {b' '.join(fields[1:])!r}")
    w, h, maxval = (int(x) for x in fields[1:])
    if maxval != PGM_MAXVAL:
        raise FormatError(f"{path}: expected 16-bit maxval, got {maxval}")
    raw = np.frombuffer(data[pos:], dtype=">u2")
    if raw.size != w * h:
        raise FormatError(f"{path}: expected {w * h} samples, found {raw.size}")
    grid = raw.reshape(h, w).astype(float)
    sidecar_path = Path(str(path) + ".json")
    if sidecar_path.exists():
        grid /= _sidecar_scale(sidecar_path)
    return grid


def _sidecar_scale(path) -> float:
    """The ``scale`` of a PGM sidecar; FormatError unless the file is a
    JSON object whose ``scale`` is a finite, positive number."""
    doc = read_json(path)
    scale = doc.get("scale") if isinstance(doc, dict) else None
    try:
        value = float(scale) if type(scale) in (int, float) else math.nan  # not bool
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not 0 < value < math.inf:
        raise FormatError(f"{path}: sidecar needs a finite, positive number "
                          f"'scale', got {scale!r}")
    return value


def read_map(path) -> np.ndarray:
    """Dispatch on extension: .pgm or .f32."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        return read_pgm16(path)
    if suffix == ".f32":
        return read_float_grid(path)
    raise FormatError(f"{path}: unsupported map extension {suffix!r}")


def write_map(path, values) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        write_pgm16(path, values)
    elif suffix == ".f32":
        write_float_grid(path, values)
    else:
        raise FormatError(f"{path}: unsupported map extension {suffix!r}")
