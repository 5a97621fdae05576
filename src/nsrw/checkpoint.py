"""Binary state checkpoints with a bit-exact round trip.

Version 2 layout, all little-endian: magic "NSRW", version u32, d u32,
N u32, then L, t, cutoff as f64; then the fingerprint, a u32 byte count
followed by that many bytes of canonical JSON (sorted keys, no spaces)
naming the settings that fix the trajectory; then the payload, the rfft
half spectrum of the state: each of the d components' complex
coefficients on the half lattice, shape (N, ..., N, N/2 + 1), as
interleaved (re, im) f64 pairs in row-major order (standard FFT layout on
every axis but the last, which runs 0..N/2). The last-axis planes 0 and
N/2 are their own mirror images and must be conjugate-symmetric.

Version 1 files (the same header, no fingerprint, the full N^d spectrum
as payload) are still read, never written.

Files are replaced atomically: a reader sees either the previous file or
the complete new one, also when the writing process is killed. There is
no fsync, so a file is not durable against a power loss; a truncated
file is refused on load.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .spectral import HERMITIAN_RTOL, Grid, fourier_field, make_grid

MAGIC = b"NSRW"
VERSION = 2
_HEADER = struct.Struct("<4sIIIddd")
_LENGTH = struct.Struct("<I")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _canonical(fingerprint: dict) -> bytes:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def save_checkpoint(grid: Grid, w_half: np.ndarray, t: float, cutoff: float,
                    fingerprint: dict, path: str | Path) -> None:
    """Write the half spectrum w_half, shape (d,) + grid.half.shape, as a
    version-2 checkpoint. Its planes 0 and N/2 must be conjugate-symmetric,
    as the snapshots of solve are; load_checkpoint refuses them otherwise."""
    if w_half.shape != (grid.d,) + grid.half.shape:
        raise ValueError(
            f"checkpoints store one half spectrum per dimension, shape "
            f"{(grid.d,) + grid.half.shape}; got {w_half.shape}"
        )
    header = _HEADER.pack(MAGIC, VERSION, grid.d, grid.N, grid.L, float(t), float(cutoff))
    fp = _canonical(fingerprint)
    payload = np.ascontiguousarray(w_half).astype("<c16", copy=False).tobytes()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(header + _LENGTH.pack(len(fp)) + fp + payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_fingerprint(found: dict, expected: dict):
    expected = json.loads(_canonical(expected))
    for key in sorted(set(found) | set(expected)):
        a, b = found.get(key, "missing"), expected.get(key, "missing")
        if a != b:
            raise CheckpointError(
                f"checkpoint was written by a different run: {key!r} is {a!r} in "
                f"the checkpoint and {b!r} in the config"
            )


def load_checkpoint(path: str | Path, expect_fingerprint: dict | None = None):
    """Read a version-1 or version-2 checkpoint; returns (field, t, cutoff)
    with the full spectrum of the state.

    With expect_fingerprint, a version-2 file whose fingerprint differs is
    refused, naming the first differing setting and both values. Version-1
    files carry no fingerprint and are not checked.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from None
    if len(blob) < _HEADER.size:
        raise CheckpointError("checkpoint truncated: header incomplete")
    magic, version, d, N, L, t, cutoff = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version not in (1, VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if d not in (2, 3) or N % 2 != 0 or N < 8 or not L > 0:
        raise CheckpointError(f"checkpoint header names no valid grid: d={d}, N={N}, L={L}")
    pos = _HEADER.size
    if version == 1:
        shape = (d,) + (N,) * d
    else:
        if len(blob) < pos + _LENGTH.size:
            raise CheckpointError("checkpoint truncated: fingerprint length missing")
        (n,) = _LENGTH.unpack_from(blob, pos)
        pos += _LENGTH.size
        try:
            fingerprint = json.loads(blob[pos : pos + n].decode())
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint fingerprint unreadable: {exc}") from None
        if not isinstance(fingerprint, dict):
            raise CheckpointError("checkpoint fingerprint is not a JSON object")
        pos += n
        shape = (d,) + (N,) * (d - 1) + (N // 2 + 1,)
    # the payload is sized from the header before any grid array is built
    expected = math.prod(shape) * 16
    payload = blob[pos:]
    if len(payload) != expected:
        raise CheckpointError(
            f"checkpoint truncated: expected {expected} payload bytes, got {len(payload)}"
        )
    grid = make_grid(d, N, L)
    data = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(np.complex128)
    if version == 1:
        return fourier_field(grid, data), float(t), float(cutoff)
    if expect_fingerprint is not None:
        _check_fingerprint(fingerprint, expect_fingerprint)
    asym = grid.half.plane_asymmetry(data)
    if asym > HERMITIAN_RTOL:
        raise CheckpointError(
            f"checkpoint payload is not a real field's half spectrum: its last-axis "
            f"planes 0 and N/2 are not conjugate-symmetric (largest asymmetry "
            f"{asym:.3e} of its largest coefficient, tolerance {HERMITIAN_RTOL:g})"
        )
    return fourier_field(grid, grid.half.expand(data)), float(t), float(cutoff)
