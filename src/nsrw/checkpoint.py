"""Binary state checkpoints with a bit-exact round trip.

Version 3 layout, all little-endian: magic "NSRW", version u32, d u32,
N u32, then L, t, cutoff as f64; then the fingerprint, a u32 byte count
followed by that many bytes of canonical JSON (sorted keys, no spaces)
naming the settings that fix the trajectory; then the band radius k as
u32, k <= N/2; then the payload, the state on the cube |k_i| <= k of the
rfft half lattice (spectral.HalfLattice.band), zero off it: each of the d
components' complex coefficients, shape (min(2k+1, N), ...,
min(2k+1, N), min(k, N/2) + 1), as interleaved (re, im) f64 pairs in
row-major order (rows 0..k, -k..-1 in FFT order on every axis but the
last, which runs 0..min(k, N/2)). solve's snapshots hold the cube around
the cutoff ball: 86.7 KB at d=3 N=32 instead of the 836 KB of the whole
half lattice. The last-axis plane 0, and plane N/2 when the band holds
it, are their own mirror images and must be conjugate-symmetric.

Versions 1 and 2 are refused: no writer has produced them since version
3, and the fingerprint every version-3 file carries pins d, N, L and the
cutoff.

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

from .spectral import Grid, band_shape, make_grid

MAGIC = b"NSRW"
VERSION = 3
_HEADER = struct.Struct("<4sIIIddd")
_U32 = struct.Struct("<I")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _canonical(fingerprint: dict) -> bytes:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def save_checkpoint(grid: Grid, w_band: np.ndarray, t: float, cutoff: float,
                    fingerprint: dict, path: str | Path) -> None:
    """Write the band array w_band, one component per dimension on the cube
    |k_i| <= k of grid.half (a whole half spectrum is the band of radius
    N/2), as a version-3 checkpoint; k is read off its last axis. Its plane
    0 (and N/2) must be conjugate-symmetric, as the snapshots of solve are."""
    k = grid.half.require_real_band("a checkpointed state", w_band)
    header = _HEADER.pack(MAGIC, VERSION, grid.d, grid.N, grid.L, float(t), float(cutoff))
    fp = _canonical(fingerprint)
    payload = np.ascontiguousarray(w_band).astype("<c16", copy=False).tobytes()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(header + _U32.pack(len(fp)) + fp + _U32.pack(k) + payload)
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
    """Read a version-3 checkpoint; returns (w_band, t, cutoff) with the
    band array as stored (see save_checkpoint).

    With expect_fingerprint, a file whose fingerprint differs is refused,
    naming the first differing setting and both values.
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
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if d not in (2, 3) or N % 2 != 0 or N < 8 or not L > 0:
        raise CheckpointError(f"checkpoint header names no valid grid: d={d}, N={N}, L={L}")
    pos = _HEADER.size
    if len(blob) < pos + _U32.size:
        raise CheckpointError("checkpoint truncated: fingerprint length missing")
    (n,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    try:
        fingerprint = json.loads(blob[pos : pos + n].decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint fingerprint unreadable: {exc}") from None
    if not isinstance(fingerprint, dict):
        raise CheckpointError("checkpoint fingerprint is not a JSON object")
    pos += n
    if len(blob) < pos + _U32.size:
        raise CheckpointError("checkpoint truncated: band radius missing")
    (k,) = _U32.unpack_from(blob, pos)
    pos += _U32.size
    if k > N // 2:
        raise CheckpointError(
            f"checkpoint band radius k={k} exceeds the half lattice's N/2 = {N // 2}"
        )
    # the payload is sized from the header before any grid array is built
    shape = band_shape(d, N, k)
    expected = math.prod(shape) * 16
    payload = blob[pos:]
    if len(payload) != expected:
        raise CheckpointError(
            f"checkpoint truncated: expected {expected} payload bytes, got {len(payload)}"
        )
    if expect_fingerprint is not None:
        _check_fingerprint(fingerprint, expect_fingerprint)
    w_band = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(np.complex128)
    try:
        make_grid(d, N, L).half.require_real_band("checkpoint payload", w_band)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    return w_band, float(t), float(cutoff)
