"""Binary state checkpoints with a bit-exact round trip.

Version 5 layout, all little-endian: magic "NSRW", version u32, d u32,
N u32, then L, t, cutoff as f64; then the fingerprint, a u32 byte count
followed by that many bytes of canonical JSON (sorted keys, no spaces)
naming the settings that fix the trajectory; then the band radius k as
u32, the radius of the cutoff ball's cube: k = ceil(cutoff L / 2 pi) - 1,
at most N/2 (spectral.Grid.ball_radius); then the payload, the
state's coefficients in the ball |xi| < cutoff and nothing else. The state
is a band array on the cube |k_i| <= k of the rfft half lattice
(spectral.Grid.band): each of the d components, shape
(min(2k+1, N), ..., min(2k+1, N), min(k, N/2) + 1), rows 0..k, -k..-1 in
FFT order on every axis but the last, which runs 0..min(k, N/2).

The last-axis plane 0, and plane N/2 when the band holds it, are their
own mirror images: a real field's coefficients there are
conjugate-symmetric, a(-xi) = conj a(xi), so one member of each mirror
pair fixes the other. For each component in turn, the payload holds the
entries of that array where Grid.band_kabs(k) < cutoff (the stepper's own
ball mask), less, on each self-mirrored plane, the member of every mirror
pair whose flattened plane index is the larger, in row-major order, as
interleaved (re, im) f64 pairs; the self-mirrored modes (xi = 0 when the
cube stays inside the 2/3 band) are stored. The values are those of
Grid.symmetrize(w_band). Loading puts them back on the cube, rebuilds
each dropped partner as the conjugate of its stored mirror and leaves
zero off the ball, so a load returns symmetrize(w_band) value for value
(a zero may come back with the other sign): w_band itself for solve's
snapshots, which are symmetrized and zero off the ball by construction. At d=3 N=32 and the default cutoff 8 the ball
holds 1,148 of the cube's 1,800 modes per component, 193 of them on
plane 0, of which 96 are dropped partners, so a file is 50,808 bytes;
storing both partners took 55,416, the cube would take 86,712 and the
whole half lattice 836 KB.

Versions 1 to 4 are refused: no writer has produced them since version 5,
and the fingerprint every version-5 file carries pins d, N, L and the
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

from .spectral import Grid, _conjugate_mirror, band_shape, make_grid

MAGIC = b"NSRW"
VERSION = 5
_HEADER = struct.Struct("<4sIIIddd")
_U32 = struct.Struct("<I")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _canonical(fingerprint: dict) -> bytes:
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _least_ball_modes(grid: Grid, cutoff: float) -> int:
    """A lower bound on the modes a file stores per component of the ball
    |xi| < cutoff, built from no array: the ball holds the cube |k_i| <= m
    whole (Grid.ball_radius over all d axes, m <= N/2 - 1). That cube has
    (2m + 1)^(d-1) modes on each of its planes 1..m, all stored, and as
    many on plane 0, whose only self-mirrored mode is xi = 0: one of each
    of their mirror pairs and xi = 0 are stored."""
    d, N = grid.d, grid.N
    m = min(grid.ball_radius(cutoff, axes=d), N // 2 - 1)
    plane = (2 * m + 1) ** (d - 1)
    return plane * m + (plane + 1) // 2


def _stored_modes(grid: Grid, ball: np.ndarray) -> tuple:
    """The modes of the ball mask on its cube that a file stores, and the
    plane mask of the mirror partners it drops on each self-mirrored plane:
    the members of the mirror pairs whose flattened plane index exceeds
    their mirror's."""
    flat = np.arange(math.prod(ball.shape[:-1])).reshape(ball.shape[:-1])
    dropped = flat > _conjugate_mirror(flat, grid.d - 1)
    stored = ball.copy()
    for plane in grid._mirrored_planes(ball):
        stored[..., plane] &= ~dropped
    return stored, dropped


def _require_cutoff(cutoff: float):
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise CheckpointError(f"checkpoint cutoff must be a positive number, got {cutoff}")


def _require_time(t: float, what: str):
    """Refuse a time the loader would refuse: save and load share the rule."""
    if not (math.isfinite(t) and t >= 0):
        raise CheckpointError(f"{what} t={t} is not a finite number >= 0")


def save_checkpoint(grid: Grid, w_band: np.ndarray, t: float, cutoff: float,
                    fingerprint: dict, path: str | Path) -> None:
    """Write the band array w_band, one component per dimension on the cube
    |k_i| <= k of the half lattice that holds the ball |xi| < cutoff, as a
    version-5 checkpoint of its coefficients in the ball: those of
    Grid.symmetrize(w_band), one member of each mirror pair on the
    self-mirrored planes. It refuses a band whose radius k (read off its
    last axis) is not the ball's, a nonzero coefficient off the ball, a
    plane 0 (or N/2) that is not conjugate-symmetric within HERMITIAN_RTOL,
    and a time t that is not finite and >= 0, before it writes anything;
    the snapshots of solve pass all four, and are their own symmetrization."""
    cutoff = float(cutoff)
    _require_cutoff(cutoff)
    t = float(t)
    _require_time(t, "checkpoint time")
    k = grid.require_real_band("a checkpointed state", w_band)
    k_ball = grid.ball_radius(cutoff)
    if k != k_ball:
        raise ValueError(
            f"a checkpointed state must be the band of its cutoff ball: its radius is "
            f"k={k}, the ball |xi| < {cutoff:g} on a d={grid.d} N={grid.N} L={grid.L:g} "
            f"grid has k={k_ball}"
        )
    # the stepper's own ball mask, so the two agree bit for bit
    ball = grid.require_in_ball("a checkpointed state", w_band, cutoff, 0.0)
    header = _HEADER.pack(MAGIC, VERSION, grid.d, grid.N, grid.L, t, cutoff)
    fp = _canonical(fingerprint)
    stored, _ = _stored_modes(grid, ball)
    payload = grid.symmetrize(w_band)[:, stored].astype("<c16", copy=False).tobytes()
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
    """Read a version-5 checkpoint; returns (w_band, t, cutoff) with the
    band array of the cutoff ball's cube, zero off the ball, each dropped
    mirror partner the conjugate of its stored mirror: the
    Grid.symmetrize of the band that was saved, value for value (see
    save_checkpoint).

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
    if d not in (2, 3) or N % 2 != 0 or N < 8 or not (math.isfinite(L) and L > 0):
        raise CheckpointError(f"checkpoint header names no valid grid: d={d}, N={N}, L={L}")
    _require_time(t, "checkpoint header time")
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
    _require_cutoff(cutoff)
    # up to the ball mask every check is arithmetic on single frequencies,
    # so a header naming a huge N builds nothing before its payload is known
    grid = make_grid(d, N, L)
    k_ball = grid.ball_radius(cutoff)
    if k != k_ball:
        raise CheckpointError(
            f"checkpoint band radius k={k} is not that of its cutoff ball |xi| < "
            f"{cutoff:g}, k={k_ball}"
        )
    payload = blob[pos:]
    least = d * _least_ball_modes(grid, cutoff) * 16
    if len(payload) < least:
        raise CheckpointError(
            f"checkpoint truncated: its cutoff ball needs at least {least} payload "
            f"bytes, got {len(payload)}"
        )
    if expect_fingerprint is not None:
        _check_fingerprint(fingerprint, expect_fingerprint)
    # the cube is a small multiple of the inscribed cube, whose payload is
    # now known to be present
    ball = grid.band_kabs(k) < cutoff
    stored, dropped = _stored_modes(grid, ball)
    expected = d * int(np.count_nonzero(stored)) * 16
    if len(payload) != expected:
        raise CheckpointError(
            f"checkpoint truncated: expected {expected} payload bytes, got {len(payload)}"
        )
    w_band = np.zeros(band_shape(d, N, k), dtype=np.complex128)
    w_band[:, stored] = np.frombuffer(payload, dtype="<c16").reshape(d, -1)
    for plane in grid._mirrored_planes(w_band):
        # a view: each dropped partner of the ball is its mirror's conjugate
        values = w_band[..., plane]
        partners = ball[..., plane] & dropped
        values[:, partners] = _conjugate_mirror(values, d - 1)[:, partners]
    try:
        grid.require_real_band("checkpoint payload", w_band)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    return w_band, float(t), float(cutoff)
