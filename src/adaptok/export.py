"""Binary export of emitted multi-scale token features for downstream
tooling: per scale, token count, keys, and f64 features; little-endian,
lengths explicit."""

from __future__ import annotations

import struct

import numpy as np

from .geometry import TokenKey
from .params import _Reader
from .stage2 import Stage2Output

MAGIC = b"ADTKFEA1"
VERSION = 1


def save_emitted_maps(path, s2out: Stage2Output):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(s2out.emitted)))
        for level in sorted(s2out.emitted):
            em = s2out.emitted[level]
            feats = em.feats.data
            dim = feats.shape[1] if feats.ndim == 2 else 0
            f.write(struct.pack("<BII", level, len(em.tokens.table), dim))
            f.write(em.tokens.table[:, 1:3].astype("<u4").tobytes())  # (row, col) per token
            f.write(feats.astype("<f8").tobytes())


def load_emitted_maps(path) -> dict[int, tuple[list[TokenKey], np.ndarray]]:
    """Read a feature container; raises ValueError naming the file and the
    cause for a bad magic or version, a truncated file or trailing bytes."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path, "feature container")
    if r.blob[:8] != MAGIC:
        raise ValueError(f"{path}: not an emitted-features container")
    r.take(8, "magic")
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported feature container version {version}")
    (n_scales,) = r.unpack("<I", "scale count")
    out = {}
    for i in range(n_scales):
        level, count, dim = r.unpack("<BII", f"header of scale {i}")
        cells = np.frombuffer(r.take(8 * count, f"keys of level {level}"), dtype="<u4").reshape(count, 2)
        feats = np.frombuffer(r.take(8 * count * dim, f"features of level {level}"), dtype="<f8").reshape(count, dim)
        out[level] = ([TokenKey(level, row, col) for row, col in cells.tolist()], feats.copy())
    r.finish(f"after {n_scales} scales")
    return out
