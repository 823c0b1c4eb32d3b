"""Binary export of emitted multi-scale token features for downstream
tooling: per scale, token count, keys, and f64 features; little-endian,
lengths explicit."""

from __future__ import annotations

import struct

import numpy as np

from .geometry import TokenKey
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
            f.write(struct.pack("<BII", level, len(em.keys), dim))
            for k in em.keys:
                f.write(struct.pack("<II", k.row, k.col))
            f.write(feats.astype("<f8").tobytes())


def load_emitted_maps(path) -> dict[int, tuple[list[TokenKey], np.ndarray]]:
    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise ValueError("not an emitted-features container")
        (version,) = struct.unpack("<I", f.read(4))
        if version != VERSION:
            raise ValueError(f"unsupported feature container version {version}")
        (n_scales,) = struct.unpack("<I", f.read(4))
        out = {}
        for _ in range(n_scales):
            level, count, dim = struct.unpack("<BII", f.read(9))
            keys = []
            for _ in range(count):
                row, col = struct.unpack("<II", f.read(8))
                keys.append(TokenKey(level, row, col))
            feats = np.frombuffer(f.read(8 * count * dim), dtype="<f8").reshape(count, dim)
            out[level] = (keys, feats.copy())
    return out
