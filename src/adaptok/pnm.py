"""Plain Netpbm I/O: 16-bit PGM label maps (65535 = ignore), 8-bit PPM
images and overlays. Binary variants only (P5/P6), big-endian sample order
per the Netpbm spec."""

from __future__ import annotations

import numpy as np


def _read(path, magic: bytes, maxval: int, dtype: str, channels: int) -> np.ndarray:
    """The raster of a P5/P6 file as (h, w * channels) samples; raises
    ValueError naming the file for a bad header, a truncated payload or
    trailing bytes."""
    with open(path, "rb") as f:
        if f.read(2) != magic:
            raise ValueError(f"{path}: not a {magic.decode()} file")
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: truncated header")
            try:
                fields.extend(int(tok) for tok in line.split(b"#", 1)[0].split())
            except ValueError:
                raise ValueError(f"{path}: malformed header") from None
        payload = f.read()
    w, h, found = fields[:3]
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    if found != maxval:
        raise ValueError(f"{path}: expected maxval {maxval}, found {found}")
    want = w * h * channels * np.dtype(dtype).itemsize
    if len(payload) != want:
        raise ValueError(f"{path}: payload of {len(payload)} bytes, a {w}x{h} image needs {want}")
    return np.frombuffer(payload, dtype=dtype).reshape(h, w * channels)


def write_pgm16(path, labels: np.ndarray):
    lab = np.asarray(labels)
    h, w = lab.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(lab.astype(">u2").tobytes())


def read_pgm16(path) -> np.ndarray:
    return _read(path, b"P5", 65535, ">u2", 1).astype(np.uint16)


def write_ppm8(path, image: np.ndarray):
    """image: (H, W, 3) floats in [0,1] or uint8."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(img.tobytes())


def read_ppm8(path) -> np.ndarray:
    """Returns (H, W, 3) uint8."""
    raster = _read(path, b"P6", 255, "u1", 3)
    return raster.reshape(raster.shape[0], -1, 3)
