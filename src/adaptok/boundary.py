"""Ground-truth class-boundary scoring from segmentation label maps.

A pixel is a boundary pixel when any neighbor under the chosen connectivity
carries a different label; pixels labeled IGNORE never are, and never make
their neighbors boundaries. A token's target score is the fraction of its
patch pixels that are boundary pixels, so targets live in [0, 1] at every
scale and thresholds of order 1e-2 are comparable across rounds.
"""

from __future__ import annotations

import numpy as np

IGNORE = 65535

_OFFSETS4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS8 = _OFFSETS4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def boundary_map(labels: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Binary (uint8) boundary map. Border pixels compare only against
    in-bounds neighbors."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError("label map must be 2-D")
    h, w = lab.shape
    valid = lab != IGNORE
    out = np.zeros((h, w), dtype=bool)
    offsets = _OFFSETS4 if connectivity == 4 else _OFFSETS8
    for dy, dx in offsets:
        ys = slice(max(dy, 0), h + min(dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        ys_n = slice(max(-dy, 0), h + min(-dy, 0))
        xs_n = slice(max(-dx, 0), w + min(-dx, 0))
        differs = lab[ys, xs] != lab[ys_n, xs_n]
        out[ys, xs] |= differs & valid[ys, xs] & valid[ys_n, xs_n]
    return out.astype(np.uint8)


def target_scores(bmap: np.ndarray, tokens) -> np.ndarray:
    """Per-token boundary-pixel fraction, in patch order of `tokens`."""
    bmap = np.asarray(bmap)
    h, w = bmap.shape
    scores = []
    for k in tokens:
        y0, x0, y1, x1 = k.rect()
        if y1 > h or x1 > w:
            raise ValueError(f"token {k} extends past the {h}x{w} boundary map")
        area = (y1 - y0) * (x1 - x0)
        scores.append(float(bmap[y0:y1, x0:x1].sum()) / area)
    return np.asarray(scores, dtype=np.float64)


def allocator_loss(pred, target) -> float:
    """Mean squared error over all entries; 0 when there are none."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.shape != target.shape:
        raise ValueError(f"pred/target lengths differ: {pred.shape} vs {target.shape}")
    if not pred.size:
        return 0.0
    d = pred - target
    return float(np.mean(d * d))


def cell_majority_labels(labels: np.ndarray, cell: int = 4) -> np.ndarray:
    """Downsample a label map to cell resolution by majority vote.

    IGNORE pixels never vote; ties go to the smallest class id; a cell with
    only IGNORE pixels stays IGNORE.
    """
    lab = np.asarray(labels)
    h, w = lab.shape
    if h % cell or w % cell:
        raise ValueError(f"label map {h}x{w} not divisible by cell size {cell}")
    blocks = lab.reshape(h // cell, cell, w // cell, cell).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(h // cell, w // cell, cell * cell)
    out = np.full((h // cell, w // cell), IGNORE, dtype=np.int64)
    best = np.zeros((h // cell, w // cell), dtype=np.int64)
    classes = np.unique(lab)
    for cls in classes[classes != IGNORE]:
        count = (blocks == cls).sum(axis=2)
        wins = count > best
        out[wins] = cls
        best[wins] = count[wins]
    return out


def pad_labels(labels: np.ndarray, h: int, w: int) -> np.ndarray:
    """Zero-pad on bottom/right up to (h, w) with IGNORE, so padding never
    contributes boundary pixels."""
    lab = np.asarray(labels)
    if lab.shape == (h, w):
        return lab
    out = np.full((h, w), IGNORE, dtype=lab.dtype)
    out[: lab.shape[0], : lab.shape[1]] = lab
    return out
