"""Ground-truth class-boundary scoring from segmentation label maps.

A pixel is a boundary pixel when any neighbor under the chosen connectivity
carries a different label; pixels labeled IGNORE never are, and never make
their neighbors boundaries. A token's target score is the fraction of its
patch pixels that are boundary pixels, so targets live in [0, 1] at every
scale and thresholds of order 1e-2 are comparable across rounds.
"""

from __future__ import annotations

import numpy as np

from . import geometry

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


class SummedArea:
    """Exact boundary-pixel count of any rectangle of one boundary map, from
    its (H+1, W+1) summed-area table: entry (y, x) counts the boundary
    pixels above and left of pixel (y, x)."""

    def __init__(self, bmap: np.ndarray):
        bmap = np.asarray(bmap)
        if bmap.ndim != 2:
            raise ValueError("boundary map must be 2-D")
        h, w = self.shape = bmap.shape
        self.table = np.zeros((h + 1, w + 1), dtype=np.int64)
        np.cumsum(bmap, axis=0, dtype=np.int64, out=self.table[1:, 1:])
        np.cumsum(self.table[1:, 1:], axis=1, out=self.table[1:, 1:])

    def count(self, y0, x0, y1, x1) -> np.ndarray:
        """Boundary pixels in each half-open rectangle [y0, y1) x [x0, x1)."""
        t = self.table
        return t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]


def target_scores(bmap, tokens) -> np.ndarray:
    """Per-token boundary-pixel fraction, in the order of `tokens`: TokenKeys,
    or token-table rows (`MixedResolutionTokenSet.table`). `bmap` is a
    boundary map, or its `SummedArea` when many token lists score against
    one map."""
    counts = bmap if isinstance(bmap, SummedArea) else SummedArea(bmap)
    h, w = counts.shape
    cols = geometry.key_columns(tokens)
    level, row, col = cols.T
    side = geometry.COARSE_SIDE >> level
    y0, x0 = row * side, col * side
    y1, x1 = y0 + side, x0 + side
    if len(cols) and (min(y0.min(), x0.min()) < 0 or y1.max() > h or x1.max() > w):
        outside = (y0 < 0) | (x0 < 0) | (y1 > h) | (x1 > w)
        k = geometry.TokenKey._make(cols[np.argmax(outside)].tolist())
        raise ValueError(f"token {k} extends past the {h}x{w} boundary map")
    return counts.count(y0, x0, y1, x1) / (side * side)


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
    only IGNORE pixels stays IGNORE. Class ids are non-negative; the vote
    count takes memory in proportion to the largest one.
    """
    lab = np.asarray(labels)
    h, w = lab.shape
    if h % cell or w % cell:
        raise ValueError(f"label map {h}x{w} not divisible by cell size {cell}")
    flat = lab.reshape(h // cell, cell, w // cell, cell).transpose(0, 2, 1, 3).reshape(-1)
    voters = np.flatnonzero(flat != IGNORE)
    label = flat[voters]
    # one vote count per (cell, class): column 0 is IGNORE, which no pixel
    # votes for, then the voting ids ascending, so argmax's first maximum
    # is the smallest id and a cell without votes gets IGNORE
    present = np.bincount(label) > 0
    classes = np.concatenate([[IGNORE], np.flatnonzero(present)])
    slots = voters // (cell * cell) * len(classes) + np.cumsum(present)[label]
    counts = np.bincount(slots, minlength=(h // cell) * (w // cell) * len(classes))
    return classes[counts.reshape(-1, len(classes)).argmax(axis=1)].reshape(h // cell, w // cell)


def pad_labels(labels: np.ndarray, h: int, w: int) -> np.ndarray:
    """Zero-pad on bottom/right up to (h, w) with IGNORE, so padding never
    contributes boundary pixels."""
    lab = np.asarray(labels)
    if lab.shape == (h, w):
        return lab
    out = np.full((h, w), IGNORE, dtype=lab.dtype)
    out[: lab.shape[0], : lab.shape[1]] = lab
    return out
