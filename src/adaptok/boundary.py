"""Ground-truth class-boundary scoring from segmentation label maps.

A pixel is a boundary pixel when any neighbor under the chosen connectivity
carries a different label; pixels labeled IGNORE never are, and never make
their neighbors boundaries. A token's target score is the fraction of its
patch pixels that are boundary pixels, so targets live in [0, 1] at every
scale and thresholds of order 1e-2 are comparable across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

IGNORE = 65535
CELL = 4  # side of a head cell, in pixels

_OFFSETS4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS8 = _OFFSETS4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def boundary_map(labels: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Binary (uint8) boundary map of an (H, W) label map, or of each map of
    an (S, H, W) stack, under a config's `connectivity` (4 or 8). Border
    pixels compare only against in-bounds neighbors."""
    lab = np.asarray(labels)
    if lab.ndim not in (2, 3):
        raise ValueError("label map must be 2-D, or a 3-D stack of maps")
    h, w = lab.shape[-2:]
    valid = lab != IGNORE
    out = np.zeros(lab.shape, dtype=bool)
    offsets = _OFFSETS4 if connectivity == 4 else _OFFSETS8
    for dy, dx in offsets:
        ys = slice(max(dy, 0), h + min(dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        ys_n = slice(max(-dy, 0), h + min(-dy, 0))
        xs_n = slice(max(-dx, 0), w + min(-dx, 0))
        differs = lab[..., ys, xs] != lab[..., ys_n, xs_n]
        out[..., ys, xs] |= differs & valid[..., ys, xs] & valid[..., ys_n, xs_n]
    return out.astype(np.uint8)


class SummedArea:
    """Exact boundary-pixel count of any rectangle of any map of an (S, H, W)
    stack of boundary maps (an (H, W) map is a stack of one), from the
    (S, H+1, W+1) summed-area table: entry (s, y, x) counts the boundary
    pixels of map s above and left of pixel (y, x)."""

    def __init__(self, bmap: np.ndarray):
        bmap = np.asarray(bmap)
        if bmap.ndim not in (2, 3):
            raise ValueError("boundary map must be 2-D, or a 3-D stack of maps")
        bmap = bmap.reshape((-1,) + bmap.shape[-2:])
        s, h, w = bmap.shape
        self.shape = (h, w)
        self.table = np.zeros((s, h + 1, w + 1), dtype=np.int64)
        np.cumsum(bmap, axis=1, dtype=np.int64, out=self.table[:, 1:, 1:])
        np.cumsum(self.table[:, 1:, 1:], axis=2, out=self.table[:, 1:, 1:])

    def count(self, sample, y0, x0, y1, x1) -> np.ndarray:
        """Boundary pixels in each half-open rectangle [y0, y1) x [x0, x1)
        of map `sample`."""
        t = self.table
        return t[sample, y1, x1] - t[sample, y0, x1] - t[sample, y1, x0] + t[sample, y0, x0]


def target_scores(bmap, tokens, samples=None) -> np.ndarray:
    """Per-token boundary-pixel fraction, in the order of `tokens`: TokenKeys,
    or token-table rows (`TokenBatch.table`). `bmap` is a
    boundary map, or its `SummedArea` when many token lists score against
    one map; for an (S, H, W) stack of maps, `samples[i]` is the map that
    token i lies on."""
    counts = bmap if isinstance(bmap, SummedArea) else SummedArea(bmap)
    if samples is None:
        if len(counts.table) > 1:
            raise ValueError("a stack of boundary maps needs each token's sample")
        samples = 0
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
    return counts.count(samples, y0, x0, y1, x1) / (side * side)


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


def cell_majority_labels(labels: np.ndarray, cell: int = CELL) -> np.ndarray:
    """Downsample an (H, W) label map, or each map of an (S, H, W) stack, to
    cell resolution by majority vote.

    IGNORE pixels never vote; ties go to the smallest class id; a cell with
    only IGNORE pixels stays IGNORE. Class ids are non-negative; the vote
    count takes memory in proportion to the largest one.
    """
    lab = np.asarray(labels)
    *lead, h, w = lab.shape
    if h % cell or w % cell:
        raise ValueError(f"label map {h}x{w} not divisible by cell size {cell}")
    flat = lab.reshape(*lead, h // cell, cell, w // cell, cell).swapaxes(-3, -2).reshape(-1)
    voters = np.flatnonzero(flat != IGNORE)
    label = flat[voters]
    # one vote count per (cell, class): column 0 is IGNORE, which no pixel
    # votes for, then the voting ids ascending, so argmax's first maximum
    # is the smallest id and a cell without votes gets IGNORE
    present = np.bincount(label) > 0
    classes = np.concatenate([[IGNORE], np.flatnonzero(present)])
    slots = voters // (cell * cell) * len(classes) + np.cumsum(present)[label]
    counts = np.bincount(slots, minlength=flat.size // (cell * cell) * len(classes))
    return classes[counts.reshape(-1, len(classes)).argmax(axis=1)].reshape(*lead, h // cell, w // cell)


@dataclass(frozen=True)
class LabelTables:
    """What a forward reads of its samples' label maps, stacked in sample
    order: each one's boundary map (`bmaps`, (S, H, W) uint8) and
    cell-majority labels (`cells`, (S, H/CELL, W/CELL)). An unlabelled
    sample has the rows of an all-IGNORE map, which has no boundary pixel
    and no labelled cell, and `labelled` False."""

    bmaps: np.ndarray
    cells: np.ndarray
    labelled: np.ndarray

    @staticmethod
    def build(labels_list, shape: tuple[int, int], connectivity: int = 4, chunk: int | None = None) -> "LabelTables":
        """Tables of `labels_list` (None for an unlabelled sample), each map
        of `shape`, derived `chunk` maps at a time (default: all at once) by
        whole-stack ops."""
        shape = tuple(shape)
        for i, labels in enumerate(labels_list):
            if labels is not None and np.shape(labels) != shape:
                raise ValueError(f"label map {i} is {np.shape(labels)}; the config takes {shape}")
        n = len(labels_list)
        bmaps = np.empty((n,) + shape, dtype=np.uint8)
        cells = np.empty((n, shape[0] // CELL, shape[1] // CELL), dtype=np.int64)
        chunk = max(chunk or n, 1)
        for lo in range(0, n, chunk):
            part = labels_list[lo : lo + chunk]
            stack = np.stack([np.full(shape, IGNORE) if labels is None else labels for labels in part])
            bmaps[lo : lo + len(part)] = boundary_map(stack, connectivity)
            cells[lo : lo + len(part)] = cell_majority_labels(stack)
        return LabelTables(bmaps, cells, np.array([labels is not None for labels in labels_list], dtype=bool))

    def take(self, idx) -> "LabelTables":
        """The tables of the samples at `idx`, in that order."""
        return LabelTables(self.bmaps[idx], self.cells[idx], self.labelled[idx])
