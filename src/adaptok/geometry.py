"""Quadtree bookkeeping for mixed-resolution tokens over a pixel grid.

Levels 0..3 cover patch sides 32, 16, 8, 4. Tokens at different levels may
overlap spatially; tokens at one level never do. Canonical token order is
the Morton (Z-order) code of the patch-center pixel coordinates, with
(level, row, col) as the tie-break. This module alone decides row order,
for one sample and for a stacked batch: growing a batch returns the
permutation that carries feature rows along.

A batch keeps its tokens as one integer table (level, row, col, order key);
everything that computes on tokens reads it, and `TokenKey` tuples are
only a view of it. `TokenBatch` is the one token type: a single sample's
token set, `coarse_grid`'s included, is the batch of one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flops
from .errors import ContractError

MAX_LEVEL = 3
PATCH_SIDES = (32, 16, 8, 4)
COARSE_SIDE = 32
# Child q = 2*dy + dx of a token (its four children in row-major order), as
# token-table arithmetic: level + 1, row 2*row + dy, col 2*col + dx, and the
# order key (`_order_keys`) plus 1 for the level bits plus 4*(4q - 9) child
# patch areas. With corner (y0, x0) and side s = 2h, the doubled center
# (2*y0 + s, 2*x0 + s) has Morton code 4*M(y0, x0) + 3*s^2, because the bits
# do not overlap, and child q's corner has code M(y0, x0) + q*h^2; so the
# child's code is the parent's plus (4q - 9)*h^2.
_CHILD_SCALE = np.array([1, 2, 2, 1])
_CHILD_OFFSET = np.array([[1, 0, 0, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]])
_CHILD_KEY_STEP = 4 * (4 * np.arange(4) - 9)


class TokenKey(NamedTuple):
    level: int
    row: int
    col: int

    @property
    def patch_side(self) -> int:
        return COARSE_SIDE >> self.level

    def rect(self) -> tuple[int, int, int, int]:
        """(y0, x0, y1, x1) pixel bounds, half-open."""
        s = self.patch_side
        return self.row * s, self.col * s, (self.row + 1) * s, (self.col + 1) * s


def _part1by1(v: np.ndarray) -> np.ndarray:
    # spread 16 bits so they occupy the even bit positions
    v = v & 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    return (v | (v << 1)) & 0x55555555


def _order_keys(level, row, col) -> np.ndarray:
    """Canonical sort key of each token: the Morton code of its doubled
    patch center, shifted left by two bits to hold the level. The code and
    the level together determine row and col, so ascending order keys are
    canonical (code, level, row, col) order."""
    if np.any((level < 0) | (level > MAX_LEVEL)):
        raise ValueError(f"token levels must lie in 0..{MAX_LEVEL}")
    side = COARSE_SIDE >> level
    cy, cx = (2 * row + 1) * side, (2 * col + 1) * side
    if np.any(cy >= 1 << 16) or np.any(cx >= 1 << 16):
        raise ValueError("coordinates exceed 16-bit Morton range")
    return (((_part1by1(cy) << 1) | _part1by1(cx)) << 2) | level


def key_columns(tokens) -> np.ndarray:
    """(n, 3) int64 (level, row, col) of an iterable of TokenKeys, or the
    first three columns of token-table rows (`TokenBatch.table`)."""
    if isinstance(tokens, np.ndarray):
        return tokens[:, :3]
    return np.fromiter(itertools.chain.from_iterable(tokens), dtype=np.int64).reshape(-1, 3)


def table_keys(table: np.ndarray) -> tuple[TokenKey, ...]:
    """TokenKey views of token-table rows."""
    return tuple(map(TokenKey._make, table[:, :3].tolist()))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _canonical_rank(keys) -> np.ndarray:
    """Indices that put `keys` in canonical order."""
    return np.argsort(_order_keys(*key_columns(keys).T), kind="stable")


def canonical_order(tokens) -> list[TokenKey]:
    toks = list(tokens)
    flops.add_cost(comparisons=flops.sort_comparisons(len(toks)))
    return [toks[i] for i in _canonical_rank(toks)]


_NO_ROWS = _readonly(np.zeros(0, dtype=np.int64))


def segment_views(a, segments) -> list:
    """Views of consecutive runs of `a`'s rows, `segments[i]` rows each: a
    stacked array's per-sample parts."""
    bounds = list(itertools.accumulate(segments, initial=0))
    return [a[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """The tokens of a batch whose feature rows are stacked in batch order:
    sample i's rows follow sample i-1's, and row i of any aligned feature
    matrix is token i. `table` is a read-only (ΣN, 4) int64 array, each
    sample's block in canonical order; its columns are level, row, col and
    the order key (`_order_keys`). `segments` counts each sample's rows, and
    `frontier_rows` lists, ascending, the rows of the tokens the last round
    created. `keys` and `frontier` are TokenKey views of the same tokens,
    made on first use, and `sets` the per-sample token sets, each a batch
    of one. `pad_levels` gives the level of each zero feature row appended
    after a sample's tokens when it sits in a padded Stage-1 batch; such
    padding is only ever set on a one-sample set."""

    height: int
    width: int
    table: np.ndarray
    frontier_rows: np.ndarray
    segments: tuple[int, ...]
    pad_levels: tuple[int, ...] = ()

    @staticmethod
    def stack(sets) -> "TokenBatch":
        """The batch of the token sets `sets`, in order."""
        offsets = itertools.accumulate((s.n_valid for s in sets), initial=0)
        table = _readonly(np.concatenate([s.table for s in sets]))
        frontier = _readonly(np.concatenate([o + s.frontier_rows for s, o in zip(sets, offsets)]))
        return TokenBatch(sets[0].height, sets[0].width, table, frontier, tuple(s.n_valid for s in sets))

    def _with(self, table, frontier_rows, segments) -> "TokenBatch":
        return TokenBatch(self.height, self.width, table, frontier_rows, segments)

    @functools.cached_property
    def keys(self) -> tuple[TokenKey, ...]:
        return self.keys_at(slice(None))

    @functools.cached_property
    def frontier(self) -> tuple[TokenKey, ...]:
        return self.keys_at(self.frontier_rows)

    def keys_at(self, rows) -> tuple[TokenKey, ...]:
        """TokenKeys of the tokens at `rows`."""
        return table_keys(self.table[rows])

    @property
    def n_valid(self) -> int:
        return len(self.table)

    @property
    def n_rows(self) -> int:
        """Feature rows: the tokens, then the padding."""
        return len(self.table) + len(self.pad_levels)

    def row_levels(self) -> np.ndarray:
        """Level of each token, in row order (read-only)."""
        return self.table[:, 0]

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        """First row of each sample."""
        return tuple(itertools.accumulate(self.segments[:-1], initial=0))

    @functools.cached_property
    def row_samples(self) -> np.ndarray:
        """Sample of each token, in row order."""
        return np.repeat(np.arange(len(self.segments)), self.segments)

    @functools.cached_property
    def frontiers(self) -> list[np.ndarray]:
        """Each sample's frontier, as rows of the batch."""
        counts = np.bincount(self.row_samples[self.frontier_rows], minlength=len(self.segments))
        return segment_views(self.frontier_rows, counts.tolist())

    @functools.cached_property
    def sets(self) -> tuple["TokenBatch", ...]:
        """Each sample's token set, its rows numbered from 0."""
        return tuple(
            TokenBatch(self.height, self.width, self.table[o : o + n], _readonly(f - o), (n,))
            for o, n, f in zip(self.offsets, self.segments, self.frontiers)
        )

    def level_counts(self) -> np.ndarray:
        """(samples, levels) token counts."""
        flat = self.row_samples * (MAX_LEVEL + 1) + self.row_levels()
        return np.bincount(flat, minlength=len(self.segments) * (MAX_LEVEL + 1)).reshape(-1, MAX_LEVEL + 1)

    def counts_per_level(self) -> list[int]:
        """Token counts per level over the whole batch."""
        return np.bincount(self.row_levels(), minlength=MAX_LEVEL + 1).tolist()

    def finest_first(self) -> np.ndarray:
        """Rows ordered finest level first, then by sample, then by row: the
        order in which Stage 2 emits them, one map per level."""
        return np.lexsort((np.arange(self.n_valid), self.row_samples, -self.row_levels()))

    def children(self, parent_rows) -> np.ndarray:
        """Token-table rows of the children of the tokens at `parent_rows`,
        in `parent_rows` x child order (q = 2*dy + dx)."""
        parents = self.table[parent_rows]
        if np.any(parents[:, 0] >= MAX_LEVEL):
            raise ContractError(f"cannot split a level-{MAX_LEVEL} token")
        kids = parents[:, None, :] * _CHILD_SCALE + _CHILD_OFFSET
        kids[:, :, 3] += (COARSE_SIDE >> kids[:, :1, 0]) ** 2 * _CHILD_KEY_STEP
        return kids.reshape(-1, 4)

    def grow(self, parent_rows) -> tuple["TokenBatch", np.ndarray]:
        """Grow the batch by splitting the tokens at `parent_rows`; their
        children become the frontier. Also returns `perm`: new row i is row
        perm[i] of the old rows followed by the children in `parent_rows` x
        child order. Each sample that gains k children is charged the sort
        of its grown set plus the sort of the children."""
        parent_rows = np.asarray(parent_rows, dtype=np.intp)
        kid_samples = np.repeat(self.row_samples[parent_rows], 4)
        merged = np.concatenate([self.table, self.children(parent_rows)])
        kids = np.bincount(kid_samples, minlength=len(self.segments)).tolist()
        segments = tuple(n + k for n, k in zip(self.segments, kids))
        flops.add_cost(
            comparisons=sum(flops.sort_comparisons(n) + flops.sort_comparisons(k) for n, k in zip(segments, kids) if k)
        )
        perm = np.lexsort((merged[:, 3], np.concatenate([self.row_samples, kid_samples])))
        grown = self._with(_readonly(merged[perm]), _readonly(np.flatnonzero(perm >= self.n_valid)), segments)
        return grown, perm

    def take(self, rows) -> "TokenBatch":
        """The tokens at ascending `rows` (so still canonical), with no
        frontier."""
        segments = np.bincount(self.row_samples[rows], minlength=len(self.segments))
        return self._with(_readonly(self.table[rows]), _NO_ROWS, tuple(segments.tolist()))

    def without_frontier(self) -> "TokenBatch":
        return self._with(self.table, _NO_ROWS, self.segments)


def coarse_grid(h: int, w: int) -> TokenBatch:
    """The initial token set: one level-0 token per 32x32 patch. The set is
    built once per extent and shared; each call charges its sort."""
    if h % COARSE_SIDE or w % COARSE_SIDE:
        raise ValueError(
            f"image {h}x{w} not divisible by {COARSE_SIDE}; pad first (scenes.pad_to_grid)"
        )
    s = _coarse_grid(h, w)
    flops.add_cost(comparisons=flops.sort_comparisons(s.n_valid))
    return s


@functools.lru_cache(maxsize=16)
def _coarse_grid(h: int, w: int) -> TokenBatch:
    row, col = np.divmod(np.arange((h // COARSE_SIDE) * (w // COARSE_SIDE)), w // COARSE_SIDE)
    level = np.zeros_like(row)
    table = np.stack([level, row, col, _order_keys(level, row, col)], axis=1)
    table = _readonly(table[np.argsort(table[:, 3], kind="stable")])
    return TokenBatch(h, w, table, _readonly(np.arange(len(table))), (len(table),))


def patches(image: np.ndarray, level: int, row, col) -> np.ndarray:
    """(n, s*s*C) flattened patches of tokens (level, row[i], col[i]) of an
    (H, W, C) image, s the patch side of `level`, each in the pixel order of
    `image[y0:y1, x0:x1].reshape(-1)`. Only the selected patches are
    copied: they are indexed from an (H/s, W/s, s, s, C) view."""
    h, w, c = image.shape
    s = COARSE_SIDE >> level
    grid = image.reshape(h // s, s, w // s, s, c).transpose(0, 2, 1, 3, 4)
    return grid[row, col].reshape(len(row), s * s * c)


def finest_cover(tokens: TokenBatch) -> np.ndarray:
    """(samples, H, W): per pixel, the index of the deepest covering token,
    counted from its sample's first row (an index into that sample's
    keys)."""
    h, w = tokens.height, tokens.width
    samples = len(tokens.segments)
    cover = np.full((samples, h, w), -1, dtype=np.int64)
    level, row, col = tokens.table[:, :3].T
    sample = tokens.row_samples
    local = np.arange(tokens.n_valid) - np.asarray(tokens.offsets)[sample]
    # coarse levels first, so finer tokens paint over them; tokens of one
    # level never overlap
    for lvl, side in enumerate(PATCH_SIDES):
        rows = np.flatnonzero(level == lvl)
        grid = cover.reshape(samples, h // side, side, w // side, side)
        grid[sample[rows], row[rows], :, col[rows], :] = local[rows, None, None]
    if np.any(cover < 0):
        raise ContractError("finest_cover: uncovered pixels (bad level-0 tiling)")
    return cover
