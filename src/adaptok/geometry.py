"""Quadtree bookkeeping for mixed-resolution tokens over a pixel grid.

Levels 0..3 cover patch sides 32, 16, 8, 4. Tokens at different levels may
overlap spatially; tokens at one level never do. Canonical token order is
the Morton (Z-order) code of the patch-center pixel coordinates, with
(level, row, col) as the tie-break. This module alone decides row order:
growing a set returns the permutation that carries feature rows along.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import flops
from .errors import ContractError

MAX_LEVEL = 3
PATCH_SIDES = (32, 16, 8, 4)
COARSE_SIDE = 32


class TokenKey(NamedTuple):
    level: int
    row: int
    col: int

    @property
    def patch_side(self) -> int:
        return COARSE_SIDE >> self.level

    def parent(self) -> "TokenKey":
        if self.level == 0:
            raise ContractError("level-0 token has no parent")
        return TokenKey(self.level - 1, self.row // 2, self.col // 2)

    def rect(self) -> tuple[int, int, int, int]:
        """(y0, x0, y1, x1) pixel bounds, half-open."""
        s = self.patch_side
        return self.row * s, self.col * s, (self.row + 1) * s, (self.col + 1) * s


def split(parent: TokenKey) -> tuple[TokenKey, TokenKey, TokenKey, TokenKey]:
    """The four level+1 children tiling the parent's rectangle."""
    if parent.level >= MAX_LEVEL:
        raise ContractError(f"cannot split a level-{MAX_LEVEL} token")
    lvl, r, c = parent.level + 1, 2 * parent.row, 2 * parent.col
    return (
        TokenKey(lvl, r, c),
        TokenKey(lvl, r, c + 1),
        TokenKey(lvl, r + 1, c),
        TokenKey(lvl, r + 1, c + 1),
    )


def _part1by1(v: np.ndarray) -> np.ndarray:
    # spread 16 bits so they occupy the even bit positions
    v = v & 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    return (v | (v << 1)) & 0x55555555


def _canonical_rank(keys) -> np.ndarray:
    """Indices that put `keys` in canonical order: Morton code of the doubled
    patch center, then (level, row, col)."""
    lvl, row, col = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    side = COARSE_SIDE >> lvl
    cy, cx = (2 * row + 1) * side, (2 * col + 1) * side
    if np.any(cy >= 1 << 16) or np.any(cx >= 1 << 16):
        raise ValueError("coordinates exceed 16-bit Morton range")
    code = (_part1by1(cy) << 1) | _part1by1(cx)
    return np.lexsort((col, row, lvl, code))


def canonical_order(tokens) -> list[TokenKey]:
    toks = list(tokens)
    flops.add_cost(comparisons=flops.sort_comparisons(len(toks)))
    return [toks[i] for i in _canonical_rank(toks)]


def padded_extent(h: int, w: int) -> tuple[int, int]:
    """Next (H, W) divisible by the coarse patch side."""
    pad = lambda v: ((v + COARSE_SIDE - 1) // COARSE_SIDE) * COARSE_SIDE
    return pad(h), pad(w)


@dataclass(frozen=True)
class MixedResolutionTokenSet:
    """All live tokens for one sample, plus padding bookkeeping.

    `keys` holds the real tokens in canonical order; row i of any aligned
    feature matrix is keys[i]. `pad_levels` describes invalid feature rows
    appended after them only when a finished Stage-1 sample sits in a padded
    batch.
    """

    height: int
    width: int
    keys: tuple[TokenKey, ...]
    frontier: tuple[TokenKey, ...]
    pad_levels: tuple[int, ...] = ()

    @property
    def n_valid(self) -> int:
        return len(self.keys)

    @property
    def n_rows(self) -> int:
        return len(self.keys) + len(self.pad_levels)

    @property
    def sets(self) -> tuple["MixedResolutionTokenSet"]:
        """The set as a batch of one (see `TokenBatch`)."""
        return (self,)

    @property
    def segments(self) -> tuple[int]:
        return (self.n_valid,)

    def counts_per_level(self) -> list[int]:
        counts = [0] * (MAX_LEVEL + 1)
        for k in self.keys:
            counts[k.level] += 1
        return counts

    def rows_of(self, keys) -> list[int]:
        pos = {k: i for i, k in enumerate(self.keys)}
        return [pos[k] for k in keys]

    def row_levels(self) -> np.ndarray:
        """Level of each key, in row order."""
        return np.array([k.level for k in self.keys], dtype=np.int64)

    def with_children(self, parents) -> tuple["MixedResolutionTokenSet", np.ndarray]:
        """Grow the set by splitting `parents`; children become the frontier.
        Also returns `perm`: new row i is row perm[i] of the old rows followed
        by the children in `parents` x `split` order."""
        merged = list(self.keys) + [c for p in parents for c in split(p)]
        n_old, n = len(self.keys), len(merged)
        flops.add_cost(comparisons=flops.sort_comparisons(n) + flops.sort_comparisons(n - n_old))
        perm = _canonical_rank(merged)
        keys = tuple(merged[i] for i in perm)
        return replace(self, keys=keys, frontier=tuple(k for k, i in zip(keys, perm) if i >= n_old)), perm

    def with_padding(self, pad_levels) -> "MixedResolutionTokenSet":
        return replace(self, pad_levels=self.pad_levels + tuple(pad_levels))

    def validate(self):
        """Check structural invariants; raises ContractError on violation."""
        seen = set(self.keys)
        if len(seen) != len(self.keys):
            raise ContractError("duplicate token keys")
        n0 = (self.height // COARSE_SIDE) * (self.width // COARSE_SIDE)
        if self.counts_per_level()[0] != n0:
            raise ContractError("level-0 tokens do not tile the image")
        for k in self.keys:
            side = k.patch_side
            if not (0 <= k.row < self.height // side and 0 <= k.col < self.width // side):
                raise ContractError(f"token {k} out of bounds")
            if k.level > 0 and k.parent() not in seen:
                raise ContractError(f"token {k} is missing its parent")
        # all-or-none sibling groups
        by_parent: dict[TokenKey, int] = {}
        for k in self.keys:
            if k.level > 0:
                by_parent[k.parent()] = by_parent.get(k.parent(), 0) + 1
        for p, n in by_parent.items():
            if n != 4:
                raise ContractError(f"parent {p} has {n} children, expected 4")
        if list(self.keys) != canonical_order(self.keys):
            raise ContractError("keys are not in canonical order")


@dataclass(frozen=True)
class TokenBatch:
    """The token sets of a batch whose feature rows are stacked in batch
    order: sample i's rows follow sample i-1's. It offers what a single
    `MixedResolutionTokenSet` offers as a batch of one: `sets`, `segments`
    (rows per sample), `n_valid` and `row_levels()`."""

    sets: tuple[MixedResolutionTokenSet, ...]
    segments: tuple[int, ...] = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)  # first row of each sample
    _levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = tuple(s.n_valid for s in self.sets)
        levels = np.concatenate([s.row_levels() for s in self.sets])
        levels.flags.writeable = False
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(segments[:-1], initial=0)))
        object.__setattr__(self, "_levels", levels)

    @property
    def n_valid(self) -> int:
        return len(self._levels)

    def row_levels(self) -> np.ndarray:
        """Level of each stacked row (read-only)."""
        return self._levels


def coarse_grid(h: int, w: int) -> MixedResolutionTokenSet:
    """The initial token set: one level-0 token per 32x32 patch."""
    if h % COARSE_SIDE or w % COARSE_SIDE:
        raise ValueError(
            f"image {h}x{w} not divisible by {COARSE_SIDE}; pad first (padded_extent)"
        )
    keys = canonical_order(
        TokenKey(0, r, c)
        for r in range(h // COARSE_SIDE)
        for c in range(w // COARSE_SIDE)
    )
    return MixedResolutionTokenSet(
        height=h, width=w, keys=tuple(keys), frontier=tuple(keys)
    )


def finest_cover(token_set: MixedResolutionTokenSet) -> np.ndarray:
    """Per-pixel index (into token_set.keys) of the deepest covering token."""
    cover = np.full((token_set.height, token_set.width), -1, dtype=np.int64)
    keys = token_set.keys
    for i in np.argsort(token_set.row_levels(), kind="stable"):
        y0, x0, y1, x1 = keys[i].rect()
        cover[y0:y1, x0:x1] = i
    if np.any(cover < 0):
        raise ContractError("finest_cover: uncovered pixels (bad level-0 tiling)")
    return cover
