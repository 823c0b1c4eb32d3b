"""Quadtree bookkeeping for mixed-resolution tokens over a pixel grid.

Levels 0..3 cover patch sides 32, 16, 8, 4. Tokens at different levels may
overlap spatially; tokens at one level never do. Canonical token order is
the Morton (Z-order) code of the patch-center pixel coordinates, with
(level, row, col) as the tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    def center2(self) -> tuple[int, int]:
        """Patch center in doubled pixel coordinates (stays integral)."""
        s = self.patch_side
        return (2 * self.row + 1) * s, (2 * self.col + 1) * s


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


def _part1by1(v: int) -> int:
    # spread 16 bits so they occupy the even bit positions
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def morton_code(y: int, x: int) -> int:
    if y >= 1 << 16 or x >= 1 << 16:
        raise ValueError("coordinates exceed 16-bit Morton range")
    return (_part1by1(y) << 1) | _part1by1(x)


def _sort_key(k: TokenKey):
    cy, cx = k.center2()
    return (morton_code(cy, cx), k.level, k.row, k.col)


def canonical_order(tokens) -> list[TokenKey]:
    toks = list(tokens)
    flops.add_cost(comparisons=flops.sort_comparisons(len(toks)))
    return sorted(toks, key=_sort_key)


def padded_extent(h: int, w: int) -> tuple[int, int]:
    """Next (H, W) divisible by the coarse patch side."""
    pad = lambda v: ((v + COARSE_SIDE - 1) // COARSE_SIDE) * COARSE_SIDE
    return pad(h), pad(w)


@dataclass(frozen=True)
class MixedResolutionTokenSet:
    """All live tokens for one sample, plus padding bookkeeping.

    `keys` holds the real tokens in canonical order; `pad_levels` describes
    extra invalid feature rows appended after them when the sample sits in a
    padded batch. Row i of any aligned feature matrix corresponds to keys[i]
    for i < len(keys) and to a padded slot otherwise.
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

    def valid_mask(self) -> np.ndarray:
        m = np.zeros(self.n_rows, dtype=bool)
        m[: self.n_valid] = True
        return m

    def counts_per_level(self) -> list[int]:
        counts = [0] * (MAX_LEVEL + 1)
        for k in self.keys:
            counts[k.level] += 1
        return counts

    def frontier_rows(self) -> list[int]:
        pos = {k: i for i, k in enumerate(self.keys)}
        return [pos[k] for k in self.frontier]

    def row_levels(self) -> np.ndarray:
        """Level per feature row, padded slots included."""
        return np.array([k.level for k in self.keys] + list(self.pad_levels), dtype=np.int64)

    def with_children(self, parents) -> tuple["MixedResolutionTokenSet", list[TokenKey]]:
        """Grow the set by splitting `parents`; children become the frontier."""
        children: list[TokenKey] = []
        for p in parents:
            children.extend(split(p))
        new_keys = canonical_order(list(self.keys) + children)
        return (
            replace(
                self,
                keys=tuple(new_keys),
                frontier=tuple(canonical_order(children)),
            ),
            children,
        )

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
    for level in range(MAX_LEVEL + 1):
        for i, k in enumerate(token_set.keys):
            if k.level != level:
                continue
            y0, x0, y1, x1 = k.rect()
            cover[y0:y1, x0:x1] = i
    if np.any(cover < 0):
        raise ContractError("finest_cover: uncovered pixels (bad level-0 tiling)")
    return cover
