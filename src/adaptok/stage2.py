"""Top-down mixed-resolution refinement.

Starting from the full Stage-1 token set, each refinement round fuses the
matching Stage-1 lateral snapshot (rounds 2-4), mixes tokens with cluster
attention (full ViT attention in the last, coarse-only round), then emits
the round's scale: emitted tokens leave the live set and are never touched
again. `densify_finest` expands the emitted maps into a dense quarter-
resolution feature grid by replicating, per cell, the finest token that
covers it. Everything runs on a stacked batch (a `Stage1Batch`, or one
sample's `Stage1Output` as the batch of one, without its padding rows):
sample i's rows follow sample i-1's in every tensor, and every map keeps
its rows per sample in `segments`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import clusterattn, flops, geometry, tensor
from .config import EncoderConfig
from .errors import ContractError
from .geometry import MixedResolutionTokenSet, TokenBatch, TokenKey
from .params import ParamStore
from .stage1 import Lateral, Stage1Batch, Stage1Output
from .tensor import Tensor

_LATERAL_FOR_ROUND = {2: "alloc2", 3: "alloc1", 4: "pre"}


@dataclass
class EmittedMap:
    level: int
    keys: tuple[TokenKey, ...]
    feats: Tensor  # row j belongs to keys[j]
    segments: tuple[int, ...]  # rows per sample, in batch order


@dataclass
class Stage2Output:
    emitted: dict[int, EmittedMap]
    blocks_applied: list[int]

    def sample(self, i: int) -> "Stage2Output":
        """Sample i's maps, as detached row views."""
        emitted = {}
        for level, em in self.emitted.items():
            lo = sum(em.segments[:i])
            hi = lo + em.segments[i]
            emitted[level] = EmittedMap(level, em.keys[lo:hi], Tensor(em.feats.data[lo:hi]), (hi - lo,))
        return Stage2Output(emitted, self.blocks_applied)


def lateral_fuse(current: Tensor, current_set, lateral: Lateral, store: ParamStore, prefix: str) -> Tensor:
    """Concat the same-scale Stage-1 snapshot and project back to the round
    width. Token correspondence must be exact, sample by sample; the token
    sets may be single sets or `TokenBatch`es."""
    if len(lateral.token_set.sets) != len(current_set.sets) or not all(
        np.array_equal(a.table, b.table) for a, b in zip(lateral.token_set.sets, current_set.sets)
    ):
        raise ContractError("lateral snapshot does not match the live token set")
    cat = tensor.concat([current, lateral.feats], axis=1)
    return tensor.linear(cat, store[f"{prefix}.w"], store[f"{prefix}.b"], current_set.segments)


def _emit(tokens: TokenBatch, feats: Tensor, level: int):
    carried, keys, counts = [], [], []
    for s in tokens.sets:
        emit = s.row_levels() == level
        carried.append(s.take(np.flatnonzero(~emit)))
        rows = np.flatnonzero(emit)
        keys.extend(s.keys_at(rows))
        counts.append(len(rows))
    levels = tokens.row_levels()
    emitted = EmittedMap(level, tuple(keys), tensor.gather_rows(feats, np.flatnonzero(levels == level)), tuple(counts))
    return TokenBatch(tuple(carried)), tensor.gather_rows(feats, np.flatnonzero(levels != level)), emitted


def run_stage2(s1out: Stage1Output | Stage1Batch, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    s1 = s1out.stacked()
    tokens, feats = s1.tokens, s1.feats
    emitted: dict[int, EmittedMap] = {}
    blocks_applied = []
    for k in (1, 2, 3, 4):
        d = cfg.stage2_dims[k - 1]
        with flops.section(f"stage2.r{k}"):
            if k >= 2:
                feats = tensor.linear(feats, store[f"s2.r{k}.proj.w"], store[f"s2.r{k}.proj.b"], tokens.segments)
                feats = lateral_fuse(feats, tokens, s1.laterals[_LATERAL_FOR_ROUND[k]], store, f"s2.r{k}.fuse")
            n_blocks = cfg.stage2_blocks[k - 1]
            heads = cfg.heads_for(d)
            if k <= 3:
                assignment = clusterattn.cluster(tokens, cfg.cluster_size)
                for i in range(n_blocks):
                    feats = clusterattn.cluster_attention_block(
                        feats, tokens, assignment, store, f"s2.r{k}.blk{i}", heads
                    )
            else:
                rows = np.arange(tokens.n_valid)
                for i in range(n_blocks):
                    feats = clusterattn.vit_block(feats, rows, store, f"s2.r{k}.blk{i}", heads, tokens.segments)
            blocks_applied.append(n_blocks)
            tokens, feats, emitted[4 - k] = _emit(tokens, feats, 4 - k)
    return Stage2Output(emitted=emitted, blocks_applied=blocks_applied)


def run_stage1_only_refine(s1out: Stage1Output | Stage1Batch, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    """Ablation path: no Stage 2; one extra cluster-attention block over the
    final mixed set, then per-level maps are emitted as-is."""
    s1 = s1out.stacked()
    tokens, feats = s1.tokens, s1.feats
    with flops.section("stage1x"):
        assignment = clusterattn.cluster(tokens, cfg.cluster_size)
        heads = cfg.heads_for(cfg.stage1_dims[3])
        feats = clusterattn.cluster_attention_block(feats, tokens, assignment, store, "s1x.blk", heads)
        emitted: dict[int, EmittedMap] = {}
        for level in (3, 2, 1, 0):
            tokens, feats, emitted[level] = _emit(tokens, feats, level)
    return Stage2Output(emitted=emitted, blocks_applied=[1])


def densify_finest(
    union: MixedResolutionTokenSet | TokenBatch,
    s2out: Stage2Output,
    store: ParamStore,
    cfg: EncoderConfig,
) -> tuple[Tensor, np.ndarray]:
    """Dense (H/4 * W/4, d) grid per sample, stacked in batch order: per
    cell, the finest covering token's feature (aligned to the finest
    emission width) plus a learned per-cell position embedding. Also returns
    the per-cell token index into that sample's union keys, stacked alike."""
    emitted = [s2out.emitted[level] for level in (3, 2, 1, 0)]
    # the maps hold the union rows level by level, finest first, and within
    # a level sample by sample in canonical order: sample i's rows of map j
    # start at bases[j] + firsts[j][i] in their concatenation
    bases = list(itertools.accumulate((len(em.keys) for em in emitted[:-1]), initial=0))
    firsts = [list(itertools.accumulate(em.segments[:-1], initial=0)) for em in emitted]
    with flops.section("densify"):
        cell_tokens, cell_rows = [], []
        for i, s in enumerate(union.sets):
            # this sample's emitted row j is its union row order[j]
            order = np.argsort(-s.row_levels(), kind="stable")
            keys = itertools.chain.from_iterable(em.keys[f[i] : f[i] + em.segments[i]] for em, f in zip(emitted, firsts))
            if tuple(keys) != s.keys_at(order):
                raise ContractError("emitted maps do not partition the token set")
            emitted_row = np.empty(len(order), dtype=np.intp)
            emitted_row[order] = np.concatenate(
                [np.arange(b + f[i], b + f[i] + em.segments[i]) for b, f, em in zip(bases, firsts, emitted)]
            )
            cover = geometry.finest_cover(s)
            # token rectangles are unions of 4x4 cells, so the cover is
            # constant within each cell; sampling the corner pixel is exact
            cell_token = cover[::4, ::4].reshape(-1)
            cell_tokens.append(cell_token)
            cell_rows.append(emitted_row[cell_token])
        prefix = "s1x" if cfg.stage1_only else "dens"
        parts = []
        for em in emitted:
            feats = em.feats
            if em.level != 3:
                pfx = f"{prefix}.align{em.level}"
                feats = tensor.linear(feats, store[f"{pfx}.w"], store[f"{pfx}.b"], em.segments)
            parts.append(feats)
        dense = tensor.gather_rows(tensor.concat(parts, axis=0), np.concatenate(cell_rows))
        pos = store["dens.pos"]
        cells = np.tile(np.arange(pos.data.shape[0]), len(cell_rows))
        dense = tensor.add(dense, tensor.gather_rows(pos, cells))
    return dense, np.concatenate(cell_tokens)


def head_logits(dense: Tensor, store: ParamStore, segments=None) -> Tensor:
    """Per-cell class logits; `segments` are the stacked samples' cell rows."""
    with flops.section("head"):
        return tensor.linear(dense, store["head.w"], store["head.b"], segments)
