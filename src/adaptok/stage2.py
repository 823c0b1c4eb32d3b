"""Top-down mixed-resolution refinement.

Starting from the full Stage-1 token set, each refinement round fuses the
matching Stage-1 lateral snapshot (rounds 2-4), mixes tokens with cluster
attention (full ViT attention in the last, coarse-only round), then emits
the round's scale: emitted tokens leave the live set and are never touched
again. `densify_finest` expands the emitted maps into a dense quarter-
resolution feature grid by replicating, per cell, the finest token that
covers it. Batch-padding rows of the Stage-1 output are dropped on entry,
so nothing here sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import clusterattn, flops, geometry, tensor
from .config import EncoderConfig
from .errors import ContractError
from .geometry import MixedResolutionTokenSet, TokenKey
from .params import ParamStore
from .stage1 import Lateral, Stage1Output
from .tensor import Tensor

_LATERAL_FOR_ROUND = {2: "alloc2", 3: "alloc1", 4: "pre"}


@dataclass
class EmittedMap:
    level: int
    keys: tuple[TokenKey, ...]
    feats: Tensor  # row j belongs to keys[j]


@dataclass
class Stage2Output:
    emitted: dict[int, EmittedMap]
    blocks_applied: list[int]


def _unpadded(s1out: Stage1Output) -> tuple[MixedResolutionTokenSet, Tensor]:
    """The final Stage-1 token set and features without batch-padding rows."""
    token_set, feats = s1out.token_set, s1out.feats
    if not token_set.pad_levels:
        return token_set, feats
    return replace(token_set, pad_levels=()), tensor.gather_rows(feats, np.arange(token_set.n_valid))


def lateral_fuse(current: Tensor, current_set: MixedResolutionTokenSet, lateral: Lateral, store: ParamStore, prefix: str) -> Tensor:
    """Concat the same-scale Stage-1 snapshot and project back to the round
    width. Token correspondence must be exact."""
    if lateral.token_set.keys != current_set.keys:
        raise ContractError("lateral snapshot does not match the live token set")
    cat = tensor.concat([current, lateral.feats], axis=1)
    return tensor.add(tensor.matmul(cat, store[f"{prefix}.w"]), store[f"{prefix}.b"])


def _emit(token_set: MixedResolutionTokenSet, feats: Tensor, level: int):
    keys, levels = token_set.keys, token_set.row_levels()
    emit_rows = np.flatnonzero(levels == level)
    keep_rows = np.flatnonzero(levels != level)
    carried = replace(token_set, keys=tuple(keys[i] for i in keep_rows), frontier=())
    emitted = EmittedMap(level, tuple(keys[i] for i in emit_rows), tensor.gather_rows(feats, emit_rows))
    return carried, tensor.gather_rows(feats, keep_rows), emitted


def run_stage2(s1out: Stage1Output, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    token_set, feats = _unpadded(s1out)
    emitted: dict[int, EmittedMap] = {}
    blocks_applied = []
    for k in (1, 2, 3, 4):
        d = cfg.stage2_dims[k - 1]
        with flops.section(f"stage2.r{k}"):
            if k >= 2:
                feats = tensor.add(
                    tensor.matmul(feats, store[f"s2.r{k}.proj.w"]), store[f"s2.r{k}.proj.b"]
                )
                feats = lateral_fuse(
                    feats, token_set, s1out.laterals[_LATERAL_FOR_ROUND[k]], store, f"s2.r{k}.fuse"
                )
            n_blocks = cfg.stage2_blocks[k - 1]
            heads = cfg.heads_for(d)
            if k <= 3:
                assignment = clusterattn.cluster(token_set, cfg.cluster_size)
                for i in range(n_blocks):
                    feats = clusterattn.cluster_attention_block(
                        feats, token_set, assignment, store, f"s2.r{k}.blk{i}", heads
                    )
            else:
                rows = np.arange(token_set.n_valid)
                for i in range(n_blocks):
                    feats = clusterattn.vit_block(feats, rows, store, f"s2.r{k}.blk{i}", heads)
            blocks_applied.append(n_blocks)
            token_set, feats, emitted[4 - k] = _emit(token_set, feats, 4 - k)
    return Stage2Output(emitted=emitted, blocks_applied=blocks_applied)


def run_stage1_only_refine(s1out: Stage1Output, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    """Ablation path: no Stage 2; one extra cluster-attention block over the
    final mixed set, then per-level maps are emitted as-is."""
    token_set, feats = _unpadded(s1out)
    with flops.section("stage1x"):
        assignment = clusterattn.cluster(token_set, cfg.cluster_size)
        heads = cfg.heads_for(cfg.stage1_dims[3])
        feats = clusterattn.cluster_attention_block(feats, token_set, assignment, store, "s1x.blk", heads)
        emitted: dict[int, EmittedMap] = {}
        for level in (3, 2, 1, 0):
            token_set, feats, emitted[level] = _emit(token_set, feats, level)
    return Stage2Output(emitted=emitted, blocks_applied=[1])


def densify_finest(
    union_set: MixedResolutionTokenSet,
    s2out: Stage2Output,
    store: ParamStore,
    cfg: EncoderConfig,
) -> tuple[Tensor, np.ndarray]:
    """Dense (H/4 * W/4, d) grid: per cell, the finest covering token's
    feature (aligned to the finest emission width) plus a learned per-cell
    position embedding. Also returns the per-cell token index into
    union_set.keys."""
    # the maps hold the union rows level by level, finest first, each in
    # canonical order: emitted row j is union row order[j]
    order = np.argsort(-union_set.row_levels(), kind="stable")
    emitted = [s2out.emitted[level] for level in (3, 2, 1, 0)]
    if tuple(k for em in emitted for k in em.keys) != tuple(union_set.keys[i] for i in order):
        raise ContractError("emitted maps do not partition the token set")
    with flops.section("densify"):
        cover = geometry.finest_cover(union_set)
        # token rectangles are unions of 4x4 cells, so the cover is constant
        # within each cell; sampling the corner pixel is exact
        cell_token = cover[::4, ::4].reshape(-1)
        prefix = "s1x" if cfg.stage1_only else "dens"
        parts = []
        for em in emitted:
            feats = em.feats
            if em.level != 3:
                pfx = f"{prefix}.align{em.level}"
                feats = tensor.add(tensor.matmul(feats, store[f"{pfx}.w"]), store[f"{pfx}.b"])
            parts.append(feats)
        emitted_row = np.empty(len(order), dtype=np.intp)
        emitted_row[order] = np.arange(len(order))
        dense = tensor.gather_rows(tensor.concat(parts, axis=0), emitted_row[cell_token])
        dense = tensor.add(dense, store["dens.pos"])
    return dense, cell_token


def head_logits(dense: Tensor, store: ParamStore) -> Tensor:
    with flops.section("head"):
        return tensor.add(tensor.matmul(dense, store["head.w"]), store["head.b"])
