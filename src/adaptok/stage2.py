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

from dataclasses import dataclass

import numpy as np

from . import clusterattn, flops, geometry, tensor
from .config import EncoderConfig
from .errors import ContractError
from .geometry import TokenBatch, TokenKey
from .params import ParamStore
from .stage1 import Lateral, Stage1Batch, Stage1Output
from .tensor import Tensor

_LATERAL_FOR_ROUND = {2: "alloc2", 3: "alloc1", 4: "pre"}


@dataclass
class EmittedMap:
    level: int
    tokens: TokenBatch  # the emitted tokens, in batch order
    feats: Tensor  # row j belongs to token j

    @property
    def keys(self) -> tuple[TokenKey, ...]:
        return self.tokens.keys

    @property
    def segments(self) -> tuple[int, ...]:
        return self.tokens.segments


@dataclass
class Stage2Output:
    emitted: dict[int, EmittedMap]

    def sample(self, i: int) -> "Stage2Output":
        """Sample i's maps, as detached row views."""
        emitted = {}
        for level, em in self.emitted.items():
            lo = em.tokens.offsets[i]
            emitted[level] = EmittedMap(level, em.tokens.sets[i], Tensor(em.feats.data[lo : lo + em.segments[i]]))
        return Stage2Output(emitted)


def lateral_fuse(current: Tensor, current_set: TokenBatch, lateral: Lateral, store: ParamStore, prefix: str) -> Tensor:
    """Concat the same-scale Stage-1 snapshot and project back to the round
    width. Token correspondence must be exact, sample by sample."""
    lat = lateral.token_set
    if lat.segments != current_set.segments or not np.array_equal(lat.table, current_set.table):
        raise ContractError("lateral snapshot does not match the live token set")
    cat = tensor.concat([current, lateral.feats], axis=1)
    return tensor.linear(cat, store[f"{prefix}.w"], store[f"{prefix}.b"], current_set.segments)


def _emit(tokens: TokenBatch, feats: Tensor, level: int):
    """Split off the tokens of `level` as its map; the rest carry on."""
    emit = tokens.row_levels() == level
    out, kept = np.flatnonzero(emit), np.flatnonzero(~emit)
    emitted = EmittedMap(level, tokens.take(out), tensor.gather_rows(feats, out))
    return tokens.take(kept), tensor.gather_rows(feats, kept), emitted


def _stage1_parts(s1out: Stage1Output | Stage1Batch | list) -> tuple[TokenBatch, Tensor, dict]:
    """The tokens, features and a copy of the laterals dict of the Stage-1
    result to refine. A one-element list hands the result over: it is
    popped, so the returned features and laterals are their only
    references and Stage 2 can free each once it is spent. A
    `Stage1Output` or `Stage1Batch` passed as it is stays intact."""
    s1 = s1out.pop() if isinstance(s1out, list) else s1out
    if s1.feats is None or s1.laterals is None:
        raise ContractError(
            "this Stage-1 result holds no features or laterals: its forward handed them to Stage 2; "
            "run Stage 1 again (run_stage1 or run_stage1_batch) to refine it"
        )
    s1 = s1.stacked()
    return s1.tokens, s1.feats, dict(s1.laterals)


def run_stage2(s1out: Stage1Output | Stage1Batch | list, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    """The four refinement rounds over a Stage-1 result, or over the one
    popped from a one-element list (`_stage1_parts`): then off a tape its
    features are freed once round 1's first block has run, and each
    lateral once fused."""
    tokens, feats, laterals = _stage1_parts(s1out)
    emitted: dict[int, EmittedMap] = {}
    for k in (1, 2, 3, 4):
        d = cfg.stage2_dims[k - 1]
        with flops.section(f"stage2.r{k}"):
            if k >= 2:
                feats = tensor.linear(feats, store[f"s2.r{k}.proj.w"], store[f"s2.r{k}.proj.b"], tokens.segments)
                feats = lateral_fuse(feats, tokens, laterals.pop(_LATERAL_FOR_ROUND[k]), store, f"s2.r{k}.fuse")
            n_blocks = cfg.stage2_blocks[k - 1]
            heads = cfg.heads_for(d)
            if k <= 3:
                assignment = clusterattn.cluster(tokens, cfg.cluster_size)
                for i in range(n_blocks):
                    feats = clusterattn.cluster_attention_block(feats, tokens, assignment, store, f"s2.r{k}.blk{i}", heads)
            else:
                for i in range(n_blocks):
                    feats = clusterattn.vit_block(feats, store, f"s2.r{k}.blk{i}", heads, tokens.segments)
            tokens, feats, emitted[4 - k] = _emit(tokens, feats, 4 - k)
    return Stage2Output(emitted)


def run_stage1_only_refine(s1out: Stage1Output | Stage1Batch | list, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    """Ablation path: no Stage 2; one extra cluster-attention block over the
    final mixed set, then per-level maps are emitted as-is. Takes the
    Stage-1 result as `run_stage2` does."""
    tokens, feats, _ = _stage1_parts(s1out)
    with flops.section("stage1x"):
        assignment = clusterattn.cluster(tokens, cfg.cluster_size)
        heads = cfg.heads_for(cfg.stage1_dims[3])
        feats = clusterattn.cluster_attention_block(feats, tokens, assignment, store, "s1x.blk", heads)
        emitted: dict[int, EmittedMap] = {}
        for level in (3, 2, 1, 0):
            tokens, feats, emitted[level] = _emit(tokens, feats, level)
    return Stage2Output(emitted)


def densify_finest(
    union: TokenBatch, s2out: Stage2Output, store: ParamStore, cfg: EncoderConfig
) -> tuple[Tensor, np.ndarray]:
    """Dense (H/4 * W/4, d) grid per sample, stacked in batch order: per
    cell, the finest covering token's feature (aligned to the finest
    emission width) plus a learned per-cell position embedding. Also returns
    the per-cell token index into that sample's union keys, stacked alike."""
    emitted = [s2out.emitted[level] for level in (3, 2, 1, 0)]
    with flops.section("densify"):
        # the maps hold the union's rows finest level first, then by sample
        order = union.finest_first()
        per_level = union.level_counts()[:, ::-1].T
        if [em.segments for em in emitted] != [tuple(c) for c in per_level.tolist()] or not np.array_equal(
            np.concatenate([em.tokens.table for em in emitted]), union.table[order]
        ):
            raise ContractError("emitted maps do not partition the token set")
        emitted_row = np.empty(len(order), dtype=np.intp)  # of each union row
        emitted_row[order] = np.arange(len(order))
        # token rectangles are unions of 4x4 cells, so the cover is constant
        # within each cell; sampling the corner pixel is exact
        samples = len(union.segments)
        cell_token = geometry.finest_cover(union)[..., ::4, ::4].reshape(samples, -1)
        cell_rows = emitted_row[cell_token + np.asarray(union.offsets)[:, None]]
        prefix = "s1x" if cfg.stage1_only else "dens"
        parts = []
        for em in emitted:
            feats = em.feats
            if em.level != 3:
                pfx = f"{prefix}.align{em.level}"
                feats = tensor.linear(feats, store[f"{pfx}.w"], store[f"{pfx}.b"], em.segments)
            parts.append(feats)
        dense = tensor.gather_rows(tensor.concat(parts, axis=0), cell_rows.reshape(-1))
        pos = store["dens.pos"]
        cells = np.tile(np.arange(pos.data.shape[0]), samples)
        dense = tensor.add(dense, tensor.gather_rows(pos, cells))
    return dense, cell_token.reshape(-1)


def head_logits(dense: Tensor, store: ParamStore, segments=None) -> Tensor:
    """Per-cell class logits; `segments` are the stacked samples' cell rows."""
    with flops.section("head"):
        return tensor.linear(dense, store["head.w"], store["head.b"], segments)
