"""Bottom-up adaptive token allocation.

One pass embeds the coarse 32x32 grid, runs a small pre-allocation ViT,
then performs three allocation rounds. Each round projects carried tokens
down to the round's width, scores only the frontier (the tokens created by
the previous round), selects the ones whose score clears the round
threshold, splits each selected patch into four children, and mixes the
grown token set with cluster attention. Lateral snapshots are kept for the
top-down refinement stage.

Every sample runs all its rounds on its own rows, without padding. Only the
finished batch is padded: each final token set gets zero feature rows up to
the batch maximum per level, which Stage 2 drops again on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import boundary, clusterattn, flops, geometry, tensor
from .config import ROUNDS, EncoderConfig
from .errors import ContractError
from .geometry import MixedResolutionTokenSet, TokenKey
from .params import ParamStore, rng_for
from .tensor import Tensor


def select(scores, threshold: float) -> tuple[np.ndarray, int]:
    """Indices of scores strictly above the threshold, and their count."""
    if threshold <= 0:
        raise ValueError("selection threshold must be positive")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    flops.add_cost(comparisons=scores.size)
    idx = np.flatnonzero(scores > threshold)
    return idx, int(idx.size)


def oracle_mix_gate(rate: float, seed: int, batch_index: int) -> bool:
    """Seed-deterministic per-batch choice between oracle and predicted
    scores for selection."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("oracle rate must lie in [0, 1]")
    return bool(rng_for(seed, "oracle_gate", batch_index).random() < rate)


@dataclass
class RoundRecord:
    round_index: int
    frontier: tuple[TokenKey, ...]
    candidate_count: int
    scores: np.ndarray
    targets: np.ndarray | None
    selected: tuple[TokenKey, ...]
    selected_count: int
    selection_source: str  # predicted | oracle | random | dense


@dataclass
class AllocationTrace:
    rounds: list[RoundRecord]

    def tokens_per_level(self, coarse_tokens: int) -> list[int]:
        return [coarse_tokens] + [4 * r.selected_count for r in self.rounds]


@dataclass
class Lateral:
    token_set: MixedResolutionTokenSet
    feats: Tensor


@dataclass
class Stage1Output:
    token_set: MixedResolutionTokenSet
    feats: Tensor  # rows from token_set.n_valid on: zero batch padding
    trace: AllocationTrace
    laterals: dict[str, Lateral]
    score_tensors: list[Tensor | None]  # per round, rows follow the frontier


def allocator_mse(out: Stage1Output) -> Tensor | None:
    """Differentiable MSE of predicted vs target scores pooled over rounds.
    None when no frontier token was ever scored (or labels were absent)."""
    preds, targets = [], []
    for st, rec in zip(out.score_tensors, out.trace.rounds):
        if st is None or rec.targets is None or rec.candidate_count == 0:
            continue
        preds.append(st)
        targets.append(rec.targets.reshape(-1, 1))
    if not preds:
        return None
    pred = tensor.concat(preds, axis=0) if len(preds) > 1 else preds[0]
    return tensor.mse(pred, tensor.constant(np.concatenate(targets, axis=0)))


class Stage1Run:
    """Round-stepped state for one sample, on that sample's rows alone;
    `run_stage1_batch` drives the hooks."""

    def __init__(self, image, store: ParamStore, cfg: EncoderConfig, labels=None):
        image = np.asarray(image, dtype=np.float64)
        if image.shape != (cfg.input_h, cfg.input_w, cfg.channels):
            raise ValueError(
                f"image shape {image.shape} does not match config "
                f"{(cfg.input_h, cfg.input_w, cfg.channels)}"
            )
        if labels is not None and labels.shape != (cfg.input_h, cfg.input_w):
            raise ValueError("label map shape does not match the image")
        self.image = image
        self.store = store
        self.cfg = cfg
        self.labels = labels
        self.bmap = (
            boundary.boundary_map(labels, cfg.connectivity) if labels is not None else None
        )
        self.token_set: MixedResolutionTokenSet | None = None
        self.feats: Tensor | None = None
        self.laterals: dict[str, Lateral] = {}
        self.rounds: list[RoundRecord] = []
        self.score_tensors: list[Tensor | None] = [None] * ROUNDS

    # -- pre-allocation ----------------------------------------------------

    def begin(self):
        cfg, store = self.cfg, self.store
        with flops.section("stage1.embed"):
            self.token_set = geometry.coarse_grid(cfg.input_h, cfg.input_w)
            keys = self.token_set.keys
            patches = np.stack(
                [self.image[k.rect()[0] : k.rect()[2], k.rect()[1] : k.rect()[3]].reshape(-1) for k in keys]
            )
            grid_w = cfg.input_w // 32
            pos_idx = [k.row * grid_w + k.col for k in keys]
            x = tensor.add(tensor.matmul(tensor.constant(patches), store["s1.embed.w"]), store["s1.embed.b"])
            self.feats = tensor.add(x, tensor.gather_rows(store["s1.embed.pos"], pos_idx))
        with flops.section("stage1.pre"):
            heads = cfg.heads_for(cfg.stage1_dims[0])
            rows = np.arange(self.token_set.n_valid)
            for i in range(cfg.stage1_blocks[0]):
                self.feats = clusterattn.vit_block(self.feats, rows, store, f"s1.pre.{i}", heads)
        self.snapshot("pre")

    # -- allocation round hooks ---------------------------------------------

    def enter_round(self, r: int):
        with flops.section(f"stage1.r{r}"):
            p = self.store[f"s1.r{r}.proj.w"]
            self.feats = tensor.add(tensor.matmul(self.feats, p), self.store[f"s1.r{r}.proj.b"])

    def score_round(self, r: int) -> np.ndarray:
        rows = self.token_set.rows_of(self.token_set.frontier)
        if not rows:
            return np.zeros(0)
        with flops.section(f"stage1.r{r}"):
            store = self.store
            g = tensor.gather_rows(self.feats, rows)
            h = tensor.gelu(tensor.add(tensor.matmul(g, store[f"s1.r{r}.score1.w"]), store[f"s1.r{r}.score1.b"]))
            z = tensor.add(tensor.matmul(h, store[f"s1.r{r}.score2.w"]), store[f"s1.r{r}.score2.b"])
            s = tensor.sigmoid(z)
        self.score_tensors[r - 1] = s
        return s.data.ravel().copy()

    def targets_round(self) -> np.ndarray | None:
        if self.bmap is None:
            return None
        return boundary.target_scores(self.bmap, self.token_set.frontier)

    def allocate_round(self, r: int, selected, scores: np.ndarray, targets, source: str):
        frontier = self.token_set.frontier
        self.rounds.append(
            RoundRecord(
                round_index=r,
                frontier=tuple(frontier),
                candidate_count=len(frontier),
                scores=np.asarray(scores, dtype=np.float64),
                targets=None if targets is None else np.asarray(targets, dtype=np.float64),
                selected=tuple(selected),
                selected_count=len(selected),
                selection_source=source,
            )
        )
        if not selected:
            self.token_set = replace(self.token_set, frontier=())
            return
        not_frontier = set(selected) - set(frontier)
        if not_frontier:
            raise ContractError(f"selection outside the round-{r} frontier: {not_frontier}")
        with flops.section(f"stage1.r{r}"):
            merged = tensor.concat([self.feats, self._child_features(r, selected)], axis=0)
            self.token_set, perm = self.token_set.with_children(selected)
            self.feats = tensor.gather_rows(merged, perm)

    def _child_features(self, r: int, selected) -> Tensor:
        cfg, store = self.cfg, self.store
        d = cfg.stage1_dims[r]
        parent_rows = np.repeat(self.token_set.rows_of(selected), 4)
        slot_idx = np.tile(np.arange(4), len(selected))
        feat = None
        if not cfg.no_aux_image:
            rects = [c.rect() for p in selected for c in geometry.split(p)]
            pix = np.stack([self.image[y0:y1, x0:x1].reshape(-1) for y0, x0, y1, x1 in rects])
            t = tensor.add(tensor.matmul(tensor.constant(pix), store[f"s1.r{r}.child.pix.w"]), store[f"s1.r{r}.child.pix.b"])
            h = tensor.gelu(tensor.add(tensor.matmul(t, store[f"s1.r{r}.child.mlp1.w"]), store[f"s1.r{r}.child.mlp1.b"]))
            feat = tensor.add(tensor.matmul(h, store[f"s1.r{r}.child.mlp2.w"]), store[f"s1.r{r}.child.mlp2.b"])
        if not cfg.no_residual:
            residual = tensor.gather_rows(self.feats, parent_rows)
            feat = residual if feat is None else tensor.add(feat, residual)
        if feat is None:
            feat = tensor.constant(np.zeros((4 * len(selected), d)))
        feat = tensor.add(feat, store[f"s1.r{r}.scale_emb"])
        return tensor.add(feat, tensor.gather_rows(store[f"s1.r{r}.slot_emb"], slot_idx))

    def attend_round(self, r: int):
        cfg = self.cfg
        if cfg.stage1_blocks[r] == 0:
            return
        with flops.section(f"stage1.r{r}"):
            assignment = clusterattn.cluster(self.token_set, cfg.cluster_size)
            heads = cfg.heads_for(cfg.stage1_dims[r])
            for i in range(cfg.stage1_blocks[r]):
                self.feats = clusterattn.cluster_attention_block(
                    self.feats, self.token_set, assignment, self.store, f"s1.r{r}.blk{i}", heads
                )

    def snapshot(self, name: str):
        self.laterals[name] = Lateral(self.token_set, self.feats)

    def output(self) -> Stage1Output:
        return Stage1Output(
            token_set=self.token_set,
            feats=self.feats,
            trace=AllocationTrace(self.rounds),
            laterals=self.laterals,
            score_tensors=self.score_tensors,
        )


def choose_selection(
    cfg: EncoderConfig,
    r: int,
    frontier,
    scores: np.ndarray,
    targets,
    use_oracle: bool,
    ratio_rng,
) -> tuple[list[TokenKey], str]:
    frontier = list(frontier)
    n = len(frontier)
    if cfg.policy == "dense":
        return frontier, "dense"
    if cfg.policy == "random_ratio":
        k = int(np.floor(cfg.ratio_schedule[r - 1] * n + 0.5))
        idx = np.sort(ratio_rng.choice(n, size=k, replace=False)) if k else np.zeros(0, np.intp)
        return [frontier[i] for i in idx], "random"
    if use_oracle:
        if targets is None:
            raise ValueError("oracle_mix selection needs a label map")
        idx, _ = select(targets, cfg.thresholds[r - 1])
        return [frontier[i] for i in idx], "oracle"
    idx, _ = select(scores, cfg.thresholds[r - 1])
    return [frontier[i] for i in idx], "predicted"


def _drive_rounds(run: Stage1Run, use_oracle: bool, batch_index: int, i: int):
    cfg = run.cfg
    for r in range(1, ROUNDS + 1):
        run.enter_round(r)
        scores = run.score_round(r)
        targets = run.targets_round()
        ratio_rng = rng_for(cfg.policy_seed, "ratio", batch_index, i, r)
        with flops.section(f"stage1.r{r}"):
            selected, source = choose_selection(cfg, r, run.token_set.frontier, scores, targets, use_oracle, ratio_rng)
        run.allocate_round(r, selected, scores, targets, source)
        run.attend_round(r)
        if r < ROUNDS:
            run.snapshot(f"alloc{r}")


def run_stage1(
    image,
    store: ParamStore,
    cfg: EncoderConfig,
    labels=None,
    *,
    batch_index: int = 0,
) -> Stage1Output:
    """Full Stage-1 pass for a single sample (a batch of one, so unpadded)."""
    return run_stage1_batch([image], store, cfg, None if labels is None else [labels], batch_index=batch_index)[0]


def run_stage1_batch(
    images,
    store: ParamStore,
    cfg: EncoderConfig,
    labels_list=None,
    *,
    batch_index: int = 0,
) -> list[Stage1Output]:
    """Batch forward: each sample runs alone, then every final token set is
    padded per level to the batch maximum with zero, invalid feature rows, so
    `n_rows` is equal across the batch. Sample i draws its random_ratio
    selections from stream i; its first `n_valid` rows equal a solo run's
    whenever the selection does not depend on i."""
    if labels_list is None:
        labels_list = [None] * len(images)
    runs = [Stage1Run(im, store, cfg, lab) for im, lab in zip(images, labels_list)]
    use_oracle = cfg.policy == "oracle_mix" and oracle_mix_gate(cfg.oracle_rate, cfg.policy_seed, batch_index)
    if use_oracle and any(run.labels is None for run in runs):
        raise ValueError("policy=oracle_mix selected the oracle for this batch but labels are missing")
    for i, run in enumerate(runs):
        run.begin()
        _drive_rounds(run, use_oracle, batch_index, i)
    outs = [run.output() for run in runs]
    padded, _ = pad_and_mask([o.token_set for o in outs])
    for o, token_set in zip(outs, padded):
        extra = token_set.n_rows - token_set.n_valid
        if extra:
            zeros = tensor.constant(np.zeros((extra, o.feats.data.shape[1])))
            o.feats = tensor.concat([o.feats, zeros], axis=0)
        o.token_set = token_set
    return outs


def pad_and_mask(token_sets) -> tuple[list[MixedResolutionTokenSet], list[np.ndarray]]:
    """Pad finished token sets per level to the batch maximum; returns the
    padded sets and their validity masks."""
    sets = list(token_sets)
    max_per_level = [0] * (geometry.MAX_LEVEL + 1)
    for s in sets:
        for lvl, c in enumerate(s.counts_per_level()):
            max_per_level[lvl] = max(max_per_level[lvl], c)
    padded = []
    for s in sets:
        pads = []
        for lvl, c in enumerate(s.counts_per_level()):
            pads.extend([lvl] * (max_per_level[lvl] - c))
        padded.append(s.with_padding(pads))
    return padded, [s.valid_mask() for s in padded]
