"""Bottom-up adaptive token allocation.

One pass embeds the coarse 32x32 grid, runs a small pre-allocation ViT,
then performs three allocation rounds. Each round projects carried tokens
down to the round's width, scores only the frontier (the tokens created by
the previous round), selects the ones whose score clears the round
threshold, splits each selected patch into four children, and mixes the
grown token set with cluster attention. Lateral snapshots are kept for the
top-down refinement stage.

A batch runs its rounds in lockstep on one stacked feature matrix: sample
i's rows follow sample i-1's, so every row-wise op is one tape node per
batch. GEMMs run once per sample segment and attention windows stay inside
their sample, so each row is computed exactly as in a solo run. Only the
allocation decisions are made per sample. The per-sample outputs are padded
per level to the batch maximum; Stage 2 consumes the stacked, unpadded
batch.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import boundary, clusterattn, flops, geometry, tensor
from .config import ROUNDS, EncoderConfig
from .errors import ContractError
from .geometry import MixedResolutionTokenSet, TokenBatch, TokenKey
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
    token_set: MixedResolutionTokenSet | TokenBatch  # a TokenBatch when stacked
    feats: Tensor


@dataclass
class Stage1Output:
    """One sample's Stage-1 result. From a batch its tensors are detached
    views of the sample's rows (the padded `feats` a copy); `stacked()`
    turns it into the batch of one that Stage 2 takes."""

    token_set: MixedResolutionTokenSet
    feats: Tensor  # rows from token_set.n_valid on: zero batch padding
    trace: AllocationTrace
    laterals: dict[str, Lateral]
    score_tensors: list[Tensor | None]  # per round, rows follow the frontier

    def stacked(self) -> "Stage1Batch":
        """This sample as a batch of one, without its padding rows."""
        token_set, feats = self.token_set, self.feats
        if token_set.pad_levels:
            token_set = replace(token_set, pad_levels=())
            feats = tensor.gather_rows(feats, np.arange(token_set.n_valid))
        return Stage1Batch(TokenBatch((token_set,)), feats, self.laterals, self.score_tensors, [self])


@dataclass
class Stage1Batch(Sequence):
    """A batch's Stage-1 result, stacked: sample i's rows follow sample
    i-1's in `feats`, in every lateral and, per round, in `score_tensors`.
    Indexing yields the per-sample outputs, padded per level to the batch
    maximum."""

    tokens: TokenBatch
    feats: Tensor
    laterals: dict[str, Lateral]
    score_tensors: list[Tensor | None]  # per round, each sample's frontier rows
    outputs: list[Stage1Output]

    def __getitem__(self, i):
        return self.outputs[i]

    def __len__(self) -> int:
        return len(self.outputs)

    def stacked(self) -> "Stage1Batch":
        return self


def allocator_mse(s1: Stage1Output | Stage1Batch, samples=None) -> tuple[Tensor, list[int]] | None:
    """Per-sample differentiable MSE of predicted vs target scores pooled
    over rounds, for those of `samples` (default: all) with scored, labelled
    frontier tokens; also their indices. None when there are none."""
    s1 = s1.stacked()
    scored = [r for r, st in enumerate(s1.score_tensors) if st is not None]
    if not scored:
        return None
    # row of sample i's first score of round r in the concatenated tensors
    first, base = {}, 0
    for r in scored:
        for i, out in enumerate(s1):
            first[i, r] = base
            base += out.trace.rounds[r].candidate_count
    rows, targets, counts, ids = [], [], [], []
    for i in range(len(s1)) if samples is None else samples:
        recs = [(r, s1[i].trace.rounds[r]) for r in scored]
        recs = [(r, rec) for r, rec in recs if rec.targets is not None and rec.candidate_count]
        if recs:
            rows.extend(np.arange(first[i, r], first[i, r] + rec.candidate_count) for r, rec in recs)
            targets.extend(rec.targets for _, rec in recs)
            counts.append(sum(rec.candidate_count for _, rec in recs))
            ids.append(i)
    if not ids:
        return None
    preds = [s1.score_tensors[r] for r in scored]
    pred = tensor.gather_rows(tensor.concat(preds) if len(preds) > 1 else preds[0], np.concatenate(rows))
    target = tensor.constant(np.concatenate(targets).reshape(-1, 1))
    return tensor.mse(pred, target, counts), ids


class Stage1Run:
    """Lockstep round state for a batch on one stacked feature matrix;
    `run_stage1_batch` drives the hooks. Row-wise ops run once per batch;
    per-sample lists (token sets, round records) follow batch order."""

    def __init__(self, images, store: ParamStore, cfg: EncoderConfig, labels_list=None):
        labels_list = [None] * len(images) if labels_list is None else list(labels_list)
        self.images = []
        for image, labels in zip(images, labels_list):
            image = np.asarray(image, dtype=np.float64)
            if image.shape != (cfg.input_h, cfg.input_w, cfg.channels):
                raise ValueError(
                    f"image shape {image.shape} does not match config "
                    f"{(cfg.input_h, cfg.input_w, cfg.channels)}"
                )
            if labels is not None and labels.shape != (cfg.input_h, cfg.input_w):
                raise ValueError("label map shape does not match the image")
            self.images.append(image)
        self.store = store
        self.cfg = cfg
        self.labels = labels_list
        # one summed-area table per labelled sample scores every round's targets
        self.boundary_counts = [
            None if labels is None else boundary.SummedArea(boundary.boundary_map(labels, cfg.connectivity))
            for labels in labels_list
        ]
        self.tokens: TokenBatch | None = None
        self.feats: Tensor | None = None  # every sample's rows, stacked
        self.laterals: dict[str, Lateral] = {}
        self.rounds: list[list[RoundRecord]] = [[] for _ in self.images]
        self.score_tensors: list[Tensor | None] = [None] * ROUNDS

    @property
    def token_sets(self) -> tuple[MixedResolutionTokenSet, ...]:
        return self.tokens.sets

    # -- pre-allocation ----------------------------------------------------

    def begin(self):
        cfg, store = self.cfg, self.store
        grid_w = cfg.input_w // geometry.COARSE_SIDE
        with flops.section("stage1.embed"):
            self.tokens = TokenBatch(tuple(geometry.coarse_grid(cfg.input_h, cfg.input_w) for _ in self.images))
            patches, pos_idx = [], []
            for image, token_set in zip(self.images, self.tokens.sets):
                _, row, col = token_set.table[:, :3].T
                patches.append(geometry.patches(image, 0, row, col))
                pos_idx.append(row * grid_w + col)
            pos_idx = np.concatenate(pos_idx)
            segments = self.tokens.segments
            x = tensor.linear(tensor.constant(np.concatenate(patches)), store["s1.embed.w"], store["s1.embed.b"], segments)
            self.feats = tensor.add(x, tensor.gather_rows(store["s1.embed.pos"], pos_idx))
        with flops.section("stage1.pre"):
            heads = cfg.heads_for(cfg.stage1_dims[0])
            rows = np.arange(len(pos_idx))
            for i in range(cfg.stage1_blocks[0]):
                self.feats = clusterattn.vit_block(self.feats, rows, store, f"s1.pre.{i}", heads, segments)
        self.snapshot("pre")

    # -- allocation round hooks ---------------------------------------------

    def enter_round(self, r: int):
        with flops.section(f"stage1.r{r}"):
            store = self.store
            self.feats = tensor.linear(self.feats, store[f"s1.r{r}.proj.w"], store[f"s1.r{r}.proj.b"], self.tokens.segments)

    def score_round(self, r: int) -> list[np.ndarray]:
        """Scores of every sample's frontier, in frontier order."""
        tokens = self.tokens
        rows = np.concatenate([o + s.frontier_rows for s, o in zip(tokens.sets, tokens.offsets)])
        counts = [len(s.frontier_rows) for s in tokens.sets]
        if not len(rows):
            return [np.zeros(0) for _ in counts]
        with flops.section(f"stage1.r{r}"):
            store = self.store
            g = tensor.gather_rows(self.feats, rows)
            h = tensor.gelu(tensor.linear(g, store[f"s1.r{r}.score1.w"], store[f"s1.r{r}.score1.b"], counts))
            s = tensor.sigmoid(tensor.linear(h, store[f"s1.r{r}.score2.w"], store[f"s1.r{r}.score2.b"], counts))
        self.score_tensors[r - 1] = s
        bounds = list(itertools.accumulate(counts, initial=0))
        return [s.data[lo:hi, 0].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]

    def targets_round(self) -> list[np.ndarray | None]:
        return [
            None if counts is None else boundary.target_scores(counts, s.table[s.frontier_rows])
            for counts, s in zip(self.boundary_counts, self.token_sets)
        ]

    def allocate_round(self, r: int, picks, scores, targets):
        """Split every sample's selection; `picks` holds one (selected keys,
        selection source) pair per sample, as `choose_selection` returns."""
        parent_rows = []
        for i, ((selected, source), s) in enumerate(zip(picks, self.token_sets)):
            selected = tuple(selected)
            self.rounds[i].append(
                RoundRecord(
                    round_index=r,
                    frontier=s.frontier,
                    candidate_count=len(s.frontier),
                    scores=np.asarray(scores[i], dtype=np.float64),
                    targets=None if targets[i] is None else np.asarray(targets[i], dtype=np.float64),
                    selected=selected,
                    selected_count=len(selected),
                    selection_source=source,
                )
            )
            if len(set(selected)) != len(selected):
                repeated = sorted(k for k, c in Counter(selected).items() if c > 1)
                raise ContractError(f"round-{r} selection names a parent more than once: {repeated}")
            row_of = dict(zip(s.frontier, s.frontier_rows.tolist()))
            not_frontier = {k for k in selected if k not in row_of}
            if not_frontier:
                raise ContractError(f"selection outside the round-{r} frontier: {not_frontier}")
            parent_rows.append(np.array([row_of[k] for k in selected], dtype=np.intp))
        if not any(len(rows) for rows in parent_rows):
            self.tokens = TokenBatch(tuple(s.without_frontier() for s in self.token_sets))
            return
        with flops.section(f"stage1.r{r}"):
            tokens = self.tokens
            merged = tensor.concat([self.feats, self._child_features(r, parent_rows)], axis=0)
            # sample i's grown rows: its old rows, then its children, which
            # follow every old row in `merged`
            child_row, perm, grown = tokens.n_valid, [], []
            for s, o, rows in zip(tokens.sets, tokens.offsets, parent_rows):
                if not len(rows):
                    grown.append(s.without_frontier())
                    perm.append(o + np.arange(s.n_valid))
                    continue
                s_new, p = s.grow(rows)
                perm.append(np.where(p < s.n_valid, o + p, child_row + p - s.n_valid))
                child_row += 4 * len(rows)
                grown.append(s_new)
            self.tokens = TokenBatch(tuple(grown))
            self.feats = tensor.gather_rows(merged, np.concatenate(perm))

    def _child_features(self, r: int, parent_rows) -> Tensor:
        """Features of every sample's children, in sample, `parent_rows` x
        `split` order."""
        cfg, store = self.cfg, self.store
        d = cfg.stage1_dims[r]
        tokens = self.tokens
        counts = [4 * len(rows) for rows in parent_rows]
        slot_idx = np.tile(np.arange(4), sum(counts) // 4)
        feat = None
        if not cfg.no_aux_image:
            pix = []
            for image, s, rows in zip(self.images, tokens.sets, parent_rows):
                if len(rows):
                    _, row, col, _ = s.children(rows).T
                    pix.append(geometry.patches(image, r, row, col))
            pix = np.concatenate(pix)
            t = tensor.linear(tensor.constant(pix), store[f"s1.r{r}.child.pix.w"], store[f"s1.r{r}.child.pix.b"], counts)
            h = tensor.gelu(tensor.linear(t, store[f"s1.r{r}.child.mlp1.w"], store[f"s1.r{r}.child.mlp1.b"], counts))
            feat = tensor.linear(h, store[f"s1.r{r}.child.mlp2.w"], store[f"s1.r{r}.child.mlp2.b"], counts)
        if not cfg.no_residual:
            stacked_rows = np.concatenate([o + np.repeat(rows, 4) for o, rows in zip(tokens.offsets, parent_rows)])
            residual = tensor.gather_rows(self.feats, stacked_rows)
            feat = residual if feat is None else tensor.add(feat, residual)
        if feat is None:
            feat = tensor.constant(np.zeros((sum(counts), d)))
        feat = tensor.add(feat, store[f"s1.r{r}.scale_emb"])
        return tensor.add(feat, tensor.gather_rows(store[f"s1.r{r}.slot_emb"], slot_idx))

    def attend_round(self, r: int):
        cfg = self.cfg
        if cfg.stage1_blocks[r] == 0:
            return
        with flops.section(f"stage1.r{r}"):
            tokens = self.tokens
            assignment = clusterattn.cluster(tokens, cfg.cluster_size)
            heads = cfg.heads_for(cfg.stage1_dims[r])
            for i in range(cfg.stage1_blocks[r]):
                self.feats = clusterattn.cluster_attention_block(
                    self.feats, tokens, assignment, self.store, f"s1.r{r}.blk{i}", heads
                )

    def snapshot(self, name: str):
        self.laterals[name] = Lateral(self.tokens, self.feats)

    def output(self) -> Stage1Batch:
        """The stacked batch, with per-sample outputs padded per level to the
        batch maximum (zero feature rows), so `n_rows` is equal across it."""
        tokens = self.tokens
        outputs = []
        for i, padded in enumerate(pad_and_mask(tokens.sets)):
            feats = _sample_rows(self.feats, tokens, i)
            if padded.n_rows > padded.n_valid:
                zeros = np.zeros((padded.n_rows - padded.n_valid, feats.shape[1]))
                feats = np.concatenate([feats, zeros])
            laterals = {
                name: Lateral(lat.token_set.sets[i], Tensor(_sample_rows(lat.feats, lat.token_set, i)))
                for name, lat in self.laterals.items()
            }
            scores = []
            for st, rec in zip(self.score_tensors, self.rounds[i]):
                if st is None or not rec.candidate_count:
                    scores.append(None)
                    continue
                lo = sum(rounds[rec.round_index - 1].candidate_count for rounds in self.rounds[:i])
                scores.append(Tensor(st.data[lo : lo + rec.candidate_count]))
            outputs.append(Stage1Output(padded, Tensor(feats), AllocationTrace(self.rounds[i]), laterals, scores))
        return Stage1Batch(tokens, self.feats, self.laterals, self.score_tensors, outputs)


def _sample_rows(feats: Tensor, tokens: TokenBatch, i: int) -> np.ndarray:
    """Sample i's rows of a stacked feature tensor (a view)."""
    lo = tokens.offsets[i]
    return feats.data[lo : lo + tokens.segments[i]]


def choose_selection(
    cfg: EncoderConfig,
    r: int,
    frontier,
    scores: np.ndarray,
    targets,
    use_oracle: bool,
    ratio_rng,
) -> tuple[list[TokenKey], str]:
    """One sample's selected frontier keys and their source; `ratio_rng` is
    its random_ratio stream (None under every other policy)."""
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
) -> Stage1Batch:
    """Batch forward: all samples run their rounds in lockstep on one stacked
    feature tensor, and every per-sample output is padded per level to the
    batch maximum with zero, invalid feature rows, so `n_rows` is equal
    across the batch. Sample i draws its random_ratio selections from stream
    i; its first `n_valid` rows equal a solo run's whenever the selection
    does not depend on i."""
    run = Stage1Run(images, store, cfg, labels_list)
    use_oracle = cfg.policy == "oracle_mix" and oracle_mix_gate(cfg.oracle_rate, cfg.policy_seed, batch_index)
    if use_oracle and any(labels is None for labels in run.labels):
        raise ValueError("policy=oracle_mix selected the oracle for this batch but labels are missing")
    run.begin()
    for r in range(1, ROUNDS + 1):
        run.enter_round(r)
        scores = run.score_round(r)
        targets = run.targets_round()
        with flops.section(f"stage1.r{r}"):
            picks = [
                choose_selection(
                    cfg, r, s.frontier, scores[i], targets[i], use_oracle,
                    # only random_ratio reads its stream
                    rng_for(cfg.policy_seed, "ratio", batch_index, i, r) if cfg.policy == "random_ratio" else None,
                )
                for i, s in enumerate(run.token_sets)
            ]
        run.allocate_round(r, picks, scores, targets)
        run.attend_round(r)
        if r < ROUNDS:
            run.snapshot(f"alloc{r}")
    return run.output()


def pad_and_mask(token_sets) -> list[MixedResolutionTokenSet]:
    """Pad finished token sets per level to the batch maximum."""
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
    return padded
