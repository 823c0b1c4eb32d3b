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
batch. Each sample segment gets its own GEMM (segments of one length as
one stacked matmul) and attention windows stay inside their sample, so each
row is computed exactly as in a solo run. The labels arrive as
`boundary.LabelTables` (derived once per training run, or per batch when a
forward is given label maps), and each round scores the whole frontier's
oracle targets in one gather from the batch's stacked summed-area table.
Only the allocation decisions are made per sample. The result stays
stacked, and Stage 2 consumes it unpadded; a sample's output, padded per
level to the batch maximum, is made only when the batch is indexed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import boundary, clusterattn, flops, geometry, tensor
from .config import ROUNDS, EncoderConfig
from .errors import ContractError
from .geometry import TokenBatch, TokenKey, table_keys
from .params import ParamStore, rng_for
from .tensor import Tensor


def select(scores, threshold: float) -> tuple[np.ndarray, int]:
    """Indices of scores strictly above the threshold, and their count."""
    if not threshold > 0:  # NaN too
        raise ValueError(f"selection threshold must be positive, got {threshold}")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    flops.add_cost(comparisons=scores.size)
    idx = np.flatnonzero(scores > threshold)
    return idx, int(idx.size)


def oracle_mix_gate(rate: float, seed: int, draw: int) -> bool:
    """Seed-deterministic choice, per draw, between oracle and predicted
    scores for selection, at a config's `oracle_rate`. A uniform variate in
    [0, 1) always passes at rate 1 and never at rate 0, so those rates build
    no generator."""
    if rate in (0.0, 1.0):
        return rate == 1.0
    return bool(rng_for(seed, "oracle_gate", draw).random() < rate)


@dataclass
class RoundRecord:
    """One sample's allocation round: the token-table rows of the frontier
    it scored, and the positions in that frontier of the tokens it split."""

    round_index: int
    frontier_table: np.ndarray
    picked: np.ndarray
    scores: np.ndarray
    targets: np.ndarray | None
    selection_source: str  # predicted | oracle | random | dense

    @property
    def frontier(self) -> tuple[TokenKey, ...]:
        return table_keys(self.frontier_table)

    @property
    def selected(self) -> tuple[TokenKey, ...]:
        return table_keys(self.frontier_table[self.picked])

    @property
    def candidate_count(self) -> int:
        return len(self.frontier_table)

    @property
    def selected_count(self) -> int:
        return len(self.picked)


@dataclass
class AllocationTrace:
    rounds: list[RoundRecord]

    def tokens_per_level(self, coarse_tokens: int) -> list[int]:
        return [coarse_tokens] + [4 * r.selected_count for r in self.rounds]


@dataclass
class Lateral:
    token_set: TokenBatch  # the tokens of feats' rows: one sample's, or the batch's
    feats: Tensor


@dataclass
class Stage1Output:
    """One sample's Stage-1 result, made by indexing a `Stage1Batch`: its
    tensors are detached views of the sample's rows (the padded `feats` a
    copy). `stacked()` turns it into the batch of one that Stage 2 takes."""

    token_set: TokenBatch  # one segment, and `pad_levels` for the padding
    feats: Tensor | None  # rows from token_set.n_valid on: zero batch padding; None once handed to Stage 2
    trace: AllocationTrace
    laterals: dict[str, Lateral] | None  # None once handed to Stage 2
    score_tensors: list[Tensor | None]  # per round, rows follow the frontier

    def stacked(self) -> "Stage1Batch":
        """This sample as a batch of one, without its padding rows."""
        token_set, feats = self.token_set, self.feats
        if token_set.pad_levels and feats is not None:
            token_set = replace(token_set, pad_levels=())
            feats = tensor.gather_rows(feats, np.arange(token_set.n_valid))
        return Stage1Batch(token_set, feats, self.laterals, self.score_tensors, [self.trace], None)


@dataclass
class Stage1Batch(Sequence):
    """A batch's Stage-1 result, stacked: sample i's rows follow sample
    i-1's in `feats`, in every lateral and, per round, in `score_tensors`;
    `traces` holds each sample's allocation trace and `labels` the tables
    its rounds scored against (None without labels, and for a sample's
    `stacked()`). Indexing builds that sample's `Stage1Output`, padded per
    level to the batch maximum with zero feature rows, so `n_rows` is equal
    across the batch. A forward hands `feats` and `laterals` to Stage 2 and
    keeps a copy of the batch with both None."""

    tokens: TokenBatch
    feats: Tensor | None
    laterals: dict[str, Lateral] | None
    score_tensors: list[Tensor | None]  # per round, each sample's frontier rows
    traces: list[AllocationTrace]
    labels: boundary.LabelTables | None

    def __getitem__(self, i: int) -> Stage1Output:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)

        def own(a, segments):  # sample i's rows of a stacked array
            lo = sum(segments[:i])
            return a[lo : lo + segments[i]]

        counts = self.tokens.level_counts()
        pads = counts.max(axis=0) - counts[i]
        token_set = replace(self.tokens.sets[i], pad_levels=tuple(np.repeat(np.arange(len(pads)), pads).tolist()))
        feats = laterals = None
        if self.feats is not None:
            feats = own(self.feats.data, self.tokens.segments)
            if pads.any():
                feats = np.concatenate([feats, np.zeros((pads.sum(), feats.shape[1]))])
            feats = Tensor(feats)
        if self.laterals is not None:
            laterals = {
                name: Lateral(lat.token_set.sets[i], Tensor(own(lat.feats.data, lat.token_set.segments)))
                for name, lat in self.laterals.items()
            }
        scores = []
        for r, st in enumerate(self.score_tensors):
            frontiers = [t.rounds[r].candidate_count for t in self.traces]
            scores.append(None if st is None or not frontiers[i] else Tensor(own(st.data, frontiers)))
        return Stage1Output(token_set, feats, self.traces[i], laterals, scores)

    def __len__(self) -> int:
        return len(self.traces)

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
    # each sample's rows of the concatenated score tensors, round by round
    counts = np.array([[t.rounds[r].candidate_count for t in s1.traces] for r in scored])
    owner = np.repeat(np.tile(np.arange(len(s1)), len(scored)), counts.ravel())
    rows = geometry.segment_views(np.argsort(owner, kind="stable"), counts.sum(axis=0).tolist())
    ids = [
        i
        for i in (range(len(s1)) if samples is None else samples)
        if len(rows[i]) and all(s1.traces[i].rounds[r].targets is not None for r in scored)
    ]
    if not ids:
        return None
    preds = [s1.score_tensors[r] for r in scored]
    pred = tensor.gather_rows(tensor.concat(preds) if len(preds) > 1 else preds[0], np.concatenate([rows[i] for i in ids]))
    target = np.concatenate([s1.traces[i].rounds[r].targets for i in ids for r in scored])
    return tensor.mse(pred, Tensor(target.reshape(-1, 1)), [len(rows[i]) for i in ids]), ids


class Stage1Run:
    """Lockstep round state for a batch on one stacked feature matrix;
    `run_stage1_batch` drives the hooks, each round's inside its one
    `stage1.r{r}` FLOPs section. Row-wise ops run once per batch
    and the tokens are one `TokenBatch`; the per-sample round records
    follow batch order."""

    def __init__(self, images, store: ParamStore, cfg: EncoderConfig, labels=None):
        """`labels` is a list of label maps (None for an unlabelled sample),
        their `LabelTables`, or None. Every input is checked here, once per
        forward: a mis-sized image is named before its label map."""
        shape = (cfg.input_h, cfg.input_w, cfg.channels)
        self.images = [np.asarray(image, dtype=np.float64) for image in images]
        for image in self.images:
            if image.shape != shape:
                raise ValueError(f"image shape {image.shape} does not match config {shape}")
        self.store = store
        self.cfg = cfg
        if labels is None or isinstance(labels, boundary.LabelTables):
            self.tables = labels
        else:
            self.tables = boundary.LabelTables.build(list(labels), shape[:2], cfg.connectivity)
        want = (len(self.images),) + shape[:2]
        if self.tables is not None and self.tables.bmaps.shape != want:
            raise ValueError(f"label tables of shape {self.tables.bmaps.shape} for images {want}")
        # one summed-area table over the batch's stacked boundary maps scores
        # every round's targets
        self.boundary_counts = None if self.tables is None else boundary.SummedArea(self.tables.bmaps)
        self.tokens: TokenBatch | None = None
        self.feats: Tensor | None = None  # every sample's rows, stacked
        self.laterals: dict[str, Lateral] = {}
        self.rounds: list[list[RoundRecord]] = [[] for _ in self.images]
        self.score_tensors: list[Tensor | None] = [None] * ROUNDS

    # -- pre-allocation ----------------------------------------------------

    def begin(self):
        cfg, store = self.cfg, self.store
        grid_w = cfg.input_w // geometry.COARSE_SIDE
        with flops.section("stage1.embed"):
            grids = [geometry.coarse_grid(cfg.input_h, cfg.input_w) for _ in self.images]
            self.tokens = TokenBatch.stack(grids)
            patches = [geometry.patches(image, 0, g.table[:, 1], g.table[:, 2]) for image, g in zip(self.images, grids)]
            pos_idx = self.tokens.table[:, 1] * grid_w + self.tokens.table[:, 2]
            segments = self.tokens.segments
            x = tensor.linear(Tensor(np.concatenate(patches)), store["s1.embed.w"], store["s1.embed.b"], segments)
            self.feats = tensor.add(x, tensor.gather_rows(store["s1.embed.pos"], pos_idx))
            del x
        with flops.section("stage1.pre"):
            heads = cfg.heads_for(cfg.stage1_dims[0])
            for i in range(cfg.stage1_blocks[0]):
                self.feats = clusterattn.vit_block(self.feats, store, f"s1.pre.{i}", heads, segments)
        self.snapshot("pre")

    # -- allocation round hooks ---------------------------------------------

    def enter_round(self, r: int):
        store = self.store
        self.feats = tensor.linear(self.feats, store[f"s1.r{r}.proj.w"], store[f"s1.r{r}.proj.b"], self.tokens.segments)

    def score_round(self, r: int) -> list[np.ndarray]:
        """Scores of every sample's frontier, in frontier order."""
        tokens = self.tokens
        counts = [len(rows) for rows in tokens.frontiers]
        if not len(tokens.frontier_rows):
            return [np.zeros(0) for _ in counts]
        store = self.store
        g = tensor.gather_rows(self.feats, tokens.frontier_rows)
        w = [store[f"s1.r{r}.{nm}"] for nm in ("score1.w", "score1.b", "score2.w", "score2.b")]
        s = tensor.sigmoid(tensor.mlp(g, *w, counts))
        self.score_tensors[r - 1] = s
        return [a.copy() for a in geometry.segment_views(s.data[:, 0], counts)]

    def targets_round(self) -> list[np.ndarray | None]:
        """Targets of every sample's frontier, in frontier order (None for an
        unlabelled sample), scored in one gather from the batch's table."""
        tokens = self.tokens
        if self.boundary_counts is None:
            return [None] * len(self.images)
        rows = tokens.frontier_rows
        scores = boundary.target_scores(self.boundary_counts, tokens.table[rows], tokens.row_samples[rows])
        parts = geometry.segment_views(scores, [len(f) for f in tokens.frontiers])
        return [part if labelled else None for part, labelled in zip(parts, self.tables.labelled)]

    def allocate_round(self, r: int, picks, scores, targets):
        """Split every sample's selection; `picks` holds one (selected
        frontier positions, selection source) pair per sample, as
        `choose_selection` returns."""
        tokens = self.tokens
        parent_rows = []
        for i, ((picked, source), frontier_rows) in enumerate(zip(picks, tokens.frontiers)):
            picked = np.asarray(picked, dtype=np.intp)
            if np.any((picked < 0) | (picked >= len(frontier_rows))):
                raise ContractError(f"selection {picked.tolist()} outside round-{r} frontier of {len(frontier_rows)}")
            self.rounds[i].append(
                RoundRecord(
                    round_index=r,
                    frontier_table=tokens.table[frontier_rows],
                    picked=picked,
                    scores=np.asarray(scores[i], dtype=np.float64),
                    targets=None if targets[i] is None else np.asarray(targets[i], dtype=np.float64),
                    selection_source=source,
                )
            )
            parent_rows.append(frontier_rows[picked])
        counts = [4 * len(rows) for rows in parent_rows]
        parent_rows = np.concatenate(parent_rows)
        uses = np.bincount(parent_rows, minlength=tokens.n_valid)
        if uses.max() > 1:
            raise ContractError(f"round-{r} selection names a parent more than once: {list(tokens.keys_at(uses > 1))}")
        if not len(parent_rows):
            self.tokens = tokens.without_frontier()
            return
        merged = tensor.concat([self.feats, self._child_features(r, parent_rows, counts)], axis=0)
        self.tokens, perm = tokens.grow(parent_rows)
        self.feats = tensor.gather_rows(merged, perm)

    def _child_features(self, r: int, parent_rows: np.ndarray, counts) -> Tensor:
        """Features of the children of the tokens at `parent_rows`, in
        `parent_rows` x child order; `counts` are each sample's children."""
        cfg, store = self.cfg, self.store
        d = cfg.stage1_dims[r]
        slot_idx = np.tile(np.arange(4), len(parent_rows))
        # the parent residual, added last in the child MLP's output
        feat = None if cfg.no_residual else tensor.gather_rows(self.feats, np.repeat(parent_rows, 4))
        if not cfg.no_aux_image:
            kids = geometry.segment_views(self.tokens.children(parent_rows), counts)
            pix = np.concatenate([geometry.patches(image, r, k[:, 1], k[:, 2]) for image, k in zip(self.images, kids)])
            t = tensor.linear(Tensor(pix), store[f"s1.r{r}.child.pix.w"], store[f"s1.r{r}.child.pix.b"], counts)
            w = [store[f"s1.r{r}.child.{nm}"] for nm in ("mlp1.w", "mlp1.b", "mlp2.w", "mlp2.b")]
            feat = tensor.mlp(t, *w, counts, plus=feat)
        if feat is None:
            feat = Tensor(np.zeros((sum(counts), d)))
        feat = tensor.add(feat, store[f"s1.r{r}.scale_emb"])
        return tensor.add(feat, tensor.gather_rows(store[f"s1.r{r}.slot_emb"], slot_idx))

    def attend_round(self, r: int):
        cfg, store = self.cfg, self.store
        if cfg.stage1_blocks[r] == 0:
            return
        tokens = self.tokens
        assignment = clusterattn.cluster(tokens, cfg.cluster_size)
        heads = cfg.heads_for(cfg.stage1_dims[r])
        for i in range(cfg.stage1_blocks[r]):
            self.feats = clusterattn.cluster_attention_block(self.feats, tokens, assignment, store, f"s1.r{r}.blk{i}", heads)

    def snapshot(self, name: str):
        self.laterals[name] = Lateral(self.tokens, self.feats)

    def output(self) -> Stage1Batch:
        traces = [AllocationTrace(rounds) for rounds in self.rounds]
        return Stage1Batch(self.tokens, self.feats, self.laterals, self.score_tensors, traces, self.tables)


def choose_selection(
    cfg: EncoderConfig,
    r: int,
    n: int,
    scores: np.ndarray,
    targets,
    use_oracle: bool,
    ratio_rng,
) -> tuple[np.ndarray, str]:
    """Positions, ascending, of one sample's selected tokens in its frontier
    of `n`, and their source; `ratio_rng` is its random_ratio stream (None
    under every other policy)."""
    if cfg.policy == "dense":
        return np.arange(n), "dense"
    if cfg.policy == "random_ratio":
        k = int(np.floor(cfg.ratio_schedule[r - 1] * n + 0.5))
        return (np.sort(ratio_rng.choice(n, size=k, replace=False)) if k else np.zeros(0, np.intp)), "random"
    if use_oracle:
        return select(targets, cfg.thresholds[r - 1])[0], "oracle"
    return select(scores, cfg.thresholds[r - 1])[0], "predicted"


def run_stage1(image, store: ParamStore, cfg: EncoderConfig, labels=None, *, batch_index: int = 0) -> Stage1Output:
    """Full Stage-1 pass for a single sample: a batch of one, so unpadded,
    keyed `(batch_index, 0)`."""
    return run_stage1_batch([image], store, cfg, None if labels is None else [labels], keys=[(batch_index, 0)])[0]


def run_stage1_batch(images, store: ParamStore, cfg: EncoderConfig, labels_list=None, *, keys=None) -> Stage1Batch:
    """Batch forward: all samples run their rounds in lockstep on one stacked
    feature tensor. Indexing the result builds a sample's output, padded per
    level to the batch maximum with zero, invalid feature rows, so `n_rows`
    is equal across the batch. `labels_list` holds each sample's label map
    (None when unlabelled) or is their `LabelTables`. `keys` holds each
    sample's `(draw, stream)` allocation key (default `(0, i)` for sample
    i): the oracle_mix gate is drawn per draw, and the random_ratio stream
    per key and round. So a sample's first `n_valid` rows equal a solo
    run's with the same key, whatever else the batch holds."""
    keys = [(0, i) for i in range(len(images))] if keys is None else keys
    run = Stage1Run(images, store, cfg, labels_list)
    gates = {}  # one oracle_mix gate per distinct draw, in order of first use
    if cfg.policy == "oracle_mix":
        gates = {d: oracle_mix_gate(cfg.oracle_rate, cfg.policy_seed, d) for d in dict.fromkeys(draw for draw, _ in keys)}
    use_oracle = [gates.get(draw, False) for draw, _ in keys]
    for i, use in enumerate(use_oracle):
        if use and (run.tables is None or not run.tables.labelled[i]):
            raise ValueError(f"policy=oracle_mix selected the oracle for sample {i} but its labels are missing")
    run.begin()
    for r in range(1, ROUNDS + 1):
        with flops.section(f"stage1.r{r}"):
            run.enter_round(r)
            scores = run.score_round(r)
            targets = run.targets_round()
            picks = [
                choose_selection(
                    cfg, r, len(rows), scores[i], targets[i], use_oracle[i],
                    # only random_ratio reads its stream
                    rng_for(cfg.policy_seed, "ratio", *keys[i], r) if cfg.policy == "random_ratio" else None,
                )
                for i, rows in enumerate(run.tokens.frontiers)
            ]
            run.allocate_round(r, picks, scores, targets)
            run.attend_round(r)
        if r < ROUNDS:
            run.snapshot(f"alloc{r}")
    return run.output()
