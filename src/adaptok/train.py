"""Desk-scale training: Adam on the allocator regression loss plus the
sanity segmentation head's cross entropy, end to end through both stages."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import boundary, stage1, stage2, tensor
from .boundary import IGNORE
from .config import EncoderConfig
from .params import ParamStore, rng_for
from .stage1 import Stage1Batch, Stage1Output
from .stage2 import Stage2Output
from .tensor import GradTape, Tensor


@dataclass
class ForwardResult:
    """One sample's outputs: detached row views of its batch's stacked
    tensors. Its loss is taken on the batch (`sample_loss`)."""

    s1out: Stage1Output
    s2out: Stage2Output
    dense: Tensor
    logits: Tensor
    cell_token: np.ndarray
    cell_labels: np.ndarray | None
    batch: BatchForward = field(repr=False, compare=False)
    index: int = 0


@dataclass
class BatchForward(Sequence):
    """One forward over a batch, stacked: sample i's cells follow sample
    i-1's in `dense`, `logits` and `cell_token`, and `labels` holds the
    label tables Stage 1 scored against (None without labels). Indexing
    yields per-sample ForwardResults, made on access (a result refers to
    its batch, so the batch keeps none: no reference cycle holds a step's
    tape alive)."""

    s1: Stage1Batch
    s2out: Stage2Output
    dense: Tensor
    logits: Tensor
    cell_token: np.ndarray

    @property
    def labels(self) -> boundary.LabelTables | None:
        return self.s1.labels

    def __len__(self) -> int:
        return len(self.s1)

    def __getitem__(self, i: int) -> ForwardResult:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)
        cells = len(self.cell_token) // len(self)
        rows = slice(i * cells, (i + 1) * cells)
        labelled = self.labels is not None and self.labels.labelled[i]
        return ForwardResult(
            self.s1[i],
            self.s2out.sample(i),
            Tensor(self.dense.data[rows]),
            Tensor(self.logits.data[rows]),
            self.cell_token[rows],
            self.labels.cells[i] if labelled else None,
            self,
            i,
        )


def forward_full(image, store, cfg, labels=None, *, batch_index: int = 0) -> ForwardResult:
    """One sample, as a batch of one."""
    return _forward([image], None if labels is None else [labels], store, cfg, batch_index)[0]


def forward_batch(images, labels_list, store, cfg, *, batch_index: int = 0) -> BatchForward:
    """A batch in one stacked forward; `labels_list` holds each sample's
    label map (None when unlabelled) or is their `LabelTables`."""
    return _forward(images, labels_list, store, cfg, batch_index)


def _forward(images, labels_list, store, cfg, batch_index: int) -> BatchForward:
    # both entry points call this, not each other, so a wrapper around
    # either one sees each forward once; Stage 1 checks the inputs
    s1 = stage1.run_stage1_batch(images, store, cfg, labels_list, batch_index=batch_index)
    refine = stage2.run_stage1_only_refine if cfg.stage1_only else stage2.run_stage2
    s2out = refine(s1, store, cfg)
    dense, cell_token = stage2.densify_finest(s1.tokens, s2out, store, cfg)
    logits = stage2.head_logits(dense, store, (cfg.head_cells,) * len(s1))
    return BatchForward(s1, s2out, dense, logits, cell_token)


def head_cross_entropy(batch: BatchForward, samples=None) -> tuple[Tensor, list[int]] | None:
    """Per-sample cross entropy of the head over labelled cells, for those
    of `samples` (default: all) with any; also their indices."""
    tables = batch.labels
    if tables is None:
        return None
    chosen = np.arange(len(batch)) if samples is None else np.asarray(samples, dtype=np.intp)
    lab = tables.cells[chosen].reshape(len(chosen), -1)
    valid = (lab != IGNORE) & tables.labelled[chosen, None]
    counts = valid.sum(axis=1)
    kept = counts > 0
    if not kept.any():
        return None
    # each chosen sample's labelled cells, in order, at its rows of the batch
    rows = (chosen[:, None] * lab.shape[1] + np.arange(lab.shape[1]))[valid]
    picked = tensor.gather_rows(batch.logits, rows)
    return tensor.softmax_cross_entropy(picked, lab[valid], counts[kept].tolist()), chosen[kept].tolist()


def batch_loss(batch: BatchForward, allocator_weight: float = 1.0, samples=None) -> tuple[Tensor | None, list[dict]]:
    """Mean over `samples` (default: all) of each sample's loss,
    allocator_weight x allocator MSE + head cross entropy, on the stacked
    tensors; samples with neither part do not count. Also each sample's raw
    parts."""
    chosen = list(range(len(batch))) if samples is None else list(samples)
    raw = {i: {} for i in chosen}
    vectors = []
    for name, part in (
        ("allocator_mse", stage1.allocator_mse(batch.s1, chosen)),
        ("head_ce", head_cross_entropy(batch, chosen)),
    ):
        if part is None:
            continue
        t, ids = part
        for i, v in zip(ids, t.data):
            raw[i][name] = float(v)
        if name == "allocator_mse" and allocator_weight != 1.0:
            t = tensor.scale(t, allocator_weight)
        vectors.append(t)
    counted = sum(1 for parts in raw.values() if parts)
    if not counted:
        return None, list(raw.values())
    total = tensor.sum_all(tensor.concat(vectors) if len(vectors) > 1 else vectors[0])
    return tensor.scale(total, 1.0 / counted), list(raw.values())


def sample_loss(fr: ForwardResult, allocator_weight: float = 1.0) -> tuple[Tensor | None, dict]:
    """One sample's loss, taken on its batch's stacked tensors."""
    total, (raw,) = batch_loss(fr.batch, allocator_weight, [fr.index])
    return total, raw


class Adam:
    """Adam over a store's arena: flat first and second moments, updated
    chunk by chunk with two scratch buffers, so each step allocates nothing
    and each chunk stays in cache. Elementwise, a step is
        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= lr*(m/b1t) / (sqrt(v/b2t) + eps)
    in that order of operations."""

    CHUNK = 1 << 15  # elements per pass: six float64 chunks fit in L2

    def __init__(self, store: ParamStore, lr: float = 3e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(store.flat)
        self.v = np.zeros_like(store.flat)
        self._scratch = np.empty((2, min(self.CHUNK, store.flat.size)))

    def step(self, grad: np.ndarray):
        """One update from `grad`, the gradient in the arena's layout (the
        `.flat` of `backward`'s Gradients over `store.items()`)."""
        if grad.shape != self.store.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} for an arena of {self.store.flat.size} values")
        self.t += 1
        b1, b2, lr, eps = self.b1, self.b2, self.lr, self.eps
        b1t = 1.0 - b1**self.t
        b2t = 1.0 - b2**self.t
        p_all = self.store.flat
        for lo in range(0, p_all.size, self.CHUNK):
            hi = min(lo + self.CHUNK, p_all.size)
            g, m, v, p = grad[lo:hi], self.m[lo:hi], self.v[lo:hi], p_all[lo:hi]
            a, b = self._scratch[:, : hi - lo]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, b2t, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(m, b1t, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(p, b, out=p)


def train(
    cfg: EncoderConfig,
    store: ParamStore,
    corpus,
    *,
    steps: int,
    lr: float = 3e-3,
    batch_size: int = 4,
    seed: int = 0,
    allocator_weight: float = 10.0,
    log_every: int = 50,
    log=print,
) -> list[dict]:
    """Minimize mean per-sample loss over seeded batches, the learning rate
    decaying from `lr` to zero on a half cosine; returns the loss curve.

    Before step 0 it checks every scene's image and label shape (a
    mismatch raises ValueError naming the scene) and derives each scene's
    boundary map and cell-majority labels once (`LabelTables`,
    `batch_size` scenes at a time); a step gathers its batch's rows. Aborts
    with a diagnostic, before any update, if the loss or a gradient stops
    being finite. A `steps` or `batch_size` below 1, or an `lr` that is
    negative or not finite, raises ValueError naming it."""
    if cfg.policy not in ("adaptive", "dense", "oracle_mix", "random_ratio"):
        raise ValueError(f"unsupported training policy {cfg.policy}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if not (np.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and non-negative, got {lr}")
    if not len(corpus):
        raise ValueError("corpus is empty: training needs at least one scene")
    want = (cfg.input_h, cfg.input_w, cfg.channels)
    for i, sc in enumerate(corpus):
        if np.shape(sc.image) != want or (sc.labels is not None and np.shape(sc.labels) != want[:2]):
            labels = None if sc.labels is None else np.shape(sc.labels)
            raise ValueError(f"corpus scene {i}: image {np.shape(sc.image)}, label map {labels}; the config takes {want}")
    tables = boundary.LabelTables.build([sc.labels for sc in corpus], want[:2], cfg.connectivity, batch_size)
    opt = Adam(store, lr=lr)
    history = []
    n = len(corpus)
    for step in range(steps):
        opt.lr = lr * 0.5 * (1.0 + np.cos(np.pi * step / max(steps - 1, 1)))
        idx = rng_for(seed, "batch", step).choice(n, size=min(batch_size, n), replace=False)
        images = [corpus[i].image for i in idx]
        labels = tables.take(idx)
        with GradTape() as tape:
            batch = forward_batch(images, labels, store, cfg, batch_index=step)
            total, raw = batch_loss(batch, allocator_weight)
            parts_acc: dict[str, float] = {}
            for parts in raw:
                for k, v in parts.items():
                    parts_acc[k] = parts_acc.get(k, 0.0) + v / len(batch)
            if total is None:
                continue
            loss_val = float(total.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(
                    f"training diverged at step {step}: loss={loss_val}; "
                    f"parts={parts_acc}"
                )
            grads = tensor.backward(total, tape, params=store.items())
        if not np.isfinite(grads.flat).all():
            name = next(name for name, g in grads.items() if not np.isfinite(g).all())
            raise RuntimeError(f"training diverged at step {step}: non-finite gradient in {name}")
        opt.step(grads.flat)
        rec = {"step": step, "loss": loss_val, **parts_acc}
        history.append(rec)
        if log is not None and (step % log_every == 0 or step == steps - 1):
            log(f"step {step:5d}  loss {loss_val:.6f}  " + "  ".join(f"{k} {v:.6f}" for k, v in parts_acc.items()))
    return history


def ranking_auc(scores, positives) -> float:
    """Mann-Whitney AUC of scores for boundary (positive) vs uniform tokens,
    with tie correction."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative tokens")
    # tied scores share the average of their 1-based ranks
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1  # 0-based sorted position of each group's last score
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[group]
    rank_sum = ranks[positives].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
