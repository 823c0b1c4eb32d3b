"""Desk-scale training: Adam on the allocator regression loss plus the
sanity segmentation head's cross entropy, end to end through both stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary, stage1, stage2, tensor
from .boundary import IGNORE
from .config import EncoderConfig
from .params import ParamStore, rng_for
from .stage1 import Stage1Output
from .stage2 import Stage2Output
from .tensor import GradTape, Tensor


@dataclass
class ForwardResult:
    s1out: Stage1Output
    s2out: Stage2Output
    dense: Tensor
    logits: Tensor
    cell_token: np.ndarray
    cell_labels: np.ndarray | None


def _refine(s1out: Stage1Output, store: ParamStore, cfg: EncoderConfig) -> Stage2Output:
    if cfg.stage1_only:
        return stage2.run_stage1_only_refine(s1out, store, cfg)
    return stage2.run_stage2(s1out, store, cfg)


def _finish(s1out, store, cfg, labels) -> ForwardResult:
    s2out = _refine(s1out, store, cfg)
    dense, cell_token = stage2.densify_finest(s1out.token_set, s2out, store, cfg)
    logits = stage2.head_logits(dense, store)
    cell_labels = None if labels is None else boundary.cell_majority_labels(labels)
    return ForwardResult(s1out, s2out, dense, logits, cell_token, cell_labels)


def forward_full(image, store, cfg, labels=None, *, batch_index: int = 0) -> ForwardResult:
    s1out = stage1.run_stage1(image, store, cfg, labels, batch_index=batch_index)
    return _finish(s1out, store, cfg, labels)


def forward_batch(images, labels_list, store, cfg, *, batch_index: int = 0) -> list[ForwardResult]:
    outs = stage1.run_stage1_batch(images, store, cfg, labels_list, batch_index=batch_index)
    labels_list = labels_list if labels_list is not None else [None] * len(outs)
    return [_finish(o, store, cfg, lab) for o, lab in zip(outs, labels_list)]


def head_cross_entropy(fr: ForwardResult) -> Tensor | None:
    if fr.cell_labels is None:
        return None
    lab = fr.cell_labels.reshape(-1)
    valid = np.flatnonzero(lab != IGNORE)
    if valid.size == 0:
        return None
    picked = tensor.gather_rows(fr.logits, valid)
    return tensor.softmax_cross_entropy(picked, lab[valid])


def sample_loss(fr: ForwardResult, allocator_weight: float = 1.0) -> tuple[Tensor | None, dict]:
    parts = {}
    raw = {}
    mse_t = stage1.allocator_mse(fr.s1out)
    if mse_t is not None:
        raw["allocator_mse"] = float(mse_t.data)
        parts["allocator_mse"] = (
            tensor.scale(mse_t, allocator_weight) if allocator_weight != 1.0 else mse_t
        )
    ce = head_cross_entropy(fr)
    if ce is not None:
        raw["head_ce"] = float(ce.data)
        parts["head_ce"] = ce
    if not parts:
        return None, {}
    total = None
    for t in parts.values():
        total = t if total is None else tensor.add(total, t)
    return total, raw


class Adam:
    def __init__(self, store: ParamStore, lr: float = 3e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in store.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in store.items()}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            self.store[name].data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


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
    lr_schedule: str = "cosine",
    log_every: int = 50,
    log=print,
) -> list[dict]:
    """Minimize mean per-sample loss over seeded batches; returns the loss
    curve. Aborts with a diagnostic if the loss stops being finite."""
    if cfg.policy not in ("adaptive", "dense", "oracle_mix", "random_ratio"):
        raise ValueError(f"unsupported training policy {cfg.policy}")
    if lr_schedule not in ("cosine", "constant"):
        raise ValueError(f"unknown lr schedule {lr_schedule!r}")
    opt = Adam(store, lr=lr)
    history = []
    n = len(corpus)
    for step in range(steps):
        if lr_schedule == "cosine":
            # standard half-cosine decay to zero over the run
            opt.lr = lr * 0.5 * (1.0 + np.cos(np.pi * step / max(steps - 1, 1)))
        idx = rng_for(seed, "batch", step).choice(n, size=min(batch_size, n), replace=False)
        images = [corpus[i].image for i in idx]
        labels = [corpus[i].labels for i in idx]
        with GradTape() as tape:
            results = forward_batch(images, labels, store, cfg, batch_index=step)
            losses = []
            parts_acc: dict[str, float] = {}
            for fr in results:
                t, parts = sample_loss(fr, allocator_weight)
                if t is not None:
                    losses.append(t)
                for k, v in parts.items():
                    parts_acc[k] = parts_acc.get(k, 0.0) + v / len(results)
            if not losses:
                continue
            total = losses[0]
            for t in losses[1:]:
                total = tensor.add(total, t)
            total = tensor.scale(total, 1.0 / len(losses))
            loss_val = float(total.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(
                    f"training diverged at step {step}: loss={loss_val}; "
                    f"parts={parts_acc}"
                )
            grads = tensor.backward(total, tape, params=store.items())
        opt.step(grads)
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
