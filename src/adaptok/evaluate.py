"""Evaluation: per-sample metrics, compute accounting, selection overlays,
and a fully deterministic run manifest."""

from __future__ import annotations

import json
import os

import numpy as np

from . import boundary, flops, pnm, train
from .boundary import IGNORE
from .config import EncoderConfig
from .params import ParamStore
from .stage1 import AllocationTrace

MANIFEST_VERSION = 1


def render_selection_overlay(height: int, width: int, selected_keys) -> np.ndarray:
    """White patch per selected token on black, (H, W, 3) uint8."""
    img = np.zeros((height, width, 3), dtype=np.uint8)
    for k in selected_keys:
        y0, x0, y1, x1 = k.rect()
        img[y0:y1, x0:x1] = 255
    return img


def overlay_masks(trace: AllocationTrace, height: int, width: int) -> list[np.ndarray]:
    return [render_selection_overlay(height, width, rec.selected) for rec in trace.rounds]


def _confusion_update(conf: np.ndarray, pred: np.ndarray, gt: np.ndarray):
    valid = gt != IGNORE
    c = conf.shape[0]
    conf += np.bincount(gt[valid] * c + pred[valid], minlength=c * c).reshape(c, c)


def segmentation_metrics(conf: np.ndarray) -> dict:
    gt_count = conf.sum(axis=1)
    pred_count = conf.sum(axis=0)
    tp = np.diag(conf)
    present = gt_count > 0
    iou = np.zeros(conf.shape[0])
    union = gt_count + pred_count - tp
    np.divide(tp, union, out=iou, where=union > 0)
    acc = np.zeros(conf.shape[0])
    np.divide(tp, gt_count, out=acc, where=present)
    return {
        "miou": float(iou[present].mean()) if present.any() else 0.0,
        "per_class_iou": [round(float(v), 6) for v in iou],
        "per_class_pixel_acc": [round(float(v), 6) for v in acc],
        "pixel_acc": float(tp.sum() / max(gt_count.sum(), 1)),
    }


def evaluate(
    cfg: EncoderConfig,
    store: ParamStore,
    scenes,
    *,
    seed: int,
    dataset_descriptor: dict | None = None,
    out_dir: str | None = None,
    n_overlays: int = 0,
    n_feature_dumps: int = 0,
) -> dict:
    """Run the model over `scenes`; returns (and optionally writes) the
    manifest. Two calls with identical inputs produce identical bytes."""
    if not len(scenes):
        raise ValueError("corpus is empty: evaluation needs at least one scene")
    conf = np.zeros((cfg.n_classes, cfg.n_classes), dtype=np.int64)
    flop_totals, mse_parts, level_counts = [], [], []
    auc_scores, auc_positive = [], []
    comparison_totals = []
    overlay_files = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for i, sc in enumerate(scenes):
        with flops.meter() as m:
            fr = train.forward_full(sc.image, store, cfg, sc.labels, batch_index=i)
        total = m.total()
        flop_totals.append(total.flops)
        comparison_totals.append(total.comparisons)
        analytic = flops.count_forward(cfg, fr.s1out.trace).total()
        if (analytic.macs, analytic.scalar_ops, analytic.comparisons) != (
            total.macs,
            total.scalar_ops,
            total.comparisons,
        ):
            raise RuntimeError(
                f"scene {i}: analytic count {analytic} disagrees with metered {total}"
            )
        for rec in fr.s1out.trace.rounds:
            if rec.targets is not None and rec.candidate_count:
                mse_parts.append((rec.scores, rec.targets))
                auc_scores.append(rec.scores)
                auc_positive.append(rec.targets > 0)
        pred = fr.logits.data.argmax(axis=1)
        _confusion_update(conf, pred, fr.cell_labels.reshape(-1))
        level_counts.append(fr.s1out.token_set.counts_per_level())
        if out_dir and i < n_overlays:
            for r, mask in enumerate(overlay_masks(fr.s1out.trace, cfg.input_h, cfg.input_w), start=1):
                name = f"overlay_{i:04d}_round{r}.ppm"
                pnm.write_ppm8(os.path.join(out_dir, name), mask)
                overlay_files.append(name)
        if out_dir and i < n_feature_dumps:
            from .export import save_emitted_maps

            save_emitted_maps(os.path.join(out_dir, f"features_{i:04d}.bin"), fr.s2out)
    if mse_parts:
        pred_all = np.concatenate([p for p, _ in mse_parts])
        targ_all = np.concatenate([t for _, t in mse_parts])
        allocator_mse = boundary.allocator_loss(pred_all, targ_all)
    else:
        allocator_mse = 0.0
    auc = None
    if auc_scores:
        pos = np.concatenate(auc_positive)
        if pos.any() and not pos.all():
            auc = round(train.ranking_auc(np.concatenate(auc_scores), pos), 6)
    mean, std = flops.corpus_stats(flop_totals)
    levels = np.asarray(level_counts)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "config": cfg.to_json_dict(),
        "config_digest": cfg.digest(),
        "seed": seed,
        "policy": cfg.policy,
        "dataset": dataset_descriptor or {"kind": "inline", "count": len(level_counts)},
        "metrics": {
            "allocator_mse": round(allocator_mse, 10),
            "boundary_token_auc": auc,
            "flops_mean": round(mean, 3),
            "flops_std": round(std, 3),
            "comparisons_mean": round(float(np.mean(comparison_totals)), 3),
            "tokens_per_level_mean": [round(float(v), 3) for v in levels.mean(axis=0)],
            "tokens_per_level_hist": _level_histograms(levels),
            **segmentation_metrics(conf),
        },
        "overlays": overlay_files,
    }
    if out_dir:
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    return manifest


def _level_histograms(levels: np.ndarray) -> dict:
    out = {}
    for lvl in range(levels.shape[1]):
        vals, counts = np.unique(levels[:, lvl], return_counts=True)
        out[str(lvl)] = {str(int(v)): int(c) for v, c in zip(vals, counts)}
    return out
