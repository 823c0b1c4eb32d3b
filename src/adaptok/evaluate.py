"""Evaluation: per-sample metrics, compute accounting, selection overlays,
and a fully deterministic run manifest."""

from __future__ import annotations

import json
import os

import numpy as np

from . import boundary, flops, pnm, train
from .boundary import IGNORE
from .config import EncoderConfig, check
from .export import save_emitted_maps
from .params import ParamStore
from .stage1 import AllocationTrace

MANIFEST_VERSION = 1


def overlay_masks(trace: AllocationTrace, height: int, width: int) -> list[np.ndarray]:
    """Per round, a white patch per selected token on black, (H, W, 3) uint8."""
    masks = np.zeros((len(trace.rounds), height, width, 3), dtype=np.uint8)
    for mask, rec in zip(masks, trace.rounds):
        for k in rec.selected:
            y0, x0, y1, x1 = k.rect()
            mask[y0:y1, x0:x1] = 255
    return list(masks)


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


# scenes per stacked batch: as many as fit in 32 nano scenes' pixels, at least one
BATCH_PIXELS = 32 * 64 * 64


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
    """Run the model over `scenes` under the FLOPs meter, in stacked batches
    of as many as fit in `BATCH_PIXELS` (at least one), scene i keyed
    `(i, 0)`, so no output depends on the batch size; returns (and
    optionally writes) the manifest. Two calls with identical inputs produce
    identical bytes. Raises RuntimeError when a section's metered counts
    differ from the sum of the batch's `count_forward` reports."""
    if not len(scenes):
        raise ValueError("corpus is empty: evaluation needs at least one scene")
    for name, count in (("n_overlays", n_overlays), ("n_feature_dumps", n_feature_dumps)):
        check(name, count, int, ("be >= 0", lambda v: v >= 0))
    conf = np.zeros((cfg.n_classes, cfg.n_classes), dtype=np.int64)
    totals, levels, scored, overlay_files = [], [], [], []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    size = max(1, BATCH_PIXELS // (cfg.input_h * cfg.input_w))
    for lo in range(0, len(scenes), size):
        part = scenes[lo : lo + size]
        with flops.meter() as metered:
            batch = train.forward_batch(
                [sc.image for sc in part], [sc.labels for sc in part], store, cfg, keys=[(lo + i, 0) for i in range(len(part))]
            )
        analytic = flops.FlopsReport()
        for trace in batch.s1.traces:
            rep = flops.count_forward(cfg, trace)
            totals.append(rep.total())
            for name, counts in rep.sections.items():
                analytic.add(counts, name)
        for name in sorted(set(metered.sections) | set(analytic.sections)):
            want, got = analytic.sections.get(name, flops.Counts()), metered.sections.get(name, flops.Counts())
            if want != got:
                raise RuntimeError(
                    f"scenes {lo}-{lo + len(part) - 1}, section {name}: analytic count {want} disagrees with metered {got}"
                )
        levels.append(batch.s1.tokens.level_counts())
        _confusion_update(conf, batch.logits.data.argmax(axis=1), batch.labels.cells.reshape(-1))
        for i, trace in enumerate(batch.s1.traces, start=lo):
            scored += [(rec.scores, rec.targets) for rec in trace.rounds if rec.targets is not None and rec.candidate_count]
            if out_dir and i < n_overlays:
                for r, mask in enumerate(overlay_masks(trace, cfg.input_h, cfg.input_w), start=1):
                    overlay_files.append(f"overlay_{i:04d}_round{r}.ppm")
                    pnm.write_ppm8(os.path.join(out_dir, overlay_files[-1]), mask)
            if out_dir and i < n_feature_dumps:
                save_emitted_maps(os.path.join(out_dir, f"features_{i:04d}.bin"), batch.s2out.sample(i - lo))
        del batch  # freed before the next batch's forward
    allocator_mse, auc = 0.0, None
    if scored:
        pred, targ = (np.concatenate(parts) for parts in zip(*scored))
        allocator_mse = boundary.allocator_loss(pred, targ)
        if 0 < np.count_nonzero(targ > 0) < targ.size:
            auc = round(train.ranking_auc(pred, targ > 0), 6)
    mean, std = flops.corpus_stats(t.flops for t in totals)
    levels = np.concatenate(levels)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "config": cfg.to_json_dict(),
        "config_digest": cfg.digest(),
        "seed": seed,
        "policy": cfg.policy,
        "dataset": dataset_descriptor or {"kind": "inline", "count": len(levels)},
        "metrics": {
            "allocator_mse": round(allocator_mse, 10),
            "boundary_token_auc": auc,
            "flops_mean": round(mean, 3),
            "flops_std": round(std, 3),
            "comparisons_mean": round(float(np.mean([t.comparisons for t in totals])), 3),
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
