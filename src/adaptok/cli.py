"""Command line: corpus synthesis, training, evaluation, compute
comparison, and the ablation switch matrix."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import evaluate as evaluate_mod
from . import scenes as scenes_mod
from . import train as train_mod
from .config import POLICIES, EncoderConfig, check, load_config, save_config
from .params import init_params, load_params, save_params


def _scene_spec(args, cfg: EncoderConfig) -> scenes_mod.SceneSpec:
    return scenes_mod.SceneSpec(
        height=cfg.input_h,
        width=cfg.input_w,
        n_classes=cfg.n_classes,
        max_regions=args.max_regions,
        uniform_fraction=args.uniform_fraction,
        noise=args.noise,
    )


def _corpus(args, cfg, seed_attr="corpus_seed", count_attr="count"):
    if getattr(args, "corpus_dir", None):
        sc = scenes_mod.load_corpus_dir(args.corpus_dir, (cfg.input_h, cfg.input_w))
        return sc, {"kind": "directory", "path": args.corpus_dir, "count": len(sc)}
    spec = _scene_spec(args, cfg)
    seed = getattr(args, seed_attr)
    count = getattr(args, count_attr)
    desc = scenes_mod.corpus_descriptor(seed, count, spec)
    return scenes_mod.corpus_from_descriptor(desc), desc


def _load_cfg(args) -> EncoderConfig:
    cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "policy", None):
        overrides["policy"] = args.policy
    if getattr(args, "tau", None) is not None:
        try:
            overrides["thresholds"] = tuple(float(x) for x in args.tau.split(","))
        except ValueError:
            raise ValueError(f"thresholds must be comma-separated numbers, got {args.tau!r}") from None
    if getattr(args, "oracle_rate", None) is not None:
        overrides["oracle_rate"] = args.oracle_rate
    return cfg.with_overrides(**overrides) if overrides else cfg


def cmd_gen(args) -> int:
    check("count", args.count, int, ("be >= 1", lambda v: v >= 1))
    cfg = _load_cfg(args)
    spec = _scene_spec(args, cfg)
    desc = scenes_mod.corpus_descriptor(args.corpus_seed, args.count, spec)
    sc = scenes_mod.corpus_from_descriptor(desc)
    scenes_mod.save_corpus(args.out, sc, desc)
    print(f"wrote {len(sc)} scene pairs to {args.out}")
    return 0


def _train(args, cfg, store, corpus, log=print) -> list[dict]:
    return train_mod.train(
        cfg, store, corpus, steps=args.steps, lr=args.lr, batch_size=args.batch, seed=args.seed,
        allocator_weight=args.allocator_weight, log=log,
    )


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    corpus, desc = _corpus(args, cfg)
    store = init_params(cfg, args.seed)
    history = _train(args, cfg, store, corpus)
    os.makedirs(args.out, exist_ok=True)
    save_params(os.path.join(args.out, "params.bin"), store, cfg)
    save_config(os.path.join(args.out, "config.json"), cfg)
    with open(os.path.join(args.out, "history.json"), "w") as f:
        json.dump({"dataset": desc, "seed": args.seed, "history": history}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"trained {args.steps} steps; artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    corpus, desc = _corpus(args, cfg)
    store = load_params(args.params, cfg) if args.params else init_params(cfg, args.seed)
    manifest = evaluate_mod.evaluate(
        cfg,
        store,
        corpus,
        seed=args.seed,
        dataset_descriptor=desc,
        out_dir=args.out,
        n_overlays=args.overlays,
        n_feature_dumps=args.dump_features,
    )
    m = manifest["metrics"]
    print(
        f"mIoU {m['miou']:.4f}  allocator MSE {m['allocator_mse']:.6f}  "
        f"FLOPs {m['flops_mean']:.3e} ± {m['flops_std']:.3e}"
    )
    return 0


def cmd_flops(args) -> int:
    cfg = _load_cfg(args)
    pcfgs = [cfg.with_overrides(policy=policy) for policy in args.policies.split(",")]
    corpus, _ = _corpus(args, cfg)
    store = load_params(args.params, cfg) if args.params else init_params(cfg, args.seed)
    rows = []
    for pcfg in pcfgs:
        m = evaluate_mod.evaluate(pcfg, store, corpus, seed=args.seed)["metrics"]
        rows.append({"policy": pcfg.policy, "flops_mean": m["flops_mean"], "flops_std": m["flops_std"]})
        print(f"{pcfg.policy:>14}: {m['flops_mean']:.3e} ± {m['flops_std']:.3e} FLOPs/sample")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "flops.json"), "w") as f:
            json.dump(rows, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


_ABLATIONS = {
    "baseline": {},
    "dense": {"policy": "dense"},
    "random_ratio": {"policy": "random_ratio"},
    # oracle-score injection sweep; baseline is the 0% point
    "oracle_mix_10": {"policy": "oracle_mix", "oracle_rate": 0.1},
    "oracle_mix": {"policy": "oracle_mix", "oracle_rate": 0.5},
    "oracle_mix_100": {"policy": "oracle_mix", "oracle_rate": 1.0},
    "stage1_only": {"stage1_only": True},
    "no_aux_image": {"no_aux_image": True},
    "no_residual": {"no_residual": True},
}


def cmd_ablate(args) -> int:
    names = args.variants.split(",")
    for name in names:
        if name not in _ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}; options: {sorted(_ABLATIONS)}")
    cfg = _load_cfg(args)
    corpus, _ = _corpus(args, cfg)
    held, _ = _corpus(args, cfg, seed_attr="eval_seed", count_attr="eval_count")
    if not held:
        raise ValueError("held-out corpus is empty: evaluation needs at least one scene")
    table = []
    for name in names:
        vcfg = cfg.with_overrides(**_ABLATIONS[name])
        store = init_params(vcfg, args.seed)
        _train(args, vcfg, store, corpus, log=None)
        # oracle/random selection applies to training only; inference always
        # uses predicted scores
        ecfg = vcfg if vcfg.policy in ("adaptive", "dense") else vcfg.with_overrides(policy="adaptive")
        manifest = evaluate_mod.evaluate(ecfg, store, held, seed=args.seed)
        m = manifest["metrics"]
        row = {
            "variant": name,
            "oracle_rate": vcfg.oracle_rate if vcfg.policy == "oracle_mix" else None,
            "miou": m["miou"],
            "allocator_mse": m["allocator_mse"],
            "flops_mean": m["flops_mean"],
            "flops_std": m["flops_std"],
        }
        table.append(row)
        print(
            f"{name:>14}: mIoU {row['miou']:.4f}  MSE {row['allocator_mse']:.6f}  "
            f"FLOPs {row['flops_mean']:.3e} ± {row['flops_std']:.3e}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "ablations.json"), "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _add_common(p, *, model=True, policy=True):
    """--config and --out; with `model`, the flags of a command that builds
    a model: --seed, --tau, --oracle-rate and, with `policy`, --policy."""
    p.add_argument("--config", default="nano", help="preset name or JSON path")
    if model:
        p.add_argument("--seed", type=int, default=0)
        if policy:
            p.add_argument("--policy", choices=POLICIES)
        p.add_argument("--tau", help="comma-separated thresholds, e.g. 0.005,0.01,0.02")
        p.add_argument("--oracle-rate", dest="oracle_rate", type=float)
    p.add_argument("--out", help="output directory")


def _add_corpus(p, default_count=64):
    p.add_argument("--corpus-dir", help="read PPM/PGM pairs instead of synthesizing")
    p.add_argument("--corpus-seed", type=int, default=7)
    p.add_argument("--count", type=int, default=default_count)
    p.add_argument("--max-regions", type=int, default=4)
    p.add_argument("--uniform-fraction", type=float, default=0.125)
    p.add_argument("--noise", type=float, default=0.002)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="adaptok", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize an image/label corpus")
    _add_common(p, model=False)
    _add_corpus(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train allocator and sanity head")
    _add_common(p)
    _add_corpus(p, default_count=512)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--allocator-weight", type=float, default=10.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics, FLOPs, and selection overlays")
    _add_common(p)
    _add_corpus(p)
    p.add_argument("--params", help="trained parameter container")
    p.add_argument("--overlays", type=int, default=4)
    p.add_argument("--dump-features", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="per-policy compute comparison")
    _add_common(p, policy=False)
    _add_corpus(p)
    p.add_argument("--params")
    p.add_argument("--policies", default="adaptive,dense")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("ablate", help="train/eval the ablation switches")
    _add_common(p)
    _add_corpus(p, default_count=128)
    p.add_argument("--eval-seed", type=int, default=11)
    p.add_argument("--eval-count", type=int, default=32)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--allocator-weight", type=float, default=10.0)
    p.add_argument(
        "--variants",
        default=(
            "baseline,dense,random_ratio,oracle_mix_10,oracle_mix,oracle_mix_100,"
            "stage1_only,no_aux_image,no_residual"
        ),
    )
    p.set_defaults(func=cmd_ablate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        record = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
