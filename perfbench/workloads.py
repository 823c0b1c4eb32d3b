"""The benchmark's workloads: what one op is, how inputs follow from the
seed, and how every op's output is checked.

A workload runs in units. A unit is one op for `nano-eval` and `tiny-dense`
and one short training run of EPISODE_STEPS optimizer steps for
`nano-train`, because `train.train` owns its step loop and the benchmark
only sees step boundaries through the `log` callback. `run` does the timed
work and `check` inspects the outputs afterwards, outside the timed region.
Unit k uses input k mod `cycle`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adaptok import config, evaluate, flops, params, scenes, train

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_TOL = 1e-9
# manifest metrics that are counts: compared exactly, everything else to FLOAT_TOL
EXACT_METRICS = frozenset(
    {"flops_mean", "flops_std", "comparisons_mean", "tokens_per_level_mean", "tokens_per_level_hist"}
)
EVAL_SCENES = 256
TRAIN_SCENES = 64
TRAIN_BATCH = 8
EPISODE_STEPS = 24
DENSE_IMAGES = 2


@dataclass
class Op:
    seconds: float
    images: int
    flops: int | None = None
    value: object = None  # compared exactly between a traced op and its untraced twin
    error: str | None = None


def load_reference(name: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    with open(path) as f:
        ref = json.load(f)
    return ref if ref["seed"] == seed else None


def compare_metrics(got, want, metric: str | None = None) -> str | None:
    """First difference between two manifest `metrics` trees, or None.
    `metric` is the top-level name, which decides exact or tolerant."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{metric or 'metrics'}: {got!r} != {want!r}"
        for k in want:
            diff = compare_metrics(got[k], want[k], metric or k)
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{metric}: {got!r} != {want!r}"
        for g, w in zip(got, want):
            diff = compare_metrics(g, w, metric)
            if diff:
                return diff
        return None
    if want is None or got is None or metric in EXACT_METRICS:
        return None if got == want else f"{metric}: {got!r} != {want!r}"
    return None if abs(got - want) <= FLOAT_TOL else f"{metric}: {got!r} != {want!r}"


def non_finite(tree) -> bool:
    if isinstance(tree, dict):
        return any(non_finite(v) for v in tree.values())
    if isinstance(tree, list):
        return any(non_finite(v) for v in tree)
    return isinstance(tree, float) and not math.isfinite(tree)


class NanoEval:
    """`adaptok eval` on one scene per op, with ground-truth allocation."""

    name = "nano-eval"
    cycle = EVAL_SCENES

    def setup(self, seed: int):
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        return {
            "seed": seed,
            "cfg": cfg,
            "store": params.init_params(cfg, seed),
            "corpus": scenes.generate_corpus(seed, EVAL_SCENES, scenes.SceneSpec(max_regions=8)),
            "ref": load_reference(self.name, seed),
        }

    def run(self, state, k: int, warm_up: bool = False):
        scene = state["corpus"][k % EVAL_SCENES]
        t0 = time.perf_counter()
        manifest = evaluate.evaluate(state["cfg"], state["store"], [scene], seed=state["seed"])
        return [Op(time.perf_counter() - t0, 1)], manifest

    def check(self, state, k: int, ops, manifest):
        (op,) = ops
        metrics = manifest["metrics"]
        op.flops = int(metrics["flops_mean"])
        op.value = metrics
        if non_finite(metrics):
            op.error = "non-finite metric"
        elif state["ref"] is not None:
            diff = compare_metrics(metrics, state["ref"]["metrics"][k % EVAL_SCENES])
            if diff:
                op.error = f"scene {k % EVAL_SCENES}: {diff}"

    def reference(self, state) -> dict:
        out = []
        for k in range(EVAL_SCENES):
            _, manifest = self.run(state, k)
            out.append(manifest["metrics"])
        return {"seed": state["seed"], "metrics": out}


class NanoTrain:
    """Optimizer steps of the README's training recipe at batch 8."""

    name = "nano-train"
    cycle = 1  # every unit repeats the same steps

    def setup(self, seed: int):
        cfg = config.nano().with_overrides(policy="random_ratio")
        store = params.init_params(cfg, seed)
        return {
            "seed": seed,
            "cfg": cfg,
            "store": store,
            "init": {n: t.data.copy() for n, t in store.items()},
            "corpus": scenes.generate_corpus(seed, TRAIN_SCENES, scenes.SceneSpec()),
            "ref": load_reference(self.name, seed),
        }

    def run(self, state, k: int, warm_up: bool = False):
        # every unit restarts from the same initial parameters, so each one
        # repeats the same steps and the reference covers all of them
        for n, t in state["store"].items():
            t.data[...] = state["init"][n]
        stamps, marks = [], []
        clock = time.perf_counter
        with flops.meter() as m:

            def log(_line):
                stamps.append(clock())
                marks.append(m.total().flops)

            stamps.append(clock())
            marks.append(0)
            history = train.train(
                state["cfg"],
                state["store"],
                state["corpus"],
                steps=1 if warm_up else EPISODE_STEPS,
                batch_size=TRAIN_BATCH,
                seed=state["seed"],
                log_every=1,
                log=log,
            )
        ops = [
            Op(b - a, TRAIN_BATCH, flops=f1 - f0)
            for a, b, f0, f1 in zip(stamps, stamps[1:], marks, marks[1:])
        ]
        return ops, history

    def check(self, state, k: int, ops, history):
        if len(history) != len(ops):
            for op in ops:
                op.error = f"{len(history)} history records for {len(ops)} logged steps"
            return
        ref = state["ref"]
        for i, (op, rec) in enumerate(zip(ops, history)):
            loss = rec["loss"]
            op.value = (loss, op.flops)
            if not math.isfinite(loss):
                op.error = f"step {i}: loss {loss}"
            elif ref is not None and abs(loss - ref["loss"][i]) > FLOAT_TOL * abs(ref["loss"][i]):
                op.error = f"step {i}: loss {loss!r} != reference {ref['loss'][i]!r}"

    def reference(self, state) -> dict:
        _, history = self.run(state, 0)
        return {"seed": state["seed"], "loss": [rec["loss"] for rec in history]}


def logits_checksum(logits: np.ndarray) -> list[float]:
    """Sum and position-weighted sum, so a permutation of rows also shows."""
    flat = logits.ravel()
    return [float(flat.sum()), float(flat @ np.linspace(-1.0, 1.0, flat.size))]


class TinyDense:
    """One dense `tiny` forward at 256x256 under the FLOPs meter."""

    name = "tiny-dense"
    cycle = DENSE_IMAGES

    def setup(self, seed: int):
        cfg = config.tiny(256, 256).with_overrides(policy="dense")
        spec = scenes.SceneSpec(height=256, width=256, max_regions=8)
        return {
            "seed": seed,
            "cfg": cfg,
            "store": params.init_params(cfg, seed),
            "corpus": scenes.generate_corpus(seed, DENSE_IMAGES, spec),
            "ref": load_reference(self.name, seed),
        }

    def run(self, state, k: int, warm_up: bool = False):
        image = state["corpus"][k % DENSE_IMAGES].image
        t0 = time.perf_counter()
        with flops.meter() as m:
            fr = train.forward_full(image, state["store"], state["cfg"])
        return [Op(time.perf_counter() - t0, 1)], (fr, m.total())

    def check(self, state, k: int, ops, out):
        (op,) = ops
        fr, metered = out
        analytic = flops.count_forward(state["cfg"], fr.s1out.trace).total()
        checksum = logits_checksum(fr.logits.data)
        op.flops = metered.flops
        op.value = (metered.as_dict(), checksum)
        ref = state["ref"]
        if analytic.as_dict() != metered.as_dict():
            op.error = f"metered {metered.as_dict()} != count_forward {analytic.as_dict()}"
        elif not np.isfinite(fr.logits.data).all():
            op.error = "non-finite logits"
        elif ref is not None:
            want = ref["checksums"][k % DENSE_IMAGES]
            if metered.flops != ref["flops"]:
                op.error = f"metered FLOPs {metered.flops} != reference {ref['flops']}"
            elif any(abs(g - w) > FLOAT_TOL * abs(w) for g, w in zip(checksum, want)):
                op.error = f"image {k % DENSE_IMAGES}: logits checksum {checksum} != {want}"

    def reference(self, state) -> dict:
        sums, total = [], None
        for k in range(DENSE_IMAGES):
            _, (fr, metered) = self.run(state, k)
            sums.append(logits_checksum(fr.logits.data))
            total = metered.flops
        return {"seed": state["seed"], "flops": total, "checksums": sums}


WORKLOADS = {w.name: w for w in (NanoEval(), NanoTrain(), TinyDense())}
