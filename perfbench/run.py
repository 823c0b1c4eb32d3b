"""adaptok benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload nano-eval --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
each unit twice, untraced and traced, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with the machine
description, is written to `perfbench/out/`. See README.md for what each
metric means and which end-to-end number it should move.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# one BLAS thread: the run is a single client on a small machine, and a
# fixed pin keeps BLAS-bound and interpreter-bound workloads comparable
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P90_MIN_OPS = 100
MODULES = ("boundary", "clusterattn", "evaluate", "flops", "geometry", "params", "scenes", "stage1", "stage2", "tensor", "train")


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("nano-eval", "nano-train", "tiny-dense"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help="write reference/<workload>.json for --seed instead of measuring",
    )
    return ap.parse_args(argv)


def import_engine():
    """Pin BLAS threads, then import numpy and the engine from ./src."""
    src = ROOT / "src"
    if not (src / "adaptok" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'adaptok'} not found; run from a source checkout")
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, str(src))
    import adaptok

    if Path(adaptok.__file__).resolve().parent != (src / "adaptok").resolve():
        raise SystemExit(f"error: imported adaptok from {adaptok.__file__}, not {src}")
    return engine_modules()


def engine_modules() -> dict:
    return {m: importlib.import_module(f"adaptok.{m}") for m in MODULES}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_PIN},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Trial:
    """Runs units of one workload and tallies their ops."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # a tracing.Tracer on traced runs
        self.ops = []
        self.captured = []  # (cfg, trace, token_set) per stage-1 sample
        self.tape_nodes = 0

    def unit(self, state, k, *, traced=False, warm_up=False):
        """One checked unit; a unit that raises counts as one failed op."""
        from workloads import Op  # numpy and the engine load only after the BLAS pin

        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            ops, out = self.workload.run(state, k, warm_up)
        except Exception as exc:  # the benchmark must report a failing op, not stop
            ops, out = [Op(time.perf_counter() - t0, 0, error=repr(exc))], None
        finally:
            if traced:
                self.tracer.uninstall()
        if out is not None:
            try:
                self.workload.check(state, k, ops, out)
            except Exception as exc:
                for op in ops:
                    op.error = f"check raised {exc!r}"
        self.ops.extend(ops)
        return ops


def summarize_end_to_end(ops, setup_s) -> tuple[dict, dict]:
    ok = [op for op in ops if op.error is None]
    times = [op.seconds * 1000.0 for op in ok]
    busy = sum(op.seconds for op in ops)
    metrics = {
        "setup_s": setup_s,
        "samples_per_s": sum(op.images for op in ok) / busy if busy else 0.0,
        "op_ms.p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_ms.p90": statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_OPS else None,
        "ops": len(times),
    }
    return metrics, extra


def stage1_stats(captured, count_forward) -> dict:
    """Allocation counts and per-section FLOPs from captured stage-1 outputs."""
    s = defaultdict(float)
    for cfg, trace, token_set in captured:
        s["images"] += 1
        s["tokens"] += token_set.n_valid
        s["pad_rows"] += len(token_set.pad_levels)
        s["rows"] += token_set.n_rows
        for rec in trace.rounds:
            s[f"sel.r{rec.round_index}"] += rec.selected_count
            s[f"cand.r{rec.round_index}"] += rec.candidate_count
        for sec, c in count_forward(cfg, trace).sections.items():
            s[sec.split(".")[0] + ".flops"] += c.flops
    return s


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(totals, first_totals, setup_totals, stats, n, timing) -> dict:
    """Per-layer metrics, per traced op; `n` is the number of traced ops.

    Times are means over every traced op. GFLOP/s divides the FLOPs of the
    first pass by the span time of the same units, `first_totals`."""

    def ms(name, col):  # col 1 = inclusive, 2 = self; mean per op
        return totals.get(name, (0, 0.0, 0.0))[col] * 1000.0 / n

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / n

    def setup_ms(name):
        c, incl, _ = setup_totals.get(name, (0, 0.0, 0.0))
        return ratio(incl * 1000.0, c)

    def gflops(section, span):
        return ratio(stats[f"{section}.flops"], first_totals.get(span, (0, 0.0, 0.0))[1]) / 1e9

    return {
        "tensor.backward_ms": ms("tensor.backward", 1),
        "tensor.tape_nodes": stats["tape_nodes"] / n,
        "tensor.softmax_attention.calls": calls("tensor.softmax_attention"),
        "tensor.softmax_attention.self_ms": ms("tensor.softmax_attention", 2),
        "stage1.self_ms": ms("stage1", 2),
        "stage1.gflops_per_s": gflops("stage1", "stage1"),
        "stage1.pad_frac": ratio(stats["pad_rows"], stats["rows"]),
        **{f"stage1.select_rate.r{r}": ratio(stats[f"sel.r{r}"], stats[f"cand.r{r}"]) for r in (1, 2, 3)},
        "stage1.tokens": ratio(stats["tokens"], stats["images"]),
        "clusterattn.block.self_ms": ms("clusterattn.block", 2),
        "clusterattn.block.calls": calls("clusterattn.block"),
        "clusterattn.cluster_ms": ms("clusterattn.cluster", 1),
        "stage2.refine.self_ms": ms("stage2.refine", 2),
        "stage2.gflops_per_s": gflops("stage2", "stage2.refine"),
        "stage2.densify.self_ms": ms("stage2.densify", 2),
        "stage2.head_ms": ms("stage2.head", 1),
        "geometry.finest_cover_ms": ms("geometry.finest_cover", 1),
        "geometry.canonical_order_ms": ms("geometry.canonical_order", 1),
        "geometry.canonical_order.calls": calls("geometry.canonical_order"),
        "boundary.boundary_map_ms": ms("boundary.boundary_map", 1),
        "boundary.target_scores_ms": ms("boundary.target_scores", 1),
        "flops.count_forward_ms": ms("flops.count_forward", 1),
        "flops.per_op": stats["flops_per_op"],
        "train.forward_ms": ms("train.forward", 1),
        "train.loss_ms": ms("train.loss", 1),
        "train.optimizer_ms": ms("train.optimizer", 1),
        "evaluate.self_ms": ms("evaluate", 2),
        "params.init_ms": setup_ms("params.init"),
        "scenes.generate_ms": setup_ms("scenes.generate"),
        "trace.overhead_frac": 1.0 - ratio(timing["untraced"], timing["traced"]),
    }


def add_totals(into, new):
    for name, (c, incl, own) in new.items():
        t = into.setdefault(name, [0, 0.0, 0.0])
        t[0] += c
        t[1] += incl
        t[2] += own


def run_workload(name: str, seed: int, seconds: float, trace: bool, modules: dict) -> dict:
    """Set up, warm up and measure one workload; returns the full record.

    Model-defined counts (FLOPs, tokens, selection and padding rates) are
    taken over the first pass through the workload's inputs, units
    0..cycle-1, so they do not depend on how many units a run reaches.
    `setup_s` is one cold set-up: from process start to the end of the
    checked warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    trial = Trial(workload)
    if trace:

        def on_stage1(args, kwargs, outs):
            trial.captured.extend((args[2], o.trace, o.token_set) for o in outs)

        def on_backward(args, kwargs, result):
            trial.tape_nodes += len(args[1].nodes)

        trial.tracer = tracing.Tracer(modules, {"stage1": on_stage1, "tensor.backward": on_backward})
    elif tracing.installed(modules):
        raise RuntimeError(f"tracing wrappers left installed: {tracing.installed(modules)}")

    if trace:
        trial.tracer.install()
    try:
        state = workload.setup(seed)
    finally:
        if trace:
            trial.tracer.uninstall()
    trial.unit(state, 0, traced=trace, warm_up=True)
    setup_s = time.perf_counter() - _T0
    setup_totals = trial.tracer.take() if trace else {}
    trial.captured.clear()
    trial.tape_nodes = 0
    warm_ops = len(trial.ops)

    totals, first_totals, traced_ops, first_pass, first_captured = {}, {}, [], [], []
    timing = {"traced": 0.0, "untraced": 0.0}
    t_start = time.perf_counter()
    k = 0
    while True:
        if trace:
            # the same unit untraced and traced, alternating which goes first
            pair = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                pair[traced] = trial.unit(state, k, traced=traced)
                timing["traced" if traced else "untraced"] += sum(op.seconds for op in pair[traced])
            unit_totals = trial.tracer.take()
            add_totals(totals, unit_totals)
            traced_ops.extend(pair[True])
            for a, b in zip(pair[False], pair[True]):
                if a.error is None and b.error is None and (a.flops, a.value) != (b.flops, b.value):
                    b.error = "traced op differs from its untraced twin"
            ops = pair[True]
            if k < workload.cycle:
                add_totals(first_totals, unit_totals)
                first_captured.extend(trial.captured)
            trial.captured.clear()
        else:
            ops = trial.unit(state, k)
        if k < workload.cycle:
            first_pass.extend(ops)
        k += 1
        if time.perf_counter() - t_start >= seconds:
            break
    if not trace and tracing.installed(modules):
        raise RuntimeError("tracing wrappers appeared during an untraced run")

    failed = [op for op in trial.ops if op.error is not None]
    flops_per_op = ratio(sum(op.flops or 0 for op in first_pass), len(first_pass))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(seed),
        "units": k,
        "first_pass_complete": k >= workload.cycle,
        "attempted": len(trial.ops),
        "failed": len(failed),
        "failures": [op.error for op in failed[:20]],
        "flops_per_op": flops_per_op,
    }
    if trace:
        stats = stage1_stats(first_captured, modules["flops"].count_forward)
        stats["tape_nodes"] = trial.tape_nodes
        stats["flops_per_op"] = flops_per_op
        record["metrics"] = per_layer(totals, first_totals, setup_totals, stats, len(traced_ops), timing)
        record["first_pass"] = {
            "images": stats["images"],
            "flops": {sec: stats[f"{sec}.flops"] for sec in ("stage1", "stage2")},
            "seconds": {span: first_totals.get(span, (0, 0.0, 0.0))[1] for span in ("stage1", "stage2.refine")},
        }
        record["spans_per_op"] = {
            s: {"calls": c / len(traced_ops), "ms": i * 1000 / len(traced_ops), "self_ms": o * 1000 / len(traced_ops)}
            for s, (c, i, o) in sorted(totals.items())
        }
    else:
        record["metrics"], record["extra"] = summarize_end_to_end(trial.ops[warm_ops:], setup_s)
        record["extra"]["failed_frac"] = len(failed) / len(trial.ops)
    return record


def write_reference(name: str, seed: int):
    from workloads import REFERENCE_DIR, WORKLOADS

    workload = WORKLOADS[name]
    ref = workload.reference(workload.setup(seed))
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, "w") as f:
        json.dump(ref, f, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_engine()
    if args.write_reference:
        write_reference(args.workload, args.seed)
        return 0
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), modules)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(rec["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(rec['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    m = rec["machine"]
    print(
        f"{args.workload} seed {args.seed}: {rec['attempted']} ops in {rec['units']} units, "
        f"{rec['failed']} failed; {m['cpu']}, nproc {m['nproc']}, numpy {m['numpy']}, "
        f"{m['blas']['name']} {m['blas']['version']}, BLAS threads {m['blas_threads']['OPENBLAS_NUM_THREADS']}"
    )
    for err in rec["failures"]:
        print(f"failed: {err}")
    for key, value in rec["metrics"].items():
        print(f"{key:34s} {value:14.6g} {units[key]}")
    if not args.trace:
        extra = rec["extra"]
        p90 = "n/a (fewer than 100 ops)" if extra["op_ms.p90"] is None else f"{extra['op_ms.p90']:.6g} ms"
        print(f"{'op_ms.p90':34s} {p90} over {extra['ops']} ops")
        print(f"{'failed_frac':34s} {extra['failed_frac']:14.6g} frac ({rec['failed']}/{rec['attempted']})")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": rec["failed"] == 0,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in rec["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
