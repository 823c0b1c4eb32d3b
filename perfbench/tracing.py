"""Span tracing around the public functions of the `adaptok` modules.

The tracer replaces module (and class) attributes with timing wrappers from
the benchmark's own code; the engine itself is not edited. `install` and
`uninstall` swap the wrappers in and out, and `uninstall` restores every
original even when a wrapper raised. Spans are kept in memory per unit of
work and folded into per-name totals when the unit ends, so memory stays
bounded however long a run is.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module name, class name or None, attribute, span name). Several targets may
# share a span name; the layer metrics add them up.
TARGETS = (
    ("tensor", None, "backward", "tensor.backward"),
    ("tensor", None, "softmax_attention", "tensor.softmax_attention"),
    ("stage1", None, "run_stage1_batch", "stage1"),
    ("clusterattn", None, "cluster_attention_block", "clusterattn.block"),
    ("clusterattn", None, "vit_block", "clusterattn.block"),
    ("clusterattn", None, "cluster", "clusterattn.cluster"),
    ("stage2", None, "run_stage2", "stage2.refine"),
    ("stage2", None, "densify_finest", "stage2.densify"),
    ("stage2", None, "head_logits", "stage2.head"),
    ("geometry", None, "finest_cover", "geometry.finest_cover"),
    ("geometry", None, "canonical_order", "geometry.canonical_order"),
    ("boundary", None, "boundary_map", "boundary.boundary_map"),
    ("boundary", None, "target_scores", "boundary.target_scores"),
    ("flops", None, "count_forward", "flops.count_forward"),
    ("train", None, "forward_batch", "train.forward"),
    ("train", None, "forward_full", "train.forward"),
    ("train", None, "sample_loss", "train.loss"),
    ("train", "Adam", "step", "train.optimizer"),
    ("evaluate", None, "evaluate", "evaluate"),
    ("params", None, "init_params", "params.init"),
    ("scenes", None, "generate_corpus", "scenes.generate"),
)

_MARK = "_perfbench_span"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children.

    `spans` is a sequence of (name, start, end, parent) with `parent` the
    index of the enclosing span or -1."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def fold(spans) -> dict[str, list[float]]:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    totals: dict[str, list[float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += end - start
        t[2] += own
    return totals


def _resolve(modules, module, cls):
    owner = modules[module]
    return owner if cls is None else getattr(owner, cls)


def installed(modules) -> list[str]:
    """Targets that currently carry a tracing wrapper."""
    return [
        f"{m}.{c + '.' if c else ''}{a}"
        for m, c, a, _ in TARGETS
        if hasattr(getattr(_resolve(modules, m, c), a), _MARK)
    ]


class Tracer:
    """Records spans for TARGETS while installed.

    `hooks` maps a span name to a callable run after the wrapped call
    returns, as hook(args, kwargs, result); a hook must only stash
    references, because its time is charged to the enclosing span."""

    def __init__(self, modules: dict, hooks: dict | None = None):
        self.modules = modules
        self.hooks = hooks or {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, cls, attr, name in TARGETS:
                owner = _resolve(self.modules, module, cls)
                # the raw function from the owner's namespace, so a method
                # wrapper still binds `self`
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self._stack.clear()

    def take(self) -> dict[str, list[float]]:
        """Fold and drop the spans recorded since the last call."""
        spans = [tuple(s) for s in self.spans]
        self.spans.clear()
        return fold(spans)
