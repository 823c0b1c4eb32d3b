"""Compute accounting: per-op cost conventions, an execution meter, and an
analytic per-sample accountant that predicts the meter's totals from an
allocation trace.

Conventions (documented here, used by both the meter and the analytic side):

* one multiply-accumulate (MAC) = 2 FLOPs in reported totals
* matmul (m x k) @ (k x n): m*k*n MACs
* elementwise add/scale/bias over E scalars: E scalar ops
* mean squared error over E entries: 3E scalar ops (subtract, square and
  mean, fused in one tape node)
* layer norm over a row of width d: 7d + 2 scalar ops
  (mean d, center d, variance 2d, eps+sqrt 2, scale d, affine 2d)
* GELU (tanh form): 12 scalar ops per element
* sigmoid: 4 scalar ops per element
* softmax row with k live entries: k comparisons (max-shift)
  plus 4k - 1 scalar ops (shift, exp, accumulate, divide)
* sorting n keys (canonical token ordering): n*ceil(log2 n) comparisons;
  comparisons are reported separately and never enter the FLOP total
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

GELU_OPS_PER_ELEM = 12
SIGMOID_OPS_PER_ELEM = 4


def layer_norm_row_ops(d: int) -> int:
    return 7 * d + 2


def softmax_row_ops(k: int) -> int:
    return max(4 * k - 1, 0)


def sort_comparisons(n: int) -> int:
    if n <= 1:
        return 0
    return n * math.ceil(math.log2(n))


@dataclass
class Counts:
    macs: int = 0
    scalar_ops: int = 0
    comparisons: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.macs + self.scalar_ops

    def __iadd__(self, other: "Counts") -> "Counts":
        self.macs += other.macs
        self.scalar_ops += other.scalar_ops
        self.comparisons += other.comparisons
        return self

    def as_dict(self) -> dict:
        return {
            "macs": self.macs,
            "scalar_ops": self.scalar_ops,
            "comparisons": self.comparisons,
            "flops": self.flops,
        }


@dataclass
class FlopsReport:
    """Per-section op costs. Filled at run time by a meter, which attributes
    each op to the innermost open section, or analytically by `count_forward`."""

    sections: dict[str, Counts] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=lambda: ["unattributed"], repr=False, compare=False)

    @contextmanager
    def section(self, name: str):
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def counts(self, name: str | None = None) -> Counts:
        """The running counts of section `name`, by default the innermost
        open one; charges add to them in place."""
        name = self._stack[-1] if name is None else name
        c = self.sections.get(name)
        if c is None:
            c = self.sections[name] = Counts()
        return c

    def add(self, counts: Counts, name: str | None = None):
        """Charge `counts` to section `name`, by default the innermost open one."""
        c = self.counts(name)
        c += counts

    def total(self) -> Counts:
        t = Counts()
        for c in self.sections.values():
            t += c
        return t

    def as_dict(self) -> dict:
        return {
            "sections": {k: v.as_dict() for k, v in sorted(self.sections.items())},
            "total": self.total().as_dict(),
        }


_METERS: list[FlopsReport] = []


@contextmanager
def meter():
    m = FlopsReport()
    _METERS.append(m)
    try:
        yield m
    finally:
        _METERS.pop()


def add_cost(macs: int = 0, scalar_ops: int = 0, comparisons: int = 0):
    """Charge one op's cost to the innermost open section of the active
    meter, in place: every metered op calls this, so it builds no Counts."""
    if not _METERS:
        return
    c = _METERS[-1].counts()
    c.macs += macs
    c.scalar_ops += scalar_ops
    c.comparisons += comparisons


def section(name: str):
    """Attribution context for the active meter; a no-op when none is."""
    return _METERS[-1].section(name) if _METERS else nullcontext()


def corpus_stats(totals) -> tuple[float, float]:
    """Population mean and standard deviation of per-sample FLOP totals."""
    arr = np.asarray(list(totals), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("corpus_stats needs at least one report")
    return float(arr.mean()), float(arr.std())


# ---------------------------------------------------------------------------
# analytic accountant: predicts the meter's totals for a solo (unpadded)
# inference forward from the allocation trace alone


def cluster_group_sizes(n: int, cluster_size: int) -> list[tuple[int, int]]:
    """(own size, neighborhood size) per cluster for n tokens in canonical
    order chopped into runs of cluster_size (last run may be short)."""
    if n <= 0:
        return []
    sizes = [cluster_size] * (n // cluster_size)
    if n % cluster_size:
        sizes.append(n % cluster_size)
    out = []
    for c, m in enumerate(sizes):
        nb = m
        if c > 0:
            nb += sizes[c - 1]
        if c + 1 < len(sizes):
            nb += sizes[c + 1]
        out.append((m, nb))
    return out


def _charge_block(rep: FlopsReport, sec: str, n: int, d: int, heads: int, groups, key_scale: bool):
    """One pre-norm attention block over n rows of width d."""
    c = Counts()
    c.scalar_ops += n * layer_norm_row_ops(d)  # ln1
    c.macs += 3 * n * d * d  # q, k, v
    c.scalar_ops += 3 * n * d
    if key_scale:
        c.scalar_ops += n * d
    hd = d // heads
    for m, nb in groups:
        c.macs += heads * (m * hd * nb + m * nb * hd)
        c.scalar_ops += heads * (m * nb + m * softmax_row_ops(nb))
        c.comparisons += heads * m * nb
    c.macs += n * d * d  # output projection
    c.scalar_ops += n * d
    c.scalar_ops += n * d  # attention residual
    c.scalar_ops += n * layer_norm_row_ops(d)  # ln2
    c.macs += n * d * 4 * d
    c.scalar_ops += n * 4 * d
    c.scalar_ops += GELU_OPS_PER_ELEM * n * 4 * d
    c.macs += n * 4 * d * d
    c.scalar_ops += n * d
    c.scalar_ops += n * d  # mlp residual
    rep.add(c, sec)


def count_forward(cfg, trace) -> FlopsReport:
    """Analytic mirror of the inference forward (embedding through head
    logits) for one unpadded sample with the given allocation trace."""
    rep = FlopsReport()
    n0 = cfg.coarse_tokens
    d0 = cfg.stage1_dims[0]
    patch = 32 * 32 * cfg.channels
    rep.add(
        Counts(macs=n0 * patch * d0, scalar_ops=2 * n0 * d0, comparisons=sort_comparisons(n0)),
        "stage1.embed",
    )
    for _ in range(cfg.stage1_blocks[0]):
        _charge_block(rep, "stage1.pre", n0, d0, cfg.heads_for(d0), [(n0, n0)], False)
    live = n0
    for rec in trace.rounds:
        r = rec.round_index
        d = cfg.stage1_dims[r]
        sec = f"stage1.r{r}"
        c = Counts()
        c.macs += live * cfg.stage1_dims[r - 1] * d  # round-entry projection
        c.scalar_ops += live * d
        n_cand = rec.candidate_count
        if n_cand:
            hid = cfg.scorer_hidden(r)
            c.macs += n_cand * d * hid + n_cand * hid * 1
            c.scalar_ops += n_cand * hid + GELU_OPS_PER_ELEM * n_cand * hid
            c.scalar_ops += n_cand + SIGMOID_OPS_PER_ELEM * n_cand
        if rec.selection_source in ("predicted", "oracle"):
            c.comparisons += n_cand
        if rec.selected_count:
            ch = 4 * rec.selected_count
            if not cfg.no_aux_image:
                sub = (32 >> r) ** 2 * cfg.channels
                c.macs += ch * sub * d + 2 * ch * d * d
                c.scalar_ops += 3 * ch * d + GELU_OPS_PER_ELEM * ch * d
                if not cfg.no_residual:
                    c.scalar_ops += ch * d  # parent residual add
            c.scalar_ops += 2 * ch * d  # scale + slot embeddings
            live += ch
            c.comparisons += sort_comparisons(live) + sort_comparisons(ch)
        rep.add(c, sec)
        if cfg.stage1_blocks[r]:
            groups = cluster_group_sizes(live, cfg.cluster_size)
            for _ in range(cfg.stage1_blocks[r]):
                _charge_block(rep, sec, live, d, cfg.heads_for(d), groups, True)
    per_level = trace.tokens_per_level(n0)
    if cfg.stage1_only:
        d = cfg.stage1_dims[3]
        _charge_block(
            rep, "stage1x", live, d, cfg.heads_for(d), cluster_group_sizes(live, cfg.cluster_size), True
        )
        head_dim = d
        align_src = {2: d, 1: d, 0: d}
    else:
        carried = live
        for k in (1, 2, 3, 4):
            d = cfg.stage2_dims[k - 1]
            sec = f"stage2.r{k}"
            c = Counts()
            if k >= 2:
                c.macs += carried * cfg.stage2_dims[k - 2] * d  # carried projection
                c.scalar_ops += carried * d
                c.macs += carried * 2 * d * d  # lateral fusion
                c.scalar_ops += carried * d
            rep.add(c, sec)
            groups = (
                cluster_group_sizes(carried, cfg.cluster_size) if k <= 3 else [(carried, carried)]
            )
            for _ in range(cfg.stage2_blocks[k - 1]):
                _charge_block(rep, sec, carried, d, cfg.heads_for(d), groups, k < 4)
            carried -= per_level[4 - k]
        head_dim = cfg.stage2_dims[0]
        align_src = {2: cfg.stage2_dims[1], 1: cfg.stage2_dims[2], 0: cfg.stage2_dims[3]}
    cells = cfg.head_cells
    c = Counts()
    for lvl in (2, 1, 0):
        c.macs += per_level[lvl] * align_src[lvl] * head_dim
        c.scalar_ops += per_level[lvl] * head_dim
    c.scalar_ops += cells * head_dim  # per-cell position embedding
    rep.add(c, "densify")
    rep.add(Counts(macs=cells * head_dim * cfg.n_classes, scalar_ops=cells * cfg.n_classes), "head")
    return rep
