"""Local attention over sparse mixed-resolution tokens.

Tokens sit in canonical (Morton) order, so chopping that order into
contiguous runs yields spatially compact clusters. Each token attends to
its own cluster plus the neighboring run on either side, which lets fine
tokens see nearby coarse context and vice versa. The assignment is a pure
function of (canonical order, cluster_size) and is recomputed whenever the
allocation changes. Every row is a real token: batch padding never
reaches this module. A stacked batch passes a `TokenBatch`: its samples'
rows follow one another, and every window stays inside its sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ContractError
from .geometry import TokenBatch
from .params import ParamStore
from .tensor import Tensor


@dataclass(frozen=True)
class ClusterAssignment:
    """Canonical rows 0..n_tokens-1 chopped into runs of cluster_size; the
    last run may be short."""

    n_tokens: int
    cluster_size: int

    @property
    def n_clusters(self) -> int:
        return -(-self.n_tokens // self.cluster_size)

    def cluster_of(self, row: int) -> int:
        return row // self.cluster_size

    def neighborhood(self, c: int) -> np.ndarray:
        """Rows of cluster c and of the clusters on either side."""
        return np.arange(max(c - 1, 0) * self.cluster_size, min((c + 2) * self.cluster_size, self.n_tokens))


def cluster(token_set: TokenBatch, cluster_size: int) -> ClusterAssignment:
    """Assignment over the rows of a `TokenBatch`; in a batch of several
    samples the runs restart at every sample's first row."""
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    return ClusterAssignment(n_tokens=token_set.n_valid, cluster_size=cluster_size)


def _attention(x: Tensor, store: ParamStore, prefix: str, heads: int, size: int, key_levels, segments):
    """x plus the attention branch, the residual added in the output
    projection. Off a tape each intermediate dies at its last use: the
    key-scale rows once k exists, the layer-norm output once v does, and
    q, k and v once the attention has read them, so at most five arrays
    of x's size live at once (x, the layer-norm output and q, k, v; then
    x, q, k, v and the attention output)."""
    h = tensor.layer_norm(x, store[f"{prefix}.ln1.g"], store[f"{prefix}.ln1.b"])
    # scale-aware keys: coarse and fine tokens in one neighborhood stay
    # distinguishable to the attention logits
    key_scale = None if key_levels is None else tensor.gather_rows(store[f"{prefix}.key_scale"], key_levels)
    q = tensor.linear(h, store[f"{prefix}.q.w"], store[f"{prefix}.q.b"], segments)
    k = tensor.linear(h, store[f"{prefix}.k.w"], store[f"{prefix}.k.b"], segments, plus=key_scale)
    del key_scale
    v = tensor.linear(h, store[f"{prefix}.v.w"], store[f"{prefix}.v.b"], segments)
    del h
    attn = tensor.window_attention(q, k, v, size, heads, segments)
    del q, k, v
    return tensor.linear(attn, store[f"{prefix}.o.w"], store[f"{prefix}.o.b"], segments, plus=x)


def _mlp(x: Tensor, store: ParamStore, prefix: str, segments) -> Tensor:
    """x plus the MLP branch. The layer-norm output is passed as the MLP's
    only reference, so it dies as the MLP returns."""
    return tensor.mlp(
        tensor.layer_norm(x, store[f"{prefix}.ln2.g"], store[f"{prefix}.ln2.b"]),
        store[f"{prefix}.mlp1.w"],
        store[f"{prefix}.mlp1.b"],
        store[f"{prefix}.mlp2.w"],
        store[f"{prefix}.mlp2.b"],
        segments,
        plus=x,
    )


def cluster_attention_block(
    x: Tensor,
    token_set: TokenBatch,
    assignment: ClusterAssignment,
    store: ParamStore,
    prefix: str,
    heads: int,
) -> Tensor:
    """Pre-norm block with attention restricted to cluster neighborhoods.
    `token_set` is the `TokenBatch` whose rows x stacks, one sample or
    many; no neighborhood crosses a sample."""
    if not x.data.shape[0] == token_set.n_valid == assignment.n_tokens:
        raise ContractError(
            f"{x.data.shape[0]} feature rows, {token_set.n_valid} tokens and a cluster "
            f"assignment over {assignment.n_tokens} rows do not agree"
        )
    x = _attention(x, store, prefix, heads, assignment.cluster_size, token_set.row_levels(), token_set.segments)
    return _mlp(x, store, prefix, token_set.segments)


def vit_block(x: Tensor, store: ParamStore, prefix: str, heads: int, segments=None) -> Tensor:
    """Plain pre-norm ViT block: full self-attention within each row
    segment (one per stacked sample; None is all rows of x)."""
    segments = (x.data.shape[0],) if segments is None else tuple(segments)
    x = _attention(x, store, prefix, heads, max(max(segments, default=0), 1), None, segments)
    return _mlp(x, store, prefix, segments)
