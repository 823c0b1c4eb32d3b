"""Dense float64 tensors with reverse-mode gradients on an explicit tape.

Everything is 64-bit and deterministic so analytic gradients can be checked
against central finite differences. Ops record tape nodes only while a
GradTape is active; outside a tape they are plain numpy forward computations.
Broadcasting is limited to trailing-dimension affine (matrix + row vector).
"""

from __future__ import annotations

import math

import numpy as np

from . import flops
from .errors import ContractError


class Tensor:
    """Immutable-by-convention array node. `data` is always float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class GradTape:
    """Creation-ordered record of traced ops; reverse replay yields grads."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


_TAPES: list[GradTape] = []


def _record(out: Tensor, parents, vjp):
    """Tape `out` only when some parent has a path to a `requires_grad` leaf;
    everything else (pixel patches, zero padding) is a constant."""
    if _TAPES and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        _TAPES[-1].nodes.append(out)


def backward(loss: Tensor, tape: GradTape, params=None):
    """Accumulate d(loss)/d(t) into `t.grad` for every tensor on the tape
    and every `requires_grad` leaf under it; constants keep `grad` None.

    `loss` must be a scalar produced under `tape`. When `params` is given
    (iterable of (name, Tensor)), returns a name -> gradient dict with zeros
    for parameters the loss never touched.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    for node in tape.nodes:
        node.grad = None
        for p in node._parents:
            p.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        gs = node._vjp(node.grad)
        for p, g in zip(node._parents, gs):
            if g is None or not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            p.grad += g
    if params is not None:
        out = {}
        for name, t in params:
            out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
        return out
    return None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    """Elementwise add; also (m,d) + (d,) bias rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    bias = a.data.ndim == 2 and b.data.ndim == 1
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shapes {a.data.shape} vs {b.data.shape}")
    if bias and a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"bias add shapes {a.data.shape} vs {b.data.shape}")
    flops.add_cost(scalar_ops=a.data.size)
    out = Tensor(a.data + b.data)

    def vjp(g):
        gb = g.sum(axis=0) if bias else g
        return g, gb

    _record(out, (a, b), vjp)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shapes {a.data.shape} vs {b.data.shape}")
    flops.add_cost(scalar_ops=a.data.size)
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shapes {a.data.shape} vs {b.data.shape}")
    flops.add_cost(scalar_ops=a.data.size)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    flops.add_cost(scalar_ops=a.data.size)
    out = Tensor(a.data * c)
    _record(out, (a,), lambda g: (g * c,))
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dims {a.data.shape} vs {b.data.shape}")
    m, k = a.data.shape
    n = b.data.shape[1]
    flops.add_cost(macs=m * k * n)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    _record(
        out,
        (a, b),
        lambda g: (g @ bd.T if a.requires_grad else None, ad.T @ g if b.requires_grad else None),
    )
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.T)
    _record(out, (a,), lambda g: (g.T,))
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape
    _record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    _record(out, tuple(parts), vjp)
    return out


def gather_rows(a, idx) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate on backward."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])
    n_rows = a.data.shape[0]

    def vjp(g):
        full = np.zeros((n_rows,) + g.shape[1:])
        np.add.at(full, idx, g)
        return (full,)

    _record(out, (a,), vjp)
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Row-wise normalization over the last dimension, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError("layer_norm affine params must match the last dim")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    rows = x.data.size // d
    flops.add_cost(scalar_ops=rows * flops.layer_norm_row_ops(d))
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gamma.data + beta.data)
    gd = gamma.data

    def vjp(g):
        dxhat = g * gd
        # classic layer-norm backward in terms of xhat
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    _record(out, (x, gamma, beta), vjp)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """GELU, tanh approximation."""
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=flops.GELU_OPS_PER_ELEM * x.data.size)
    xd = x.data
    u = _GELU_C * (xd + _GELU_A * (xd * xd * xd))
    t = np.tanh(u)
    out = Tensor(0.5 * xd * (1.0 + t))

    def vjp(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (xd * xd))
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    _record(out, (x,), vjp)
    return out


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=flops.SIGMOID_OPS_PER_ELEM * x.data.size)
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s)
    _record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def masked_softmax(logits, mask) -> Tensor:
    """Row softmax over entries where mask is True; masked weights are 0.

    Every row must keep at least one live entry.
    """
    logits = _as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape:
        raise ValueError(f"mask shape {mask.shape} vs logits {logits.data.shape}")
    live = mask.sum(axis=-1)
    if np.any(live == 0):
        raise ContractError("softmax row with no unmasked entries")
    flops.add_cost(
        scalar_ops=int(np.maximum(4 * live - 1, 0).sum()),
        comparisons=int(live.sum()),
    )
    z = np.where(mask, logits.data, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    _record(out, (logits,), vjp)
    return out


def softmax_attention(q, k, v, mask) -> Tensor:
    """Scaled dot-product attention: rows of the output are convex
    combinations of `v` rows restricted to unmasked keys.

    q: (m, d), k: (n, d), v: (n, dv), mask: bool (m, n).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.shape[1] != k.data.shape[1]:
        raise ValueError("q/k feature dims differ")
    if k.data.shape[0] != v.data.shape[0]:
        raise ValueError("k/v row counts differ")
    d = q.data.shape[1]
    logits = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d))
    attn = masked_softmax(logits, mask)
    return matmul(attn, v)


def window_attention(q, k, v, size: int, heads: int) -> Tensor:
    """Multi-head local attention over runs of `size` consecutive rows.

    The rows are chopped into runs of `size` (the last may be short); each
    run's queries attend to the keys of its own run and the runs on either
    side. With a single run the window is all rows. q, k, v: (n, d) with d
    divisible by `heads`.

    All runs are stacked into one (runs, heads, size, 3*size) problem: the
    key/value rows are zero-padded by one run at each end, and the padding,
    the short tail and the missing neighbours are masked out. FLOPs are
    charged on live (query, key) pairs only, as the per-run loop of
    `softmax_attention` would be.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n, d = q.data.shape
    if k.data.shape != (n, d) or v.data.shape != (n, d):
        raise ValueError(f"q/k/v shapes {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if d % heads:
        raise ValueError(f"dim {d} not divisible by {heads} heads")
    hd = d // heads
    runs = -(-n // size)
    if runs == 1:
        size = n
    span = 3 if runs > 1 else 1  # runs per key window
    lead = size if runs > 1 else 0  # zero rows ahead of row 0 in the key frame
    width = span * size

    qpos = np.arange(runs)[:, None] * size + np.arange(size)
    kpos = np.arange(runs)[:, None] * size - lead + np.arange(width)
    qlive = qpos < n
    klive = (kpos >= 0) & (kpos < n)
    live = qlive[:, :, None] & klive[:, None, :]
    per_row = live.sum(axis=-1)
    pairs = int(per_row.sum())
    flops.add_cost(
        macs=heads * 2 * pairs * hd,
        scalar_ops=heads * (pairs + int(np.maximum(4 * per_row - 1, 0).sum())),
        comparisons=heads * pairs,
    )

    def frame(a, lead, n_runs):  # a's n rows, `lead` rows into a zero frame of n_runs runs
        out = np.zeros((n_runs * size, d))
        out[lead : lead + n] = a
        return out

    def unframe(framed, lead):  # adjoint of frame
        return framed[lead : lead + n]

    def split_heads(a, n_rows):  # (runs * n_rows, d) -> (runs, heads, n_rows, hd)
        return a.reshape(runs, n_rows, heads, hd).transpose(0, 2, 1, 3)

    def merge_heads(a):  # inverse of split_heads
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    def windows(a):  # (n, d) -> (runs, heads, width, hd)
        framed = frame(a, lead, runs + span - 1).reshape(runs + span - 1, size, d)
        stacked = np.concatenate([framed[i : i + runs] for i in range(span)], axis=1)
        return split_heads(stacked.reshape(-1, d), width)

    def unwindow(w):  # adjoint of windows: shifted adds, one per run offset
        w = merge_heads(w).reshape(runs, span, size, d)
        framed = np.zeros((runs + span - 1, size, d))
        for i in range(span):
            framed[i : i + runs] += w[:, i]
        return unframe(framed.reshape(-1, d), lead)

    qs, ks, vs = split_heads(frame(q.data, 0, runs), size), windows(k.data), windows(v.data)
    c = 1.0 / math.sqrt(hd)
    # every query slot, the tail's empty ones included, keeps at least one
    # live key, so no softmax row is empty; empty slots are dropped from the output
    z = np.where(klive[:, None, None, :], np.matmul(qs, ks.transpose(0, 1, 3, 2)) * c, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(unframe(merge_heads(np.matmul(p, vs)), 0))

    def vjp(g):
        gs = split_heads(frame(g, 0, runs), size)
        dp = np.matmul(gs, vs.transpose(0, 1, 3, 2))
        dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        dq = unframe(merge_heads(np.matmul(dz, ks)), 0)
        dk = unwindow(np.matmul(dz.transpose(0, 1, 3, 2), qs))
        dv = unwindow(np.matmul(p.transpose(0, 1, 3, 2), gs))
        return dq, dk, dv

    _record(out, (q, k, v), vjp)
    return out


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=max(x.data.size - 1, 0))
    out = Tensor(x.data.sum())
    shape = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size
    flops.add_cost(scalar_ops=n)
    out = Tensor(x.data.mean())
    shape = x.data.shape
    _record(out, (x,), lambda g: (np.broadcast_to(g / n, shape).copy(),))
    return out


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of row softmax vs integer labels. Fused for
    stability; caller filters rows to the ones that should count."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} for logits {logits.data.shape}")
    if n == 0:
        raise ValueError("cross entropy over zero rows")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(e.sum(axis=1)))
    flops.add_cost(scalar_ops=n * flops.softmax_row_ops(c) + 3 * n, comparisons=n * c)
    out = Tensor(nll.mean())

    def vjp(g):
        grad = p.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    _record(out, (logits,), vjp)
    return out


def mse(pred, target) -> Tensor:
    """Mean squared error over all entries (compose with gather_rows to
    restrict to valid rows)."""
    diff = sub(pred, target)
    return mean_all(mul(diff, diff))
