"""Dense float64 tensors with reverse-mode gradients on an explicit tape.

Everything is 64-bit and deterministic so analytic gradients can be checked
against central finite differences. Ops record tape nodes only while a
GradTape is active; outside a tape they are plain numpy forward computations.
Broadcasting is limited to trailing-dimension affine (matrix + row vector).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

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


def constant(data) -> Tensor:
    return Tensor(data)


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


def _taped(parents) -> bool:
    """Whether an op on `parents` is recorded: a tape is open and some
    parent has a path to a `requires_grad` leaf; everything else (pixel
    patches, zero padding, any op off the tape) is a constant, so an op may
    drop what only its vjp would read."""
    return bool(_TAPES) and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents, vjp):
    """Tape `out` when `_taped(parents)`."""
    if _taped(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        _TAPES[-1].nodes.append(out)


class Gradients(dict):
    """Name -> gradient of each parameter passed to `backward`, each a view
    of its slot in `flat`, one buffer laid out in the order the parameters
    were given (a `ParamStore`'s `items()` gives its arena's layout)."""

    def __init__(self, params):
        params = list(params)
        self.flat = np.empty(sum(t.data.size for _, t in params))
        lo = 0
        for name, t in params:
            self[name] = self.flat[lo : lo + t.data.size].reshape(t.data.shape)
            lo += t.data.size


def backward(loss: Tensor, tape: GradTape, params=None):
    """Accumulate d(loss)/d(t) into `t.grad` for every tensor on the tape
    and every `requires_grad` leaf under it; constants keep `grad` None.

    `loss` must be a scalar produced under `tape`. When `params` is given
    (iterable of (name, Tensor)), returns their `Gradients`: each
    parameter's gradient lands in its slot of one flat buffer (a copy on
    the first arrival, in-place adds after), and parameters the loss never
    touched get zeros there; their `grad` stays None.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    params = None if params is None else list(params)
    for node in tape.nodes:
        node.grad = None
        for p in node._parents:
            p.grad = None
    grads = None if params is None else Gradients(params)
    slots = {}
    for name, t in params or ():
        t.grad = None  # an earlier backward's gradient is not this loss's
        slots[id(t)] = grads[name]
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        gs = node._vjp(node.grad)
        for p, g in zip(node._parents, gs):
            if g is None or not p.requires_grad:
                continue
            slot = slots.get(id(p))
            if slot is None:
                # the first gradient is adopted as is; it may alias another
                # parent's (add hands `g` to both, concat returns views), so a
                # second arrival allocates instead of adding in place
                p.grad = g if p.grad is None else p.grad + g
            elif p.grad is None:
                slot[...] = g
                p.grad = slot
            else:
                slot += g
    if grads is None:
        return None
    for name, t in params:
        if t.grad is None:
            grads[name][...] = 0.0
    return grads


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


def _bounds(segments, n: int) -> list[int]:
    """Row offsets [0, s0, s0+s1, ..., n] of consecutive row segments; None
    is one segment of all n rows."""
    if segments is None:
        return [0, n]
    bounds = list(itertools.accumulate(segments, initial=0))
    if bounds[-1] != n or min(segments, default=0) < 0:
        raise ValueError(f"segments {tuple(segments)} do not cover {n} rows")
    return bounds


def _segment_matmul(xd: np.ndarray, wd: np.ndarray, segments) -> np.ndarray:
    """xd @ wd, one GEMM per row segment, so each segment's rows get the
    result they would get alone (BLAS rounds a row differently when the
    row count changes). When every non-empty segment has one length L,
    they run as one `np.matmul` over a (G, L, k) reshape view, which makes
    the 2-D product's BLAS call once per stacked matrix; otherwise each
    segment is its own 2-D product. A single segment skips the grouping: it
    costs a few microseconds a call, and a batch of one makes every call."""
    bounds = _bounds(segments, xd.shape[0])
    if len(bounds) == 2:
        return xd @ wd
    sizes = {hi - lo for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo}
    if len(sizes) == 1:
        (size,) = sizes
        return np.matmul(xd.reshape(-1, size, xd.shape[1]), wd).reshape(xd.shape[0], -1)
    y = np.empty((xd.shape[0], wd.shape[1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            y[lo:hi] = xd[lo:hi] @ wd
    return y


def linear(x, w, b, segments=None) -> Tensor:
    """x @ w + b over row segments (per-sample blocks of a stacked batch),
    each row computed as its sample alone computes it (`_segment_matmul`).
    Costs what matmul plus a bias add cost."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shapes {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} for weight {w.data.shape}")
    (m, k), n = x.data.shape, w.data.shape[1]
    flops.add_cost(macs=m * k * n, scalar_ops=m * n)
    xd, wd = x.data, w.data
    y = _segment_matmul(xd, wd, segments)
    y += b.data
    out = Tensor(y)

    def vjp(g):
        return (
            g @ wd.T if x.requires_grad else None,
            xd.T @ g if w.requires_grad else None,
            g.sum(axis=0),
        )

    _record(out, (x, w, b), vjp)
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.T)
    _record(out, (a,), lambda g: (g.T,))
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
    """Select rows by non-negative integer index; duplicate indices
    accumulate on backward."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])
    n_rows = a.data.shape[0]

    def vjp(g):
        shape = (n_rows,) + g.shape[1:]
        if idx.size and np.bincount(idx, minlength=n_rows).max() <= 1:
            full = np.zeros(shape)
            full[idx] = g  # unique rows (a permutation): nothing to accumulate
            return (full,)
        # one weighted count over flat (row, column) slots adds each slot's
        # contributions in index order, as np.add.at does
        d = math.prod(g.shape[1:])
        slots = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(slots, weights=g.ravel(), minlength=n_rows * d).reshape(shape),)

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
    # np.var's own arithmetic on rows centred once; the squares land in
    # the output buffer, which then takes the affine in place
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(y, -1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)
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


CHUNK = 1 << 15  # elements per pass of a fused elementwise chain, or attention logits per pass off a tape: a few float64 chunks fit in L2
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """GELU, tanh approximation, one cache-sized chunk at a time. The tanh
    values are kept whole only on a tape, for the vjp; off it they live in
    one chunk of scratch."""
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=flops.GELU_OPS_PER_ELEM * x.data.size)
    xd = x.data
    y = np.empty(xd.shape)
    taped = _taped((x,))
    t = np.empty(xd.shape) if taped else None
    xf, yf = xd.reshape(-1), y.reshape(-1)
    s = np.empty((2, min(CHUNK, xf.size)))
    # 0.5 x (1 + tanh(c (x + a x^3)))
    for lo in range(0, xf.size, CHUNK):
        hi = min(lo + CHUNK, xf.size)
        xc, yc, sc = xf[lo:hi], yf[lo:hi], s[0, : hi - lo]
        tc = t.reshape(-1)[lo:hi] if taped else s[1, : hi - lo]
        np.multiply(xc, xc, out=tc)
        np.multiply(tc, xc, out=tc)
        np.multiply(tc, _GELU_A, out=tc)
        np.add(xc, tc, out=tc)
        np.multiply(tc, _GELU_C, out=tc)
        np.tanh(tc, out=tc)
        np.multiply(xc, 0.5, out=yc)
        np.add(tc, 1.0, out=sc)
        np.multiply(yc, sc, out=yc)
    out = Tensor(y)

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


class _WindowGroup(NamedTuple):
    """The segments of one window shape, framed together: run length L and
    `span` runs per window (3; 1 for segments that are one run each).

    The query frame holds each segment's rows at `offsets`, zero-padded to
    whole runs, with one zero run between segments of span 3; its run w is
    the queries of window w, so it has `windows` runs. The key frame adds
    one zero run at each end for span 3 (it is the query frame for span 1),
    so window w's keys are key-frame rows [w*L, (w + span)*L). A window
    whose query run is a zero run between two segments is computed and
    dropped. `packed` is the first row of q when the query frame is a slice
    of q, else None. `dead` (sorted) indexes the windows that hold a key
    outside their segment, and `bias` gives their (span*L,) additive key
    bias: 0 on live keys, -inf on dead ones."""

    length: int
    span: int
    windows: int
    starts: tuple
    rows: tuple
    offsets: tuple
    packed: int | None
    dead: np.ndarray
    bias: np.ndarray


@functools.lru_cache(maxsize=32)
def _window_layout(segments: tuple, size: int):
    """Run layout of `window_attention` over row segments, shared by every
    block of a round: (rows, groups, live pairs, softmax scalar ops), one
    `_WindowGroup` per window shape. Its arrays are read-only: every caller
    of one layout shares them."""
    n = sum(segments)
    bounds = _bounds(segments, n)
    # (run length, runs per window) -> starts and lengths of its segments
    layouts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            layouts.setdefault((size, 3) if hi - lo > size else (hi - lo, 1), []).append((lo, hi - lo))
    groups = []
    pairs = soft = 0
    for (length, span), members in layouts.items():
        gap = span // 3  # zero runs between segments, and ahead of the key frame
        offsets, dead, bias = [], [], []
        top = 0
        for start, m in members:
            offsets.append(top)
            runs = -(-m // length)
            kpos = (np.arange(runs)[:, None] - gap) * length + np.arange(span * length)
            klive = (kpos >= 0) & (kpos < m)
            # every live query row of a run sees the run's live keys
            live_q, live_k = np.minimum(m - np.arange(runs) * length, length), klive.sum(axis=-1)
            pairs += int((live_q * live_k).sum())
            soft += int((live_q * np.maximum(4 * live_k - 1, 0)).sum())
            hit = live_k < span * length
            dead.append(top // length + np.flatnonzero(hit))
            bias.append(np.where(klive[hit], 0.0, -np.inf))
            top += (runs + gap) * length
        starts, rows = zip(*members)
        # the query frame is a slice of q when it has no zero rows
        packed = all(o == s - starts[0] and m % length == 0 for s, m, o in zip(starts, rows, offsets))
        packed = starts[0] if packed and (not gap or len(members) == 1) else None
        dead, bias = np.concatenate(dead), np.concatenate(bias)
        for arr in (dead, bias):
            arr.setflags(write=False)
        groups.append(_WindowGroup(length, span, top // length - gap, starts, rows, tuple(offsets), packed, dead, bias))
    return n, tuple(groups), pairs, soft


def window_attention(q, k, v, size: int, heads: int, segments=None) -> Tensor:
    """Multi-head local attention over runs of `size` consecutive rows.

    Each row segment (one sample of a stacked batch; None is one segment of
    all rows) is chopped into runs of `size`, the last possibly short; each
    run's queries attend to the keys of its own run and of the runs on
    either side within the segment. A segment of at most `size` rows is a
    single run over itself. q, k, v: (n, d) with d divisible by `heads`.

    The segments of one window shape (`_WindowGroup`) are copied once into
    zero frames; a single segment of whole runs, or a stack of equal
    single-run segments, is its own query frame. Every window's keys and
    values are then a strided view of their frame, so each (window, head)
    product is one BLAS call on rows of width d. Keys outside the segment
    are zero rows under a -inf bias, added only to the windows that hold
    one, so each segment sees exactly the layout it has alone. Off a tape,
    QK, softmax and PV run on about `CHUNK` logits at a time and each chunk
    goes straight into its output rows; on a tape the whole logits are kept
    for the vjp. FLOPs are charged on live (query, key) pairs only, as the
    per-run loop of `softmax_attention` would be.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n, d = q.data.shape
    if k.data.shape != (n, d) or v.data.shape != (n, d):
        raise ValueError(f"q/k/v shapes {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if d % heads:
        raise ValueError(f"dim {d} not divisible by {heads} heads")
    hd = d // heads
    segs = (n,) if segments is None else tuple(segments)
    covered, layout, pairs, soft = _window_layout(segs, size)
    if covered != n:
        raise ValueError(f"segments {segs} do not cover {n} rows")
    taped = _taped((q, k, v))

    def frame(a, grp, lead):  # the query frame with `lead` zero rows at each end
        if grp.packed is not None and not lead:
            return a[grp.packed : grp.packed + grp.windows * grp.length]
        framed = np.zeros((grp.windows * grp.length + 2 * lead, d))
        for start, m, o in zip(grp.starts, grp.rows, grp.offsets):
            framed[lead + o : lead + o + m] = a[start : start + m]
        return framed

    def scatter(dst, src, grp, lo=0):  # query-frame rows [lo, lo + len(src)) back to their segments' rows
        for start, m, o in zip(grp.starts, grp.rows, grp.offsets):
            a, b = max(o, lo), min(o + m, lo + len(src))
            if a < b:
                dst[start + a - o : start + b - o] = src[a - lo : b - lo]

    def split_heads(a):  # (windows, rows, d) -> (windows, heads, rows, hd)
        return a.reshape(a.shape[0], a.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge_heads(a):  # inverse of split_heads, flattened to rows
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    def windowed(a, grp, lead):  # (windows, heads, span*L, hd) read-only view of a's key frame
        f = frame(a, grp, lead)
        shape, row = (grp.windows, grp.span * grp.length, d), f.strides[0]
        w = np.ndarray(shape, f.dtype, f, 0, (grp.length * row, row, f.strides[1]))
        w.flags.writeable = False
        return split_heads(w)

    qd, kd, vd = (np.ascontiguousarray(t.data) for t in (q, k, v))
    c = 1.0 / math.sqrt(hd)
    out = np.empty((n, d))
    saved = []
    for grp in layout:
        length, span, windows = grp.length, grp.span, grp.windows
        lead = length * (span // 3)
        qs = split_heads(frame(qd, grp, 0).reshape(windows, length, d))
        ks, vs = windowed(kd, grp, lead), windowed(vd, grp, lead)
        step = windows if taped else max(CHUNK // (heads * span * length * length), 1)
        for w0 in range(0, windows, step):
            w1 = min(w0 + step, windows)
            # the softmax runs in place in the logits' buffer, which the vjp
            # keeps as p; every query slot, empty ones included, keeps at
            # least one live key, so no softmax row is empty
            p = np.matmul(qs[w0:w1], ks[w0:w1].transpose(0, 1, 3, 2))
            p *= c
            if len(grp.dead):
                lo, hi = (0, len(grp.dead)) if step >= windows else np.searchsorted(grp.dead, (w0, w1))
                p[grp.dead[lo:hi] - w0] += grp.bias[lo:hi, None, None, :]
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            scatter(out, merge_heads(np.matmul(p, vs[w0:w1])), grp, w0 * length)
        if taped:
            saved.append((grp, qs, ks, vs, p))
    flops.add_cost(macs=heads * 2 * pairs * hd, scalar_ops=heads * (pairs + soft), comparisons=heads * pairs)
    out = Tensor(out)

    def vjp(g):
        g = np.ascontiguousarray(g)
        dq, dk, dv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        for grp, qs, ks, vs, p in saved:
            length, span, windows = grp.length, grp.span, grp.windows
            lead = length * (span // 3)
            gs = split_heads(frame(g, grp, 0).reshape(windows, length, d))
            dp = np.matmul(gs, vs.transpose(0, 1, 3, 2))
            dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
            scatter(dq, merge_heads(np.matmul(dz, ks)), grp)
            for dst, dw in ((dk, np.matmul(dz.transpose(0, 1, 3, 2), qs)), (dv, np.matmul(p.transpose(0, 1, 3, 2), gs))):
                dw = merge_heads(dw).reshape(windows, span * length, d)
                # one slice add per window offset into the zero key frame,
                # whose zero rows take the dead keys' terms
                df = np.zeros((windows * length + 2 * lead, d))
                for o in range(span):
                    df[o * length : (o + windows) * length].reshape(windows, length, d)[...] += dw[:, o * length : (o + 1) * length]
                scatter(dst, df[lead : lead + windows * length], grp)
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


def softmax_cross_entropy(logits, labels, segments=None) -> Tensor:
    """Mean cross-entropy of row softmax vs integer labels. Fused for
    stability; caller filters rows to the ones that should count. With
    `segments`, one mean per row segment instead of a scalar."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} for logits {logits.data.shape}")
    if n == 0:
        raise ValueError("cross entropy over zero rows")
    bounds = _bounds(segments, n)
    counts = np.diff(bounds)
    if np.any(counts == 0):
        raise ValueError("cross entropy over an empty segment")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(e.sum(axis=1)))
    flops.add_cost(scalar_ops=n * flops.softmax_row_ops(c) + 3 * n, comparisons=n * c)
    means = [nll[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = Tensor(means[0] if segments is None else np.array(means))

    def vjp(g):
        grad = p.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * np.repeat(np.reshape(g, -1) / counts, counts)[:, None],)

    _record(out, (logits,), vjp)
    return out


def mse(pred, target, segments=None) -> Tensor:
    """Mean squared error over all entries (compose with gather_rows to
    restrict to valid rows); with `segments`, one mean per row segment.
    One node; costs what a subtract, a square and a mean cost (3 scalar
    ops per entry)."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse shapes {pred.data.shape} vs {target.data.shape}")
    rows = pred.data.shape[0]
    bounds = _bounds(segments, rows)
    counts = np.diff(bounds)
    if np.any(counts == 0):
        raise ValueError("mse over an empty segment")
    flops.add_cost(scalar_ops=3 * pred.data.size)
    diff = pred.data - target.data
    sq = diff * diff
    means = [sq[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])]
    out = Tensor(means[0] if segments is None else np.array(means))
    per_entry = counts * (pred.data.size // rows)

    def vjp(g):
        # d(mean)/d(sq), times d(sq)/d(diff) = diff + diff, as separate
        # terms: the arithmetic of a subtract, multiply, mean chain
        per_row = np.repeat(np.reshape(g, -1) / per_entry, counts)
        t = per_row.reshape((rows,) + (1,) * (diff.ndim - 1)) * diff
        t = t + t
        return t, -t if target.requires_grad else None

    _record(out, (pred, target), vjp)
    return out
