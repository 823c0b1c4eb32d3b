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


class GradTape:
    """Creation-ordered record of traced ops; reverse replay yields grads.
    Single-use: `backward` frees what its nodes saved and marks it spent."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.spent = False

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
    """Accumulate d(loss)/d(t) into `t.grad` for every `requires_grad` leaf
    under `tape`; constants keep `grad` None. Each node on the tape drops
    its gradient and its vjp (with the values the vjp saved) once it has
    propagated them, so afterwards the nodes hold only their data and the
    tape is spent: a second `backward` over it raises ContractError.

    `loss` must be a scalar produced under `tape`. When `params` is given
    (iterable of (name, Tensor)), returns their `Gradients`: each
    parameter's gradient lands in its slot of one flat buffer (a copy on
    the first arrival, in-place adds after), and parameters the loss never
    touched get zeros there; their `grad` stays None.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if tape.spent:
        raise ContractError("tape already consumed by backward: its nodes no longer hold gradients or saved values")
    tape.spent = True
    params = None if params is None else list(params)
    for node in tape.nodes:
        node.grad = None
        for p in node._parents:
            p.grad = None
    for _, t in params or ():
        t.grad = None  # an earlier backward's gradient (and its buffer) is not this loss's
    grads = None if params is None else Gradients(params)
    slots = {id(t): grads[name] for name, t in params or ()}
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        # every consumer of `node` came later on the tape, so its gradient
        # is complete here and is spent once propagated
        g_out, vjp = node.grad, node._vjp
        node.grad = node._vjp = None
        if g_out is None:
            continue
        for p, g in zip(node._parents, vjp(g_out)):
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


def _segment_matmul(xd: np.ndarray, wd: np.ndarray, segments, out: np.ndarray | None = None) -> np.ndarray:
    """xd @ wd into `out` (a fresh array when None), one GEMM per row
    segment, so each segment's rows get the result they would get alone
    (BLAS rounds a row differently when the row count changes). When every
    non-empty segment has one length L, they run as one `np.matmul` over a
    (G, L, k) reshape view, which makes the 2-D product's BLAS call once per
    stacked matrix; otherwise each segment is its own 2-D product. A single
    segment skips the grouping: it costs a few microseconds a call, and a
    batch of one makes every call. Returns `out`."""
    bounds = _bounds(segments, xd.shape[0])
    out = np.empty((xd.shape[0], wd.shape[1])) if out is None else out
    if len(bounds) == 2:
        return np.matmul(xd, wd, out=out)
    sizes = {hi - lo for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo}
    if len(sizes) == 1:
        (size,) = sizes
        np.matmul(xd.reshape(-1, size, xd.shape[1]), wd, out=out.reshape(-1, size, out.shape[1]))
        return out
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            np.matmul(xd[lo:hi], wd, out=out[lo:hi])
    return out


def _linear_shapes(shape, w, b):
    """Check a projection of rows of `shape` by weight w and bias b."""
    if len(shape) != 2 or w.data.ndim != 2 or shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shapes {shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} for weight {w.data.shape}")


def _plus_operand(plus, shape):
    """`plus` as a Tensor of the output's shape, or None. It leads its
    node's parents, so its gradient arrives first, as from an add node
    replayed before the projection's."""
    if plus is None:
        return None
    plus = _as_tensor(plus)
    if plus.data.shape != shape:
        raise ValueError(f"plus shape {plus.data.shape} for output {shape}")
    return plus


def linear(x, w, b, segments=None, plus=None) -> Tensor:
    """x @ w + b over row segments (per-sample blocks of a stacked batch),
    each row computed as its sample alone computes it (`_segment_matmul`).
    `plus`, an (m, n) operand such as a residual, is added last, in the
    product's own fresh buffer: the bits and gradients of `add(plus,
    linear(x, w, b))` in one node. Costs what matmul plus a bias add (and
    the plus add) cost."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _linear_shapes(x.data.shape, w, b)
    (m, k), n = x.data.shape, w.data.shape[1]
    plus = _plus_operand(plus, (m, n))
    flops.add_cost(macs=m * k * n, scalar_ops=m * n * (1 if plus is None else 2))
    xd, wd = x.data, w.data
    y = _segment_matmul(xd, wd, segments)
    y += b.data
    if plus is not None:
        y += plus.data
    out = Tensor(y)

    def vjp(g):
        grads = (g @ wd.T if x.requires_grad else None, xd.T @ g if w.requires_grad else None, g.sum(axis=0))
        return grads if plus is None else (g,) + grads

    _record(out, (x, w, b) if plus is None else (plus, x, w, b), vjp)
    return out


MLP_PIECE = 1 << 18  # hidden values per piece of an MLP (2 MiB)


def _mlp_pieces(bounds, hid: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The row pieces (lo, hi, segments) an MLP runs one at a time. A
    segment whose hidden rows exceed MLP_PIECE values splits from its start
    into the fewest near-equal parts that fit, never under 16 rows; every
    other segment is one part. Consecutive parts then pack into a piece
    while its hidden rows fit, each part one of the piece's segments. A
    segment's parts depend on its own length alone, so its rows get the
    same bits solo as in any batch."""
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        size = hi - lo
        count = max(1, min(-(-size * hid // MLP_PIECE), size // 16))
        parts += [size * (j + 1) // count - size * j // count for j in range(count)]
    pieces, lo = [], bounds[0]
    for size in parts:
        if pieces and (lo + size - pieces[-1][0]) * hid <= MLP_PIECE:
            start, _, segments = pieces.pop()
            pieces.append((start, lo + size, segments + (size,)))
        else:
            pieces.append((lo, lo + size, (size,)))
        lo += size
    return pieces


def mlp(x, w1, b1, w2, b2, segments=None, plus=None) -> Tensor:
    """linear -> GELU -> linear over row segments, then `plus` added last:
    the bits, gradients and FLOP charges of `add(plus, linear(gelu(linear(x,
    w1, b1)), w2, b2))` in one node (a segment split into parts gets its
    parts' GEMM bits). On a tape and off it, it runs the pieces of
    `_mlp_pieces` one at a time: off a tape through one piece-sized hidden
    buffer, GELU in place; on a tape into whole pre-activation, tanh and
    activation arrays, for the vjp."""
    x, w1, b1, w2, b2 = (_as_tensor(a) for a in (x, w1, b1, w2, b2))
    _linear_shapes(x.data.shape, w1, b1)
    (m, k), hid, n = x.data.shape, w1.data.shape[1], w2.data.shape[-1]
    _linear_shapes((m, hid), w2, b2)
    plus = _plus_operand(plus, (m, n))
    parents = (x, w1, b1, w2, b2) if plus is None else (plus, x, w1, b1, w2, b2)
    flops.add_cost(
        macs=m * k * hid + m * hid * n,
        scalar_ops=(1 + flops.GELU_OPS_PER_ELEM) * m * hid + m * n * (1 if plus is None else 2),
    )
    xd, w1d, w2d = x.data, w1.data, w2.data
    taped = _taped(parents)
    pieces = _mlp_pieces(_bounds(segments, m), hid)
    y = np.empty((m, n))
    if taped:
        u, t, h = (np.empty((m, hid)) for _ in range(3))
    else:
        u = h = np.empty((max((hi - lo for lo, hi, _ in pieces), default=0), hid))
        t = None
    for lo, hi, rows in pieces:
        at = slice(lo, hi) if taped else slice(hi - lo)
        up = _segment_matmul(xd[lo:hi], w1d, rows, out=u[at])
        up += b1.data
        _segment_matmul(_gelu_into(up, h[at], t[at] if taped else None), w2d, rows, out=y[lo:hi])
    y += b2.data
    if plus is not None:
        y += plus.data
    out = Tensor(y)

    def vjp(g):
        gw2 = h.T @ g if w2.requires_grad else None
        gb2 = g.sum(axis=0)
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gu = _gelu_vjp(g @ w2d.T, u, t)
            gx = gu @ w1d.T if x.requires_grad else None
            gw1 = xd.T @ gu if w1.requires_grad else None
            gb1 = gu.sum(axis=0)
        grads = (gx, gw1, gb1, gw2, gb2)
        return grads if plus is None else (g,) + grads

    _record(out, parents, vjp)
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
    xhat = x.data - np.add.reduce(x.data, -1, keepdims=True) / d
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(y, -1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)
    gd = gamma.data

    def vjp(g):
        dxhat = g * gd
        # classic layer-norm backward in terms of xhat; each row mean is
        # `ndarray.mean`'s own sum-then-divide, without its Python wrapper
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, -1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True) / d)
        )
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    _record(out, (x, gamma, beta), vjp)
    return out


CHUNK = 1 << 15  # elements per pass of a fused elementwise chain, or attention logits per pass off a tape: a few float64 chunks fit in L2
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_into(xd: np.ndarray, y: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """y = GELU(xd), one cache-sized chunk at a time; y may be xd itself,
    for GELU in place. The tanh values land in `t` when given (for a vjp),
    else in one chunk of scratch. Returns y."""
    xf, yf = xd.reshape(-1), y.reshape(-1)
    s = np.empty((2, min(CHUNK, xf.size)))
    # 0.5 x (1 + tanh(c (x + a x^3)))
    for lo in range(0, xf.size, CHUNK):
        hi = min(lo + CHUNK, xf.size)
        xc, yc, sc = xf[lo:hi], yf[lo:hi], s[0, : hi - lo]
        tc = s[1, : hi - lo] if t is None else t.reshape(-1)[lo:hi]
        np.multiply(xc, xc, out=tc)
        np.multiply(tc, xc, out=tc)
        np.multiply(tc, _GELU_A, out=tc)
        np.add(xc, tc, out=tc)
        np.multiply(tc, _GELU_C, out=tc)
        np.tanh(tc, out=tc)
        np.multiply(xc, 0.5, out=yc)  # the last read of xc, so yc may be xc
        np.add(tc, 1.0, out=sc)
        np.multiply(yc, sc, out=yc)
    return y


def _gelu_vjp(g: np.ndarray, xd: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * (xd * xd))
    return g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du)


def gelu(x) -> Tensor:
    """GELU, tanh approximation, one cache-sized chunk at a time. The tanh
    values are kept whole only on a tape, for the vjp; off it they live in
    one chunk of scratch."""
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=flops.GELU_OPS_PER_ELEM * x.data.size)
    xd = x.data
    t = np.empty(xd.shape) if _taped((x,)) else None
    out = Tensor(_gelu_into(xd, np.empty(xd.shape), t))
    _record(out, (x,), lambda g: (_gelu_vjp(g, xd, t),))
    return out


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    flops.add_cost(scalar_ops=flops.SIGMOID_OPS_PER_ELEM * x.data.size)
    # exp overflows to inf for x < -709, where 1 / (1 + inf) is the right 0.0
    with np.errstate(over="ignore"):
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
    """The segments of `runs` runs of length L and `span` runs per window
    (3; 1 for one-run segments), framed together, one block per segment.

    A block's query frame is its segment's rows zero-padded to whole runs;
    run r holds window r's queries. Its key frame adds one zero run at each
    end for span 3, so window r's keys are key-frame rows [r*L, (r+span)*L).
    `dead` (sorted) indexes the runs whose window holds a key outside its
    segment in some block; `bias` (blocks, len(dead), span*L) is their
    additive key bias: 0 on live keys, -inf on dead ones."""

    length: int
    span: int
    runs: int
    starts: tuple
    rows: tuple
    dead: np.ndarray
    bias: np.ndarray


@functools.lru_cache(maxsize=32)
def _window_layout(segments: tuple, size: int):
    """Run layout of `window_attention` over row segments, shared by every
    block of a round: (rows, groups, live pairs, softmax scalar ops), one
    `_WindowGroup` per (run length, span, runs). Its arrays are read-only:
    every caller of one layout shares them."""
    n = sum(segments)
    bounds = _bounds(segments, n)
    # (run length, runs per window, runs) -> starts and lengths of its segments
    layouts: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            length, span = (size, 3) if hi - lo > size else (hi - lo, 1)
            layouts.setdefault((length, span, -(-(hi - lo) // length)), []).append((lo, hi - lo))
    groups = []
    pairs = soft = 0
    for (length, span, runs), members in layouts.items():
        starts, rows = zip(*members)
        m = np.array(rows)[:, None]
        kpos = (np.arange(runs)[:, None] - span // 3) * length + np.arange(span * length)
        klive = (kpos >= 0) & (kpos < m[:, :, None])
        # every live query row of a run sees the run's live keys
        live_q, live_k = np.minimum(m - np.arange(runs) * length, length), klive.sum(axis=-1)
        pairs += int((live_q * live_k).sum())
        soft += int((live_q * np.maximum(4 * live_k - 1, 0)).sum())
        dead = np.flatnonzero((live_k < span * length).any(axis=0))
        bias = np.where(klive[:, dead], 0.0, -np.inf)
        for arr in (dead, bias):
            arr.setflags(write=False)
        groups.append(_WindowGroup(length, span, runs, starts, rows, dead, bias))
    return n, tuple(groups), pairs, soft


def window_attention(q, k, v, size: int, heads: int, segments=None) -> Tensor:
    """Multi-head local attention over runs of `size` consecutive rows.

    Each row segment (one sample of a stacked batch; None is one segment of
    all rows) is chopped into runs of `size`, the last possibly short; each
    run's queries attend to the keys of its own run and of the runs on
    either side within the segment. A segment of at most `size` rows is a
    single run over itself. q, k, v: (n, d) with d divisible by `heads`.

    The windows of one window layout (`_WindowGroup`, one block per
    segment) run in chunks of whole blocks or of runs of one block: about
    `CHUNK` logits a chunk off a tape, the whole layout on it, whose logits
    the vjp keeps. Each chunk copies only the rows it reads into a zero
    frame of its own size, and every window's keys and values are a strided
    view of its block, so each (window, head) product is one BLAS call on
    rows of width d, whatever the chunk. Keys outside the segment are zero rows
    under a -inf bias, added only to the runs that may hold one, so each
    segment sees exactly the layout it has alone. Each chunk's QK, softmax
    and PV go straight into its output rows. FLOPs are charged on live
    (query, key) pairs only, as the per-run loop of `softmax_attention`
    would be.
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

    def frame(a, grp, lead, b0, nb, r0, nr):  # (nb, nr*L + 2*lead, d): runs r0.. of blocks b0.. and `lead` rows either side, zero outside the segment
        lo, rows = r0 * grp.length - lead, nr * grp.length + 2 * lead
        framed = np.zeros((nb, rows, d))
        for block, start, m in zip(framed, grp.starts[b0 : b0 + nb], grp.rows[b0 : b0 + nb]):
            block[max(-lo, 0) : m - lo] = a[start + max(lo, 0) : start + min(lo + rows, m)]
        return framed

    def scatter(dst, src, grp, b0=0, lo=0):  # query-frame rows lo.. of blocks b0.. back to their segments' rows
        for block, start, m in zip(src, grp.starts[b0:], grp.rows[b0:]):
            dst[start + lo : start + min(m, lo + len(block))] = block[: m - lo]

    def split_heads(a):  # (blocks, runs, rows, d) -> (blocks, runs, heads, rows, hd)
        return a.reshape(a.shape[:-1] + (heads, hd)).swapaxes(2, 3)

    def merge_heads(a):  # inverse of split_heads, flattened to rows per block
        return a.swapaxes(2, 3).reshape(len(a), -1, d)

    def windowed(a, grp, b0, nb, r0, nr):  # (nb, nr, heads, span*L, hd) read-only view of a chunk's key frame
        f = frame(a, grp, grp.length * (grp.span // 3), b0, nb, r0, nr)
        shape, (block, row, col) = (nb, nr, grp.span * grp.length, d), f.strides
        w = np.ndarray(shape, f.dtype, f, 0, (block, grp.length * row, row, col))
        w.flags.writeable = False
        return split_heads(w)

    qd, kd, vd = (np.ascontiguousarray(t.data) for t in (q, k, v))
    c = 1.0 / math.sqrt(hd)
    out = np.empty((n, d))
    saved = []
    for grp in layout:
        length, span, runs, blocks = grp.length, grp.span, grp.runs, len(grp.starts)
        # windows per chunk, taken as whole blocks or as runs of one block
        per = blocks * runs if taped else max(CHUNK // (heads * span * length * length), 1)
        bstep, rstep = max(per // runs, 1), min(per, runs)
        for b0, r0 in itertools.product(range(0, blocks, bstep), range(0, runs, rstep)):
            nb, nr = min(bstep, blocks - b0), min(rstep, runs - r0)
            # each chunk frames only the rows it reads: its queries, and its
            # keys and values with one run either side for span 3
            qs = split_heads(frame(qd, grp, 0, b0, nb, r0, nr).reshape(nb, nr, length, d))
            ks, vs = windowed(kd, grp, b0, nb, r0, nr), windowed(vd, grp, b0, nb, r0, nr)
            # the softmax runs in place in the logits' buffer, which the vjp
            # keeps as p; every query slot, empty ones included, keeps at
            # least one live key, so no softmax row is empty
            p = np.matmul(qs, ks.swapaxes(-1, -2))
            p *= c
            lo, hi = (0, len(grp.dead)) if rstep == runs else np.searchsorted(grp.dead, (r0, r0 + rstep))
            if hi > lo:
                p[:, grp.dead[lo:hi] - r0] += grp.bias[b0 : b0 + bstep, lo:hi, None, None, :]
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            scatter(out, merge_heads(np.matmul(p, vs)), grp, b0, r0 * length)
        if taped:
            saved.append((grp, qs, ks, vs, p))
    flops.add_cost(macs=heads * 2 * pairs * hd, scalar_ops=heads * (pairs + soft), comparisons=heads * pairs)
    out = Tensor(out)

    def vjp(g):
        g = np.ascontiguousarray(g)
        dq, dk, dv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        for grp, qs, ks, vs, p in saved:
            length, span, runs, blocks = grp.length, grp.span, grp.runs, len(grp.starts)
            lead = length * (span // 3)
            gs = split_heads(frame(g, grp, 0, 0, blocks, 0, runs).reshape(blocks, runs, length, d))
            dp = np.matmul(gs, vs.swapaxes(-1, -2))
            dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
            scatter(dq, merge_heads(np.matmul(dz, ks)), grp)
            for dst, dw in ((dk, np.matmul(dz.swapaxes(-1, -2), qs)), (dv, np.matmul(p.swapaxes(-1, -2), gs))):
                dw = merge_heads(dw).reshape(blocks, runs, span * length, d)
                # one slice add per window offset into the zero key frame,
                # whose zero rows take the dead keys' terms
                df = np.zeros((blocks, runs * length + 2 * lead, d))
                for o in range(span):
                    df[:, o * length : (o + runs) * length].reshape(blocks, runs, length, d)[...] += dw[:, :, o * length : (o + 1) * length]
                scatter(dst, df[:, lead:], grp)
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
