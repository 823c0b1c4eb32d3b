import contextlib
import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from adaptok import clusterattn, config, flops, params, scenes, stage1, tensor, train
from adaptok.errors import ContractError
from adaptok.tensor import GradTape, Tensor, backward

from conftest import finite_difference, grow_random_set, mul, rel_err, reshape


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 3))
        out = tensor.matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_hand_case(self):
        out = tensor.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        assert np.array_equal(out.data, [[2.0], [4.0]])

    def test_against_triple_loop(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        out = tensor.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tensor.matmul(Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 3))))


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 5), 3.7))
        out = tensor.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), eps=1e-5)
        assert np.max(np.abs(out.data)) < 1e-12

    def test_already_normalized(self):
        x = Tensor([[1.0, -1.0]])
        out = tensor.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-9)

    def test_row_statistics(self, rng):
        # eps correction scales like eps/var, so use rows with variance >> 1
        x = Tensor(10.0 * rng.standard_normal((4, 8)))
        out = tensor.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-5)
        assert np.max(np.abs(out.data.mean(axis=1))) < 1e-10
        assert np.max(np.abs(out.data.var(axis=1) - 1.0)) < 1e-6

    def test_matches_explicit_formula(self, rng):
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)
        eps = 1e-5
        out = tensor.layer_norm(Tensor(x), Tensor(g), Tensor(b), eps=eps)
        expect = (x - x.mean(1, keepdims=True)) / np.sqrt(x.var(1, keepdims=True) + eps) * g + b
        assert np.max(np.abs(out.data - expect)) < 1e-12


def softmax_attention_oracle(q, k, v, mask):
    d = q.shape[1]
    logits = q @ k.T / np.sqrt(d)
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return p @ v, p


class TestSoftmaxAttention:
    def test_single_key_returns_value(self, rng):
        q = rng.standard_normal((1, 4))
        v = rng.standard_normal((1, 4))
        out = tensor.softmax_attention(Tensor(q), Tensor(q), Tensor(v), np.ones((1, 1), bool))
        assert np.max(np.abs(out.data - v)) < 1e-12

    def test_identical_keys_average_values(self, rng):
        k = np.tile(rng.standard_normal((1, 4)), (5, 1))
        q = rng.standard_normal((2, 4))
        v = rng.standard_normal((5, 4))
        out = tensor.softmax_attention(Tensor(q), Tensor(k), Tensor(v), np.ones((2, 5), bool))
        assert np.max(np.abs(out.data - v.mean(axis=0))) < 1e-12

    def test_against_oracle(self, rng):
        q = rng.standard_normal((6, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        mask = rng.random((6, 6)) < 0.7
        mask[:, 0] = True
        out = tensor.softmax_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        expect, _ = softmax_attention_oracle(q, k, v, mask)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_rows_in_convex_hull(self, rng):
        # reconstruct each output row from the oracle weights; residual ~ 0
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((7, 3))
        v = rng.standard_normal((7, 3))
        mask = rng.random((5, 7)) < 0.6
        mask[:, 2] = True
        out = tensor.softmax_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        _, w = softmax_attention_oracle(q, k, v, mask)
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=1) - 1)) < 1e-12
        assert np.max(np.abs(w @ v - out.data)) < 1e-9
        assert np.max(w[~mask]) == 0.0

    def test_fully_masked_row_rejected(self, rng):
        q = rng.standard_normal((2, 3))
        mask = np.ones((2, 2), bool)
        mask[1] = False
        with pytest.raises(ContractError):
            tensor.softmax_attention(Tensor(q), Tensor(q), Tensor(q[:2]), mask)


def window_attention_loop(q, k, v, size, heads):
    """The per-run, per-head `softmax_attention` loop `window_attention`
    replaces."""
    n, d = q.shape
    hd = d // heads
    runs = [np.arange(s, min(s + size, n)) for s in range(0, n, size)]
    out = np.zeros((n, d))
    for c, own in enumerate(runs):
        nb = np.concatenate(runs[max(c - 1, 0) : c + 2])
        mask = np.ones((len(own), len(nb)), bool)
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            qh, kh, vh = Tensor(q[own][:, cols]), Tensor(k[nb][:, cols]), Tensor(v[nb][:, cols])
            out[own, cols] = tensor.softmax_attention(qh, kh, vh, mask).data
    return out


class TestWindowAttention:
    SIZE = 8

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("n", [1, SIZE - 1, SIZE, SIZE + 1, 5 * SIZE + 3])
    def test_matches_per_run_loop(self, n, heads, rng):
        d = 4 * heads
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        with flops.meter() as m_new:
            out = tensor.window_attention(Tensor(q), Tensor(k), Tensor(v), self.SIZE, heads)
        with flops.meter() as m_old:
            expect = window_attention_loop(q, k, v, self.SIZE, heads)
        assert np.max(np.abs(out.data - expect)) <= 1e-12
        if n <= self.SIZE:
            # one run: the same arithmetic in the same order
            assert np.array_equal(out.data, expect)
        assert m_new.total() == m_old.total()

    def test_gradients_finite_with_short_tail(self, rng):
        n, d = 2 * self.SIZE + 3, 4
        q, k, v = (Tensor(rng.standard_normal((n, d)), requires_grad=True) for _ in range(3))
        with GradTape() as tape:
            out = tensor.window_attention(q, k, v, self.SIZE, 2)
            loss = tensor.sum_all(mul(out, out))
        backward(loss, tape)
        for t in (q, k, v):
            assert t.grad.shape == (n, d)
            assert np.all(np.isfinite(t.grad))


    # segment lengths mixing every window layout: multi-run with a short
    # tail, exactly one run, shorter than a run, a single row, and empty
    SEGMENTS = (2 * SIZE + 3, SIZE, 3, 1, 0, SIZE + 1)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_segments_equal_separate_calls(self, heads, rng):
        d = 4 * heads
        n = sum(self.SEGMENTS)
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        with flops.meter() as m_batch:
            out = tensor.window_attention(Tensor(q), Tensor(k), Tensor(v), self.SIZE, heads, self.SEGMENTS)
        bounds = np.cumsum((0,) + self.SEGMENTS)
        with flops.meter() as m_solo:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    solo = tensor.window_attention(Tensor(q[lo:hi]), Tensor(k[lo:hi]), Tensor(v[lo:hi]), self.SIZE, heads)
                    assert np.array_equal(out.data[lo:hi], solo.data)
        assert m_batch.total() == m_solo.total()

    def test_segments_must_cover_the_rows(self, rng):
        q = Tensor(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            tensor.window_attention(q, q, q, self.SIZE, 1, (2, 2))


def gelu_reference(x, g):
    """The unfused GELU expressions the chunked in-place kernel replaces,
    and its vjp applied to `g`."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * (x * x * x)))
    du = c * (1.0 + 3.0 * a * (x * x))
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def layer_norm_reference(x, gamma, beta, g, eps=1e-5):
    """Layer norm through np.mean/np.var and out-of-place arithmetic, and
    its vjp applied to `g`."""
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma + beta, (dx, (g * xhat).sum(axis=0), g.sum(axis=0))


def window_attention_reference(q, k, v, size, heads, g):
    """`window_attention` over one segment of more than `size` rows with
    the softmax written out of place (np.where key mask, then shift, exp
    and normalise into new arrays), and its vjp applied to `g`."""
    n, d = q.shape
    hd, runs = d // heads, -(-n // size)

    def split_heads(a):
        return a.reshape(a.shape[0], a.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge_heads(a):
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    def framed(a):
        return np.concatenate([a, np.zeros((runs * size - n, d))]).reshape(runs, size, d)

    kpos = np.arange(runs)[:, None] * size - size + np.arange(3 * size)
    kidx = np.where((kpos >= 0) & (kpos < n), kpos, n)
    qs = split_heads(framed(q))
    ks, vs = (split_heads(np.concatenate([a, np.zeros((1, d))])[kidx]) for a in (k, v))
    c = 1.0 / math.sqrt(hd)
    z = np.where((kidx < n)[:, None, None, :], np.matmul(qs, ks.transpose(0, 1, 3, 2)) * c, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge_heads(np.matmul(p, vs))[:n]
    gs = split_heads(framed(g))
    dp = np.matmul(gs, vs.transpose(0, 1, 3, 2))
    dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
    dq = merge_heads(np.matmul(dz, ks))[:n]
    dkw = merge_heads(np.matmul(dz.transpose(0, 1, 3, 2), qs)).reshape(-1, 3, size, d)
    dvw = merge_heads(np.matmul(p.transpose(0, 1, 3, 2), gs)).reshape(-1, 3, size, d)
    dk, dv = np.zeros((n + 1, d)), np.zeros((n + 1, d))
    for o in range(3):
        rows = kidx[:, o * size : (o + 1) * size].reshape(-1)
        dk[rows] += dkw[:, o].reshape(-1, d)
        dv[rows] += dvw[:, o].reshape(-1, d)
    return out, (dq, dk[:n], dv[:n])


def value_and_vjp(primitive, arrays, g, **kwargs):
    with GradTape():
        out = primitive(*(Tensor(a, requires_grad=True) for a in arrays), **kwargs)
    return out.data, out._vjp(g)


class TestFusedKernels:
    """The in-place kernels give the bits of the expressions they replace,
    in values and vjps, below, at and above one chunk of elements."""

    SIZES = [1000, tensor.CHUNK, 2 * tensor.CHUNK + 96]

    @pytest.mark.parametrize("size", SIZES)
    def test_gelu(self, size, rng):
        x, g = 3.0 * rng.standard_normal((size // 8, 8)), rng.standard_normal((size // 8, 8))
        value, (dx,) = value_and_vjp(tensor.gelu, (x,), g)
        expect, expect_dx = gelu_reference(x, g)
        assert np.array_equal(value, expect)
        assert np.array_equal(dx, expect_dx)

    @pytest.mark.parametrize("size", SIZES)
    def test_layer_norm(self, size, rng):
        # rows of 96, not a power of two, where dividing by the width and
        # multiplying by its reciprocal round apart
        x = 2.0 + 3.0 * rng.standard_normal((size // 96, 96))
        gamma, beta = rng.standard_normal(96), rng.standard_normal(96)
        g = rng.standard_normal(x.shape)
        value, vjps = value_and_vjp(tensor.layer_norm, (x, gamma, beta), g)
        expect, expect_vjps = layer_norm_reference(x, gamma, beta, g)
        assert np.array_equal(value, expect)
        for got, want in zip(vjps, expect_vjps):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, size, heads", [(9, 8, 1), (43, 8, 2), (200, 16, 4)])
    def test_window_attention_softmax(self, n, size, heads, rng):
        q, k, v, g = (rng.standard_normal((n, 8 * heads)) for _ in range(4))
        value, vjps = value_and_vjp(tensor.window_attention, (q, k, v), g, size=size, heads=heads)
        expect, expect_vjps = window_attention_reference(q, k, v, size, heads, g)
        assert np.array_equal(value, expect)
        for got, want in zip(vjps, expect_vjps):
            assert np.array_equal(got, want)

    def test_window_layout_is_cached_read_only(self, rng):
        q = Tensor(rng.standard_normal((21, 4)))
        segments = (13, 8)
        tensor.window_attention(q, q, q, 4, 2, segments)
        hits = tensor._window_layout.cache_info().hits
        tensor.window_attention(q, q, q, 4, 1, list(segments))
        assert tensor._window_layout.cache_info().hits == hits + 1
        for group in tensor._window_layout(segments, 4)[1]:
            arrays = [a for a in group if isinstance(a, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)


def window_attention_gather(q, k, v, size, heads, segments, g):
    """Window attention as one gather per run window: every run's query
    slots and its 3*size (or one run's) key rows are taken by index, with
    dead keys on an appended zero row under a -inf bias; dK and dV go back
    by index, one window offset at a time. Returns the output, its vjp
    applied to `g`, and the Counts charged on live (query, key) pairs."""
    n, d = q.shape
    hd = d // heads
    c = 1.0 / math.sqrt(hd)
    out, dq, dk, dv = np.zeros((n + 1, d)), np.zeros((n + 1, d)), np.zeros((n + 1, d)), np.zeros((n + 1, d))
    kx, vx = (np.concatenate([a, np.zeros((1, d))]) for a in (k, v))
    qx, gx = (np.concatenate([a, np.zeros((1, d))]) for a in (q, g))
    pairs = soft = 0

    def split_heads(a):
        return a.reshape(a.shape[0], a.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge_heads(a):
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    bounds = np.cumsum((0,) + tuple(segments))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m = hi - lo
        if m == 0:
            continue
        length, span = (size, 3) if m > size else (m, 1)
        lead = length if span == 3 else 0
        kpos = np.arange(-(-m // length))[:, None] * length - lead + np.arange(span * length)
        kidx = np.where((kpos >= 0) & (kpos < m), lo + kpos, n)
        qidx = kidx[:, lead : lead + length].reshape(-1)
        live = (kidx < n)[:, None, None, :]
        per_row = (qidx < n).reshape(-1, length) * live[:, 0, 0].sum(axis=-1, keepdims=True)
        pairs += int(per_row.sum())
        soft += int(np.maximum(4 * per_row - 1, 0).sum())
        qs, gs = (split_heads(a[qidx].reshape(-1, length, d)) for a in (qx, gx))
        ks, vs = split_heads(kx[kidx]), split_heads(vx[kidx])
        z = np.where(live, np.matmul(qs, ks.transpose(0, 1, 3, 2)) * c, -np.inf)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        out[qidx] = merge_heads(np.matmul(p, vs))
        dp = np.matmul(gs, vs.transpose(0, 1, 3, 2))
        dz = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        dq[qidx] = merge_heads(np.matmul(dz, ks))
        dkw = merge_heads(np.matmul(dz.transpose(0, 1, 3, 2), qs)).reshape(-1, span, length, d)
        dvw = merge_heads(np.matmul(p.transpose(0, 1, 3, 2), gs)).reshape(-1, span, length, d)
        for o in range(span):
            rows = kidx[:, o * length : (o + 1) * length].reshape(-1)
            dk[rows] += dkw[:, o].reshape(-1, d)
            dv[rows] += dvw[:, o].reshape(-1, d)
    counts = flops.Counts(macs=heads * 2 * pairs * hd, scalar_ops=heads * (pairs + soft), comparisons=heads * pairs)
    return out[:n], (dq[:n], dk[:n], dv[:n]), counts


class TestFramedWindowAttention:
    """The framed, chunked `window_attention` gives the bits of one gather
    per window, in values, vjps and metered FLOPs, on and off the tape."""

    SIZE = 8
    LAYOUTS = {
        "multi_run_short_tail": (2 * SIZE + 3,),
        "whole_runs": (3 * SIZE,),
        "single_runs_row_and_empty": (5, 1, 0, SIZE, 3),
        "equal_stack": (6, 6, 6, 6),
        "equal_multi_run_stack": (2 * SIZE, 2 * SIZE),
        # three runs each; only the blocks with a short tail hold dead keys
        # in their middle run
        "equal_runs_unequal_tails": (2 * SIZE + 3, 3 * SIZE, 2 * SIZE + 1),
        "mixed": (2 * SIZE + 3, SIZE, 3, 1, 0, SIZE + 1, 4 * SIZE),
        # 2 heads of 8 x 24 logits per window: well over CHUNK logits, so
        # off the tape the chunks cross runs and segments
        "over_one_chunk": (700, 5, 300, SIZE + 2),
    }

    @pytest.mark.parametrize("taped", [False, True], ids=["off_tape", "on_tape"])
    @pytest.mark.parametrize("segments", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_matches_gather_reference(self, segments, taped, rng):
        heads = 2
        n, d = sum(segments), 4 * heads
        q, k, v, g = (rng.standard_normal((n, d)) for _ in range(4))
        if segments == self.LAYOUTS["over_one_chunk"]:
            assert heads * self.SIZE * 3 * self.SIZE * (n // self.SIZE) > tensor.CHUNK
        expect, expect_vjps, expect_counts = window_attention_gather(q, k, v, self.SIZE, heads, segments, g)
        with flops.meter() as m:
            if taped:
                value, vjps = value_and_vjp(tensor.window_attention, (q, k, v), g, size=self.SIZE, heads=heads, segments=segments)
            else:
                value = tensor.window_attention(Tensor(q), Tensor(k), Tensor(v), self.SIZE, heads, segments).data
        assert np.array_equal(value, expect)
        assert m.total() == expect_counts
        if taped:
            for got, want in zip(vjps, expect_vjps):
                assert np.array_equal(got, want)

    # (segments, CHUNK) pairs: with 2 heads a span-3 window of runs of 8
    # holds 384 logits, and a one-run window of m rows 2 m^2
    CHUNKED = {
        # 7 runs, 2 a chunk: chunk boundaries inside the segment, and a last
        # chunk of the short last run alone
        "chunk_boundary_in_segment": ((6 * SIZE + 3,), 2 * 384),
        # 5 runs, 3 a chunk: the last chunk has 2 runs, one of them short
        "partial_last_run": ((4 * SIZE + 5,), 3 * 384),
        # 3 runs a block, 7 windows a chunk: two blocks a chunk, one in the last
        "multi_block_chunks": ((2 * SIZE + 1,) * 7, 7 * 384),
        "multi_block_chunks_packed": ((3 * SIZE,) * 5, 7 * 384),
        # one-run segments of 5 rows, apart in q (framed queries), two a
        # chunk; of 3 rows; and of 8 rows back to back, one a chunk
        "span_one_segments": ((5, 3, 5, 5, 5, SIZE, SIZE, SIZE), 100),
        "library_chunk": ((700, 5, 300, SIZE + 2), tensor.CHUNK),
    }

    @pytest.mark.parametrize("segments, chunk", list(CHUNKED.values()), ids=list(CHUNKED))
    def test_off_tape_chunks_match_on_tape(self, segments, chunk, rng, monkeypatch):
        # off a tape each chunk frames only the rows it reads; on a tape the
        # one chunk is the whole layout. Both give the same bits
        heads = 2
        n, d = sum(segments), 4 * heads
        _, groups, _, _ = tensor._window_layout(segments, self.SIZE)
        assert any(len(g.starts) * g.runs > max(chunk // (heads * g.span * g.length**2), 1) for g in groups)
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        on_tape, _ = value_and_vjp(tensor.window_attention, (q, k, v), np.ones((n, d)), size=self.SIZE, heads=heads, segments=segments)
        monkeypatch.setattr(tensor, "CHUNK", chunk)
        off_tape = tensor.window_attention(Tensor(q), Tensor(k), Tensor(v), self.SIZE, heads, segments).data
        assert np.array_equal(off_tape, on_tape)

    @pytest.mark.parametrize("segments", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_layout_computes_one_window_per_run(self, segments):
        # one block per segment: no window is computed on a zero run between
        # segments, so the windows are exactly the segments' runs
        _, groups, _, _ = tensor._window_layout(segments, self.SIZE)
        runs = sum(-(-m // min(m, self.SIZE)) for m in segments if m)
        assert sum(len(g.starts) * g.runs for g in groups) == runs
        assert sorted(s for g in groups for s in g.starts) == [s for s, m in zip(np.cumsum((0,) + segments), segments) if m]

    @pytest.mark.parametrize("size", TestFusedKernels.SIZES)
    def test_gelu_off_tape_matches_on_tape(self, size, rng):
        x = 3.0 * rng.standard_normal((size // 8, 8))
        on_tape, _ = value_and_vjp(tensor.gelu, (x,), np.ones_like(x))
        assert np.array_equal(tensor.gelu(Tensor(x)).data, on_tape)


def mlp_reference(x, w1, b1, w2, b2, segments=None, plus=None):
    """`tensor.mlp` as the separate nodes it folds."""
    out = tensor.linear(tensor.gelu(tensor.linear(x, w1, b1, segments)), w2, b2, segments)
    return out if plus is None else tensor.add(plus, out)


def linear_plus_reference(x, w, b, segments=None, plus=None):
    return tensor.add(plus, tensor.linear(x, w, b, segments))


class TestFusedNodes:
    """`mlp` and `linear(plus=...)` give the bits of the nodes they fold:
    value on and off a tape, every gradient, and the FLOP charge."""

    # one segment, equal-length segments (one stacked matmul), mixed segments
    SEGMENTS = [None, (4, 4, 4), (5, 0, 3, 4)]

    @staticmethod
    def leaves(seed, mlp=True):
        # p feeds x through a layer norm and is the plus operand, as a
        # block's residual stream is: its gradient arrives from both
        rng = np.random.default_rng(seed)
        hidden = 7 if mlp else 5
        shapes = {"p": (12, 5), "ln.g": (5,), "ln.b": (5,), "w1": (5, hidden), "b1": (hidden,)}
        if mlp:
            shapes.update({"w2": (hidden, 5), "b2": (5,)})
        return {name: Tensor(rng.standard_normal(shape), requires_grad=True) for name, shape in shapes.items()}

    @staticmethod
    def run(op, t, segments, with_plus, taped):
        """op's output, FLOP charge and, on a tape, every leaf's gradient
        (the parameters' through their `Gradients` slots)."""
        weights = [t[name] for name in ("w1", "b1", "w2", "b2") if name in t]
        g = Tensor(np.random.default_rng(1).standard_normal((12, 5)))
        with flops.meter() as m, GradTape() if taped else contextlib.nullcontext() as tape:
            out = op(tensor.layer_norm(t["p"], t["ln.g"], t["ln.b"]), *weights, segments, t["p"] if with_plus else None)
            loss = tensor.sum_all(mul(out, g))
        if not taped:
            return out.data, m.total(), None
        grads = backward(loss, tape, params=[(name, v) for name, v in t.items() if name != "p"])
        return out.data, m.total(), {"p": t["p"].grad, **grads}

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        if want[2] is not None:
            assert got[2].keys() == want[2].keys()
            for name in want[2]:
                assert np.array_equal(got[2][name], want[2][name]), name

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("with_plus", [False, True])
    @pytest.mark.parametrize("segments", SEGMENTS)
    def test_mlp_matches_its_nodes(self, segments, with_plus, taped):
        got = self.run(tensor.mlp, self.leaves(0), segments, with_plus, taped)
        want = self.run(mlp_reference, self.leaves(0), segments, with_plus, taped)
        self.assert_same(got, want)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("segments", SEGMENTS)
    def test_linear_plus_matches_linear_then_add(self, segments, taped):
        got = self.run(tensor.linear, self.leaves(0, mlp=False), segments, True, taped)
        want = self.run(linear_plus_reference, self.leaves(0, mlp=False), segments, True, taped)
        self.assert_same(got, want)

    def test_one_node_each_with_plus_first(self):
        t = self.leaves(0)
        with GradTape() as tape:
            tensor.mlp(t["p"], t["w1"], t["b1"], t["w2"], t["b2"], (2, 10), plus=t["p"])
            tensor.linear(t["p"], Tensor(t["w2"].data[:5]), t["b2"], plus=t["p"])
        assert [n._vjp.__qualname__.split(".")[0] for n in tape.nodes] == ["mlp", "linear"]
        assert all(n._parents[0] is t["p"] for n in tape.nodes)

    def test_plus_shape_checked(self):
        t = self.leaves(0)
        with pytest.raises(ValueError, match="plus shape"):
            tensor.linear(t["p"], t["w1"], t["b1"], plus=t["b1"])
        with pytest.raises(ValueError, match="plus shape"):
            tensor.mlp(t["p"], t["w1"], t["b1"], t["w2"], t["b2"], plus=t["w1"])


def traced_peak(fn):
    """fn()'s result and the most bytes it held at once above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestOffTapeMemory:
    """Off the tape an op holds its output and cache-sized scratch, not
    whole-size temporaries that only a vjp would read."""

    def test_window_attention_on_one_segment(self, rng):
        # a tiny Stage-2 round-1 call: 5,440 rows of width 64, 2 heads, runs of
        # 32. Each chunk frames only the keys and values it reads: about 1.26x
        # q (the output and one chunk), against 3.2x with whole-segment frames
        q, k, v = (Tensor(rng.standard_normal((5440, 64))) for _ in range(3))
        _, peak = traced_peak(lambda: tensor.window_attention(q, k, v, 32, 2))
        assert peak <= 1.5 * q.data.nbytes

    def test_window_attention_on_equal_single_run_segments(self, rng):
        # 64 one-run segments: one block each, so a chunk must span blocks, not
        # runs alone, to hold about CHUNK logits (all 64 blocks' logits are 8x q)
        q, k, v = (Tensor(rng.standard_normal((64 * 32, 16))) for _ in range(3))
        _, peak = traced_peak(lambda: tensor.window_attention(q, k, v, 32, 4, (32,) * 64))
        assert peak <= 6 * q.data.nbytes

    def test_gelu(self, rng):
        x = Tensor(rng.standard_normal((5440, 256)))
        out, peak = traced_peak(lambda: tensor.gelu(x))
        assert peak <= 1.1 * out.data.nbytes

    def test_mlp_keeps_one_hidden_buffer(self, rng):
        # hidden 5,440 x 256 is 4x the input. One segment that long runs in 6
        # pieces through one piece-sized hidden buffer (0.67x), GELU in
        # place, each piece into its output rows: about 1.86x. 170 segments
        # of 32 rows pack 32 to a piece, so they share one buffer of 0.75x:
        # about 1.94x (5.02x while short segments ran whole in one hidden
        # buffer). The residual lands in the output buffer (the separate
        # nodes, with a second hidden buffer and a fresh sum, peak at about
        # 8.2x)
        x, plus = (Tensor(rng.standard_normal((5440, 64))) for _ in range(2))
        w = [Tensor(a) for a in (rng.standard_normal((64, 256)), np.zeros(256), rng.standard_normal((256, 64)), np.zeros(64))]
        _, streamed = traced_peak(lambda: tensor.mlp(x, *w, plus=plus))
        _, packed = traced_peak(lambda: tensor.mlp(x, *w, (32,) * 170, plus=plus))
        assert streamed <= 2.0 * x.data.nbytes
        assert packed <= 2.0 * x.data.nbytes

    @pytest.fixture(scope="class")
    def round_one(self):
        """A tiny Stage-2 round-1 block's inputs: the 5,440 tokens of a dense
        256x256 set, width 64 (hidden 256), and the block's parameters."""
        specs = []
        params._block(specs, 0, "blk", 64, key_scale=True)
        store = params.ParamStore(specs)
        rng = np.random.default_rng(0)
        tokens, _ = grow_random_set(256, 256, 1.0, rng)
        return tokens, store, Tensor(rng.standard_normal((tokens.n_valid, 64)))

    # above the input the caller keeps, the cluster block holds the
    # layer-norm output and q, k, v (the key-scale rows die once k exists),
    # then q, k, v, the attention output and one chunk: about 4.26x (6.03x
    # while q, k and v lived through the output projection and the MLP's
    # hidden buffer was whole). The ViT block's 170 segments of 32 rows pack
    # 32 to an MLP piece: about 4.57x (6.02x while they ran whole in one
    # hidden buffer, 4x, beside the residual stream and the layer-norm
    # output). Before 3.11 CPython keeps a call's arguments alive on the
    # caller's stack, so the bounds there stay 7.5x. A second hidden buffer
    # and a fresh sum per add put it above 10x
    CLUSTER_BOUND = 4.5 if sys.version_info >= (3, 11) else 7.5
    VIT_BOUND = 5.0 if sys.version_info >= (3, 11) else 7.5

    def test_cluster_attention_block(self, round_one):
        tokens, store, x = round_one
        assignment = clusterattn.cluster(tokens, 32)
        _, peak = traced_peak(lambda: clusterattn.cluster_attention_block(x, tokens, assignment, store, "blk", 2))
        assert peak <= self.CLUSTER_BOUND * x.data.nbytes

    def test_vit_block(self, round_one):
        _, store, x = round_one
        _, peak = traced_peak(lambda: clusterattn.vit_block(x, store, "blk", 2, (32,) * 170))
        assert peak <= self.VIT_BOUND * x.data.nbytes

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 CPython keeps a call's arguments on the caller's stack, so the block cannot free its input",
    )
    def test_block_frees_an_input_handed_over(self, round_one, monkeypatch):
        # the input is made inside the traced call, so it counts. Passed as
        # its only reference it is freed once the attention has added it as
        # the residual: as the MLP starts, the block holds the attention
        # output and the layer-norm output, 2.0x the input, where a caller
        # that keeps the input holds 3.0x. Either way the cluster block peaks
        # in its attention, at about 5.26x (x, q, k, v, the attention output
        # and one chunk; 6.03x while the MLP's hidden buffer was whole and
        # q, k, v lived through the output projection); the ViT block peaks
        # at about 5.57x (6.03x while its MLP's hidden buffer was whole). Each
        # wrapper is called directly on the new tensor: a helper taking it as
        # a parameter would keep it alive through the block
        tokens, store, x = round_one
        assignment = clusterattn.cluster(tokens, 32)

        def handed_cluster():
            return clusterattn.cluster_attention_block(Tensor(x.data.copy()), tokens, assignment, store, "blk", 2)

        def handed_vit():
            return clusterattn.vit_block(Tensor(x.data.copy()), store, "blk", 2, (32,) * 170)

        def caller_keeps_it():
            kept = Tensor(x.data.copy())
            return clusterattn.cluster_attention_block(kept, tokens, assignment, store, "blk", 2)

        (_, cluster), (_, vit) = traced_peak(handed_cluster), traced_peak(handed_vit)
        # then the bytes held as each MLP starts (the wrapper keeps the MLP's
        # arguments alive through it, so the peaks above are read without it)
        at_mlp = []
        mlp = tensor.mlp

        def mlp_entry(*args, **kwargs):
            at_mlp.append(tracemalloc.get_traced_memory()[0])
            return mlp(*args, **kwargs)

        monkeypatch.setattr(tensor, "mlp", mlp_entry)
        for fn in (handed_cluster, handed_vit, caller_keeps_it):
            traced_peak(fn)
        handed_cluster, handed_vit, kept = at_mlp
        assert max(handed_cluster, handed_vit) <= 2.25 * x.data.nbytes < kept
        assert cluster <= 5.4 * x.data.nbytes
        assert vit <= 6.1 * x.data.nbytes

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="the bound is measured on CPython 3.11, which hands a call's arguments to the callee; before 3.11 they stay on the caller's stack",
    )
    def test_tiny_dense_forward(self):
        # the whole 256x256 dense forward (5,440 tokens): its live peak was
        # 36.6 MB (34.9 MiB) with the separate nodes, 25.5 MB (24.3 MiB) with
        # whole-segment key/value frames and callers keeping each block's
        # input, and 22.23 MB (21.20 MiB) with whole MLP hidden buffers and
        # Stage 1's features kept through Stage 2; 17.32 MB (16.52 MiB) now,
        # in a Stage-2 round-1 attention
        cfg = config.tiny(256, 256).with_overrides(policy="dense")
        store = params.init_params(cfg, 0)
        image = np.zeros((256, 256, 3))
        _, peak = traced_peak(lambda: train.forward_full(image, store, cfg))
        assert peak <= 17 * 2**20

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="the bound is measured on CPython 3.11, which hands a call's arguments to the callee; before 3.11 they stay on the caller's stack",
    )
    def test_tiny_dense_forward_and_its_result(self):
        # a caller holding the result while it makes a 4.7 MiB array (a
        # benchmark's check of the logits) stays under the forward's bound:
        # 15.74 MiB, against 20.67 MiB while the result kept Stage 1's
        # features and laterals
        cfg = config.tiny(256, 256).with_overrides(policy="dense")
        store = params.init_params(cfg, 0)
        image = np.zeros((256, 256, 3))

        def forward_then_probe():
            fr = train.forward_full(image, store, cfg)
            return fr, np.ones(int(4.7 * 2**20) // 8)

        _, peak = traced_peak(forward_then_probe)
        assert peak <= 17 * 2**20

    def test_forward_result_holds_no_stage1_features(self):
        # Stage 2 consumes Stage 1's features and laterals; neither the batch
        # nor a sample's result keeps them
        cfg = config.nano().with_overrides(policy="random_ratio")
        corpus = scenes.generate_corpus(3, 2, scenes.SceneSpec())
        batch = train.forward_batch([sc.image for sc in corpus], [sc.labels for sc in corpus], params.init_params(cfg, 0), cfg)
        for s1 in (batch.s1, batch[0].s1out, batch[1].s1out):
            assert s1.feats is None and s1.laterals is None
        assert batch.s1.tokens.n_valid == sum(fr.s1out.token_set.n_valid for fr in batch)

    def test_forward_writes_no_input_block_input_or_lateral(self, monkeypatch):
        # GELU in place and residuals added into fresh outputs must only ever
        # write buffers the op made: every array the forward was handed or
        # kept holds its bytes to the end
        cfg = config.nano().with_overrides(policy="random_ratio")
        corpus = scenes.generate_corpus(3, 4, scenes.SceneSpec())
        images = [sc.image for sc in corpus]
        kept = [(image, image.tobytes()) for image in images]
        for name in ("cluster_attention_block", "vit_block"):

            def block(x, *args, _block=getattr(clusterattn, name), **kwargs):
                kept.append((x.data, x.data.tobytes()))
                return _block(x, *args, **kwargs)

            monkeypatch.setattr(clusterattn, name, block)
        snapshot = stage1.Stage1Run.snapshot

        def keep_lateral(run, name):
            snapshot(run, name)
            kept.append((run.laterals[name].feats.data, run.laterals[name].feats.data.tobytes()))

        monkeypatch.setattr(stage1.Stage1Run, "snapshot", keep_lateral)
        train.forward_batch(images, [sc.labels for sc in corpus], params.init_params(cfg, 0), cfg)
        # 4 images, 8 blocks (3 in Stage 1, 5 in Stage 2) and 3 laterals
        assert len(kept) == 15
        assert all(a.tobytes() == b for a, b in kept)

    def test_linear_plus_adds_in_its_own_output(self, rng):
        x, plus = (Tensor(rng.standard_normal((5440, 64))) for _ in range(2))
        w, b = Tensor(rng.standard_normal((64, 64))), Tensor(np.zeros(64))
        out, peak = traced_peak(lambda: tensor.linear(x, w, b, plus=plus))
        assert peak <= 1.05 * out.data.nbytes


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting applies to glibc only")
def test_import_keeps_freed_buffers_in_the_heap():
    # a fresh interpreter, so no earlier test has grown the heap; two 8 MiB
    # arrays live at once, because glibc's default dynamic trim threshold
    # already keeps one (about 20,000 faults per 20 cycles without the setting)
    code = """
import resource
import numpy as np
import adaptok

def cycle():
    arrays = [np.ones(1 << 20) for _ in range(2)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(tensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(run.stdout) < 500


@pytest.fixture(scope="module")
def forward_shapes():
    """(m, k, n) of every per-segment GEMM and (m, k, hidden, n) of every
    per-segment MLP in a nano train-step forward (batch 8, random_ratio), a
    nano eval forward (oracle allocation) and the `tiny` 256x256 dense
    forward. An MLP's GEMMs count at its segments' row counts and at its
    pieces' (it runs a long segment in parts)."""
    gemms, mlps = set(), set()
    segment_matmul, mlp = tensor._segment_matmul, tensor.mlp

    def rows(m, segments):
        return [r for r in ((m,) if segments is None else segments) if r]

    def recording_matmul(xd, wd, segments, out=None):
        gemms.update((m,) + wd.shape for m in rows(xd.shape[0], segments))
        return segment_matmul(xd, wd, segments, out)

    def recording_mlp(x, w1, b1, w2, b2, segments=None, plus=None):
        (k, hid), n = w1.data.shape, w2.data.shape[1]
        for m in rows(x.data.shape[0], segments):
            mlps.add((m, k, hid, n))
            gemms.update({(m, k, hid), (m, hid, n)})
        return mlp(x, w1, b1, w2, b2, segments, plus)

    tensor._segment_matmul, tensor.mlp = recording_matmul, recording_mlp
    try:
        corpus = scenes.generate_corpus(7, 8, scenes.SceneSpec())
        nano = config.nano().with_overrides(policy="random_ratio")
        train.forward_batch([sc.image for sc in corpus], [sc.labels for sc in corpus], params.init_params(nano, 0), nano)
        nano = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        train.forward_full(corpus[0].image, params.init_params(nano, 0), nano, corpus[0].labels)
        tiny = config.tiny(256, 256).with_overrides(policy="dense")
        train.forward_full(np.zeros((256, 256, 3)), params.init_params(tiny, 0), tiny)
    finally:
        tensor._segment_matmul, tensor.mlp = segment_matmul, mlp
    return sorted(gemms), sorted(mlps)


@pytest.fixture(scope="module")
def forward_gemm_shapes(forward_shapes):
    """The forwards' GEMM shapes, each also at m = 1."""
    gemms, _ = forward_shapes
    return sorted(set(gemms) | {(1, k, n) for _, k, n in gemms})


class TestStreamedMlp:
    """`mlp` runs one row-piece plan (`_mlp_pieces`) on a tape and off it:
    packed short segments, and a segment too long for `MLP_PIECE` in
    near-equal parts of at least 16 rows. Each piece's GEMMs are the same
    calls either way, so off-tape output equals taped on every BLAS kernel;
    pinned here for every MLP shape the forwards use."""

    @staticmethod
    def run(x, w, segments, plus, taped):
        """mlp's output and FLOP charge, on or off a tape."""
        with flops.meter() as m, GradTape() if taped else contextlib.nullcontext():
            out = tensor.mlp(Tensor(x, requires_grad=taped), *w, segments, plus=plus)
        return out.data, m.total()

    @staticmethod
    def parts(segments, hid):
        """Each segment's (lo, hi) row ranges as the plan runs them: the
        pieces' segments laid end to end, one for an empty segment."""
        bounds = np.cumsum((0,) + segments).tolist()
        flat = iter([rows for _, _, piece in tensor._mlp_pieces(bounds, hid) for rows in piece])
        own = []
        for lo, size in zip(bounds, segments):
            cuts = [lo, lo + next(flat)]
            while cuts[-1] < lo + size:
                cuts.append(cuts[-1] + next(flat))
            own.append(list(zip(cuts[:-1], cuts[1:])))
        assert next(flat, None) is None
        return own

    # the library piece, and 1 value: every long segment in pieces of 16-31 rows
    @pytest.mark.parametrize("piece", [tensor.MLP_PIECE, 1])
    def test_streamed_equals_taped(self, forward_shapes, piece, monkeypatch, rng):
        monkeypatch.setattr(tensor, "MLP_PIECE", piece)
        _, shapes = forward_shapes
        streamed = 0
        for m, k, hid, n in shapes:
            w = [Tensor(rng.standard_normal(shape)) for shape in ((k, hid), (hid,), (hid, n), (n,))]
            # one segment; and a mixed batch: the long segment in pieces, then
            # segments that stay whole, one of them under 16 rows
            for segments in ((m,), (m, 40, 7)):
                x = rng.standard_normal((sum(segments), k))
                plus = Tensor(rng.standard_normal((sum(segments), n)))
                got, want = (self.run(x, w, segments, plus, taped) for taped in (False, True))
                assert np.array_equal(got[0], want[0]), (m, k, hid, n, segments)
                assert got[1] == want[1]
                streamed += len(tensor._mlp_pieces(np.cumsum((0,) + segments).tolist(), hid)) > 1
        # the tiny forward's Stage-2 block MLPs are here (the first three run
        # in several pieces at the library piece), beside the scorer and child MLPs
        assert {(5440, 64, 256, 64), (1344, 128, 512, 128), (320, 256, 1024, 256), (64, 512, 2048, 512)} <= set(shapes)
        assert any(n == 1 for *_, n in shapes)
        assert streamed >= (3 if piece == tensor.MLP_PIECE else len(shapes))

    def test_lone_segment_split(self):
        # a batch of one: the tiny Stage-2 block MLPs run in 6, 3, 2 and 1 pieces
        for m, hid, count in ((5440, 256, 6), (1344, 512, 3), (320, 1024, 2), (64, 2048, 1)):
            pieces = tensor._mlp_pieces([0, m], hid)
            sizes = [hi - lo for lo, hi, _ in pieces]
            assert len(pieces) == count and max(sizes) - min(sizes) <= 1
            assert all(rows == (hi - lo,) and (hi - lo) * hid <= tensor.MLP_PIECE for lo, hi, rows in pieces)
        assert tensor._mlp_pieces([0, 1025], 256) == [(0, 512, (512,)), (512, 1025, (513,))]

    def test_short_segments_pack(self):
        # consecutive segments share a piece while their hidden rows fit
        assert tensor._mlp_pieces([0, 512, 1024], 256) == [(0, 1024, (512, 512))]
        assert tensor._mlp_pieces([0, 1024, 2048], 256) == [(0, 1024, (1024,)), (1024, 2048, (1024,))]
        # the ViT block's 170 segments of 32 rows: 32 to a piece
        pieces = tensor._mlp_pieces(list(range(0, 5441, 32)), 256)
        assert [rows for _, _, rows in pieces] == [(32,) * 32] * 5 + [(32,) * 10]
        # a long segment's parts are pieces of their own; the short ones
        # after it pack with its last part while they fit
        assert tensor._mlp_pieces([0, 1025, 1030, 2048], 256) == [
            (0, 512, (512,)),
            (512, 1030, (513, 5)),
            (1030, 2048, (1018,)),
        ]

    @pytest.mark.parametrize("piece", [256 * 100, 1])
    @pytest.mark.parametrize("segments", [(530, 40, 40), (5440,), (1344, 0, 15, 1344), (0, 7, 0, 0, 33, 0), (0,), ()])
    def test_plan_covers_each_segment(self, segments, piece, monkeypatch):
        monkeypatch.setattr(tensor, "MLP_PIECE", piece)
        bounds = np.cumsum((0,) + segments).tolist()
        pieces = tensor._mlp_pieces(bounds, 256)
        # the rows in order, each piece's segments filling it, and a piece of
        # several parts within MLP_PIECE
        cuts = [0] + [hi for _, hi, _ in pieces]
        assert [lo for lo, _, _ in pieces] == cuts[:-1] and cuts[-1] == sum(segments)
        for lo, hi, rows in pieces:
            assert sum(rows) == hi - lo
            assert len(rows) == 1 or (hi - lo) * 256 <= piece
        for (lo, hi), own in zip(zip(bounds[:-1], bounds[1:]), self.parts(segments, 256)):
            # a segment whole when it fits or is under 32 rows, else in the
            # fewest near-equal parts that fit, never under 16 rows
            assert own[0][0] == lo and own[-1][1] == hi
            sizes = [b - a for a, b in own]
            assert max(sizes) - min(sizes) <= 1
            if len(own) > 1:
                assert min(sizes) >= 16 and (max(sizes) * 256 <= piece or max(sizes) < 32)
                assert -(-(hi - lo) // (len(own) - 1)) * 256 > piece
            else:
                assert (hi - lo) * 256 <= piece or hi - lo < 32

    @pytest.mark.parametrize("piece", [tensor.MLP_PIECE, 256 * 100, 1])
    def test_parts_independent_of_neighbours(self, piece, monkeypatch):
        # a segment runs in the same parts alone as beside any others: the
        # solo-vs-batched bits rest on it
        monkeypatch.setattr(tensor, "MLP_PIECE", piece)
        batch = (1344, 0, 15, 1344, 40, 7, 5440, 100, 100)
        offsets = np.cumsum((0,) + batch)
        for size, lo, own in zip(batch, offsets, self.parts(batch, 256)):
            (alone,) = self.parts((size,), 256)
            assert own == [(a + lo, b + lo) for a, b in alone]

    def test_pieced_gradients_match_finite_differences(self, monkeypatch, rng):
        # a taped MLP in five pieces: a long segment in two parts, two short
        # segments packed, another long one in two; the plus operand and
        # every weight get their gradient through the pieces
        monkeypatch.setattr(tensor, "MLP_PIECE", 7 * 20)
        segments = (40, 3, 5, 33)
        assert [rows for _, _, rows in tensor._mlp_pieces(np.cumsum((0,) + segments).tolist(), 7)] == [
            (20,), (20,), (3, 5), (16,), (17,)
        ]
        m = sum(segments)
        shapes = ((m, 5), (5, 7), (7,), (7, 4), (4,), (m, 4))
        x, w1, b1, w2, b2, plus = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes)
        coef = Tensor(rng.standard_normal((m, 4)))

        def forward():
            return tensor.sum_all(mul(tensor.mlp(x, w1, b1, w2, b2, segments, plus=plus), coef))

        with GradTape() as tape:
            loss = forward()
        backward(loss, tape)
        for t in (x, w1, b1, w2, b2, plus):
            for _ in range(6):
                idx = np.unravel_index(rng.integers(t.data.size), t.data.shape)
                fd = finite_difference(lambda: float(forward().data), t, idx)
                assert rel_err(t.grad[idx], fd) < 1e-4, idx


class TestLinear:
    def test_segments_equal_separate_calls(self, rng):
        # k = 3072 is the patch embedding's width, where BLAS rounds a row
        # differently when the row count changes
        segments = (1, 4, 0, 7, 2)
        x = rng.standard_normal((sum(segments), 3072))
        w, b = rng.standard_normal((3072, 16)), rng.standard_normal(16)
        with flops.meter() as m:
            out = tensor.linear(Tensor(x), Tensor(w), Tensor(b), segments)
        assert m.total().macs == x.shape[0] * 3072 * 16 and m.total().scalar_ops == x.shape[0] * 16
        bounds = np.cumsum((0,) + segments)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            expect = tensor.add(tensor.matmul(Tensor(x[lo:hi]), Tensor(w)), Tensor(b))
            assert np.array_equal(out.data[lo:hi], expect.data)

    @pytest.mark.parametrize("stack", [1, 2, 8])
    def test_stacked_gemm_equals_each_matrix_alone(self, forward_gemm_shapes, stack, rng):
        # `linear` runs equal-length segments as one np.matmul over a
        # (stack, m, k) view; numpy makes the 2-D product's BLAS call once
        # per stacked matrix, so each block must equal its product alone.
        # This is a property of the numpy/BLAS build, pinned here for every
        # GEMM shape the forwards use (one GEMM over all rows is not equal)
        for m, k, n in forward_gemm_shapes:
            x, w = rng.standard_normal((stack * m, k)), rng.standard_normal((k, n))
            b = np.zeros(n)
            out = tensor.linear(Tensor(x), Tensor(w), Tensor(b), (m,) * stack).data
            for i in range(stack):
                assert np.array_equal(out[i * m : (i + 1) * m], x[i * m : (i + 1) * m] @ w), (m, k, n, stack)

    def test_shapes_checked(self, rng):
        x, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tensor.linear(x, w, Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            tensor.linear(x, w, Tensor(np.zeros(2)), (1, 1))


class TestBackward:
    def test_sum_of_squares(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with GradTape() as tape:
            loss = tensor.sum_all(mul(w, w))
        backward(loss, tape)
        assert np.allclose(w.grad, [2.0, 4.0, 6.0])

    def test_disconnected_parameter_gets_zero(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        with GradTape() as tape:
            loss = tensor.sum_all(mul(w, w))
        grads = backward(loss, tape, params=[("w", w), ("p", p)])
        assert np.array_equal(grads["p"], np.zeros(3))
        assert np.allclose(grads["w"], 2 * w.data)

    def test_gradients_are_views_of_one_flat_buffer(self, rng):
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        p = Tensor(rng.standard_normal(4), requires_grad=True)
        with GradTape() as tape:
            loss = tensor.sum_all(tensor.add(mul(w, w), w))
        grads = backward(loss, tape, params=[("w", w), ("p", p)])
        assert grads.flat.shape == (10,)
        assert np.shares_memory(grads["w"], grads.flat) and np.shares_memory(grads["p"], grads.flat)
        assert np.array_equal(grads.flat, np.concatenate([(2 * w.data + 1).ravel(), np.zeros(4)]))

    def test_parameter_off_a_later_tape_gets_zero_not_its_old_gradient(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        p = Tensor(rng.standard_normal(3), requires_grad=True)
        with GradTape() as tape:
            loss = tensor.sum_all(mul(p, w))
        backward(loss, tape, params=[("w", w), ("p", p)])
        with GradTape() as tape:
            loss = tensor.sum_all(mul(w, w))
        grads = backward(loss, tape, params=[("w", w), ("p", p)])
        assert np.array_equal(grads["p"], np.zeros(3)) and p.grad is None
        assert np.array_equal(grads["w"], 2 * w.data)

    def test_interior_nodes_keep_no_gradient_or_saved_values(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        with GradTape() as tape:
            y = tensor.layer_norm(tensor.gelu(x), gamma, beta)
            loss = tensor.sum_all(mul(y, y))
        nodes = list(tape.nodes)
        backward(loss, tape)
        assert tape.nodes == nodes and len(nodes) == 4
        assert all(node.grad is None and node._vjp is None for node in nodes)
        assert all(t.grad is not None for t in (x, gamma, beta))

    def test_spent_tape_rejected_before_any_gradient_changes(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        with GradTape() as tape:
            loss = tensor.sum_all(mul(w, w))
        grads = backward(loss, tape, params=[("w", w)])
        first, flat = w.grad, grads.flat.copy()
        with pytest.raises(ContractError, match="already consumed by backward"):
            backward(loss, tape, params=[("w", w)])
        assert w.grad is first and np.array_equal(grads.flat, flat)

    def test_non_scalar_loss_rejected(self, rng):
        w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with GradTape() as tape:
            y = mul(w, w)
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_aliased_consumers_match_finite_differences(self, rng):
        # add(a, a) hands one gradient array to a twice, and add(a, b), the
        # last consumer of both, hands one array to a and b, which earlier
        # consumers then reach again: an adopted gradient must never be
        # added into in place
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        coef = Tensor(rng.standard_normal((3, 4)))

        def forward():
            early_a = mul(a, coef)
            early_b = mul(reshape(b, (4, 3)), reshape(b, (4, 3)))
            doubled = tensor.add(a, a)
            s = tensor.add(a, b)
            parts = [early_a, early_b, mul(s, s), mul(doubled, coef)]
            return tensor.sum_all(tensor.concat([reshape(p, (12,)) for p in parts]))

        with GradTape() as tape:
            loss = forward()
        backward(loss, tape)
        for t in (a, b):
            for idx in np.ndindex(t.data.shape):
                fd = finite_difference(lambda: float(forward().data), t, idx)
                assert rel_err(t.grad[idx], fd) < 1e-6

    def test_scorer_mlp_mse_finite_differences(self, rng):
        # 2-layer sigmoid MLP regression: the allocator's exact shape
        x = rng.standard_normal((6, 8))
        target = rng.random((6, 1))
        w1 = Tensor(rng.standard_normal((8, 4)) / np.sqrt(8), requires_grad=True)
        b1 = Tensor(np.zeros(4), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 1)) / 2, requires_grad=True)
        b2 = Tensor(np.zeros(1), requires_grad=True)

        def forward():
            h = tensor.gelu(tensor.add(tensor.matmul(Tensor(x), w1), b1))
            pred = tensor.sigmoid(tensor.add(tensor.matmul(h, w2), b2))
            return tensor.mse(pred, Tensor(target))

        with GradTape() as tape:
            loss = forward()
        backward(loss, tape)
        for t in (w1, b1, w2, b2):
            flat = t.data.reshape(-1)
            for _ in range(5):
                idx = np.unravel_index(rng.integers(flat.size), t.data.shape)
                fd = finite_difference(lambda: float(forward().data), t, idx)
                assert rel_err(t.grad[idx], fd) < 1e-4


def mse_chain(pred, target, segments, g):
    """Value and (pred, target) gradients of mse as the subtract, multiply
    and mean tape chain computed them, for upstream gradient g."""
    diff = pred - target
    sq = diff * diff
    if segments is None:
        value = sq.mean()
        grad_sq = np.broadcast_to(g / sq.size, sq.shape).copy()
    else:
        counts = np.array(segments)
        bounds = np.cumsum((0,) + segments)
        value = np.array([sq[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])])
        width = sq.size // sq.shape[0]
        per_row = np.repeat(g / (counts * width), counts).reshape(-1, 1)
        grad_sq = np.broadcast_to(per_row, sq.shape).copy()
    # the multiply hands grad_sq * diff to both of its operands (one array,
    # diff), which backward sums; the subtract passes that on and negates it
    t = grad_sq * diff
    grad_diff = t + t
    return value, grad_diff, -grad_diff


class TestMse:
    @pytest.mark.parametrize("segments", [None, (3, 1, 4)])
    def test_bit_identical_to_the_three_node_chain(self, segments, rng):
        # 24 entries and segments of 9, 3 and 12: no mean divides by a
        # power of two, where any order of the arithmetic rounds alike
        pred = Tensor(rng.random((8, 3)), requires_grad=True)
        target = Tensor(rng.random((8, 3)), requires_grad=True)
        g = rng.standard_normal(() if segments is None else len(segments))
        with GradTape() as tape:
            out = tensor.mse(pred, target, segments)
            loss = tensor.sum_all(mul(out, Tensor(g)))
        backward(loss, tape)
        value, grad_pred, grad_target = mse_chain(pred.data, target.data, segments, g)
        assert np.array_equal(out.data, value)
        assert np.array_equal(pred.grad, grad_pred)
        assert np.array_equal(target.grad, grad_target)

    def test_one_node_three_scalar_ops_per_entry(self, rng):
        pred = Tensor(rng.random((7, 3)), requires_grad=True)
        with flops.meter() as m, GradTape() as tape:
            tensor.mse(pred, Tensor(rng.random((7, 3))), (2, 5))
        assert m.total() == flops.Counts(scalar_ops=3 * 21)
        assert len(tape.nodes) == 1

    def test_empty_segment_rejected(self, rng):
        x = Tensor(rng.random((3, 1)))
        with pytest.raises(ValueError):
            tensor.mse(x, x, (3, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: ("layer_norm", (rng.standard_normal((3, 5)), rng.standard_normal(5), rng.standard_normal(5))),
        lambda rng: ("gelu", (rng.standard_normal((4, 3)),)),
        lambda rng: ("sigmoid", (rng.standard_normal((4, 3)),)),
        lambda rng: ("matmul", (rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))),
        lambda rng: ("mul", (rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))),
        lambda rng: ("add", (rng.standard_normal((3, 4)), rng.standard_normal(4))),
        # three runs of 3 over 8 rows (short tail)
        lambda rng: (
            "window_attention",
            tuple(rng.standard_normal((8, 4)) for _ in range(3)),
            {"size": 3, "heads": 2},
        ),
        lambda rng: (
            "window_attention",
            tuple(rng.standard_normal((5, 4)) for _ in range(3)),
            {"size": 5, "heads": 1},
        ),
        lambda rng: ("linear", (rng.standard_normal((5, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2))),
        lambda rng: (
            "linear",
            (rng.standard_normal((5, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)),
            {"segments": (2, 0, 3)},
        ),
        # a multi-run segment, a single run shorter than size, a single row
        lambda rng: (
            "window_attention",
            tuple(rng.standard_normal((12, 4)) for _ in range(3)),
            {"size": 3, "heads": 2, "segments": (8, 3, 1)},
        ),
        lambda rng: ("mse", (rng.standard_normal((8, 2)), rng.standard_normal((8, 2))), {"segments": (3, 1, 4)}),
    ],
)
def test_primitive_gradients_match_finite_differences(build, rng):
    name, arrays, *kwargs = build(rng)
    primitive = {"mul": mul}.get(name) or getattr(tensor, name)
    op = functools.partial(primitive, **(kwargs[0] if kwargs else {}))
    tensors = [Tensor(a, requires_grad=True) for a in arrays]

    def forward():
        return tensor.sum_all(mul(op(*tensors), op(*tensors)))

    with GradTape() as tape:
        loss = forward()
    backward(loss, tape)
    for t in tensors:
        flat = t.data.reshape(-1)
        for _ in range(4):
            idx = np.unravel_index(rng.integers(flat.size), t.data.shape)
            fd = finite_difference(lambda: float(forward().data), t, idx)
            assert rel_err(t.grad[idx], fd) < 1e-4, f"{name} grad mismatch at {idx}"


def test_masked_softmax_gradient(rng):
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    mask = rng.random((4, 6)) < 0.6
    mask[:, 3] = True
    coef = rng.standard_normal((4, 6))

    def forward():
        return tensor.sum_all(mul(tensor.masked_softmax(x, mask), Tensor(coef)))

    with GradTape() as tape:
        loss = forward()
    backward(loss, tape)
    for _ in range(8):
        idx = (int(rng.integers(4)), int(rng.integers(6)))
        fd = finite_difference(lambda: float(forward().data), x, idx)
        assert rel_err(x.grad[idx], fd) < 1e-4


def test_cross_entropy_gradient(rng):
    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels = rng.integers(0, 3, size=5)

    def forward():
        return tensor.softmax_cross_entropy(logits, labels)

    with GradTape() as tape:
        loss = forward()
    backward(loss, tape)
    for _ in range(8):
        idx = (int(rng.integers(5)), int(rng.integers(3)))
        fd = finite_difference(lambda: float(forward().data), logits, idx)
        assert rel_err(logits.grad[idx], fd) < 1e-4


def test_gather_concat_gradients(rng):
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 4])
    coef = rng.standard_normal((8, 8))

    def forward():
        g = tensor.gather_rows(x, idx)
        wide = tensor.concat([g, g], axis=1)
        cat = tensor.concat([wide, wide], axis=0)
        return tensor.sum_all(mul(cat, Tensor(coef)))

    with GradTape() as tape:
        loss = forward()
    backward(loss, tape)
    for _ in range(8):
        pos = (int(rng.integers(5)), int(rng.integers(4)))
        fd = finite_difference(lambda: float(forward().data), x, pos)
        assert rel_err(x.grad[pos], fd) < 1e-4
    # the scatter assigns for unique indices (a permutation, a subset) and
    # accumulates duplicates: both bit-identical to np.add.at
    for idx in (rng.permutation(5), np.array([4, 0, 3]), np.array([1, 3, 1, 1, 0])):
        g = rng.standard_normal((idx.size, 4))
        with GradTape():
            out = tensor.gather_rows(x, idx)
        (got,) = out._vjp(g)
        expect = np.zeros((5, 4))
        np.add.at(expect, idx, g)
        assert np.array_equal(got, expect)
    assert np.array_equal(got[1], g[0] + g[2] + g[3])


@pytest.mark.parametrize("shape", [(9,), (9, 5), (9, 3, 2)])
def test_gather_rows_vjp_equals_add_at_on_repeated_indices(shape, rng):
    idx = rng.integers(0, shape[0] - 1, size=60)  # many repeats; the last row never gathered
    g = rng.standard_normal((idx.size,) + shape[1:])
    with GradTape():
        out = tensor.gather_rows(Tensor(rng.standard_normal(shape), requires_grad=True), idx)
    (got,) = out._vjp(g)
    expect = np.zeros(shape)
    np.add.at(expect, idx, g)
    assert np.array_equal(got, expect)


def test_sigmoid_saturates_without_overflow_warnings():
    # exp(1000) overflows to inf, and 1 / (1 + inf) is the right 0.0
    x = Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with GradTape() as tape:
            out = tensor.sigmoid(x)
            loss = tensor.sum_all(out)
        backward(loss, tape)
    assert out.data.tolist() == [0.0, 1.0]
    assert x.grad.tolist() == [0.0, 0.0]


def test_forward_determinism(rng):
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 4))
    mask = np.ones((6, 6), bool)
    a = tensor.softmax_attention(Tensor(q), Tensor(k), Tensor(v), mask)
    b = tensor.softmax_attention(Tensor(q), Tensor(k), Tensor(v), mask)
    assert np.array_equal(a.data, b.data)


def test_forward_outputs_finite(rng):
    x = rng.standard_normal((8, 8)) * 50
    outs = [
        tensor.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))),
        tensor.gelu(Tensor(x)),
        tensor.sigmoid(Tensor(x)),
        tensor.masked_softmax(Tensor(x), np.ones((8, 8), bool)),
    ]
    for out in outs:
        assert np.all(np.isfinite(out.data))
