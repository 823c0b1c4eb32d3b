import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adaptok import config, flops, params, scenes, tensor, train
from adaptok.errors import ContractError
from adaptok.tensor import GradTape, Tensor, backward

from conftest import finite_difference, mul, rel_err, reshape


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

    @pytest.mark.parametrize("size", TestFusedKernels.SIZES)
    def test_gelu_off_tape_matches_on_tape(self, size, rng):
        x = 3.0 * rng.standard_normal((size // 8, 8))
        on_tape, _ = value_and_vjp(tensor.gelu, (x,), np.ones_like(x))
        assert np.array_equal(tensor.gelu(Tensor(x)).data, on_tape)


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
        # a tiny Stage-2 round-1 call: 5,440 rows of width 64, 2 heads, runs of 32
        q, k, v = (Tensor(rng.standard_normal((5440, 64))) for _ in range(3))
        _, peak = traced_peak(lambda: tensor.window_attention(q, k, v, 32, 2))
        assert peak <= 6 * q.data.nbytes

    def test_gelu(self, rng):
        x = Tensor(rng.standard_normal((5440, 256)))
        out, peak = traced_peak(lambda: tensor.gelu(x))
        assert peak <= 1.1 * out.data.nbytes


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
def forward_gemm_shapes():
    """(m, k, n) of every per-segment GEMM in a nano train-step forward
    (batch 8, random_ratio), a nano eval forward (oracle allocation) and
    the `tiny` 256x256 dense forward, each also at m = 1."""
    shapes = set()
    linear = tensor.linear

    def recording(x, w, b, segments=None):
        for m in (x.data.shape[0],) if segments is None else segments:
            if m:
                shapes.add((m,) + w.data.shape)
        return linear(x, w, b, segments)

    tensor.linear = recording
    try:
        corpus = scenes.generate_corpus(7, 8, scenes.SceneSpec())
        nano = config.nano().with_overrides(policy="random_ratio")
        train.forward_batch([sc.image for sc in corpus], [sc.labels for sc in corpus], params.init_params(nano, 0), nano)
        nano = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        train.forward_full(corpus[0].image, params.init_params(nano, 0), nano, corpus[0].labels)
        tiny = config.tiny(256, 256).with_overrides(policy="dense")
        train.forward_full(np.zeros((256, 256, 3)), params.init_params(tiny, 0), tiny)
    finally:
        tensor.linear = linear
    return sorted(shapes | {(1, k, n) for _, k, n in shapes})


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
