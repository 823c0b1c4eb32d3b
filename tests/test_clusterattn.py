from dataclasses import replace

import numpy as np
import pytest

from adaptok import clusterattn, geometry, params, tensor
from adaptok.clusterattn import cluster, cluster_attention_block, vit_block
from adaptok.errors import ContractError
from adaptok.geometry import coarse_grid
from adaptok.tensor import GradTape, Tensor, backward

from conftest import grow_random_set, mul, parent_of, split, with_children


def make_block_store(d, seed=0, key_scale=True):
    specs = []
    params._block(specs, seed, "blk", d, key_scale=key_scale)
    return params.ParamStore(specs)


class TestClusterAssignment:
    def test_single_cluster_when_small(self):
        s = coarse_grid(64, 64)  # 4 tokens
        a = cluster(s, cluster_size=8)
        assert a.n_clusters == 1
        assert np.array_equal(a.neighborhood(0), np.arange(4))

    def test_short_tail(self, rng):
        s, _ = grow_random_set(64, 64, 0.9, rng)
        n = s.n_valid
        a = cluster(s, cluster_size=4)
        sizes = np.bincount([a.cluster_of(r) for r in range(n)]).tolist()
        assert len(sizes) == a.n_clusters
        assert sizes[:-1] == [4] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= 4
        assert sum(sizes) == n

    def test_ten_over_four(self):
        a = clusterattn.ClusterAssignment(10, 4)
        assert a.n_clusters == 3
        assert [a.cluster_of(r) for r in range(10)] == [0] * 4 + [1] * 4 + [2] * 2
        assert np.array_equal(a.neighborhood(0), np.arange(0, 8))
        assert np.array_equal(a.neighborhood(1), np.arange(0, 10))
        assert np.array_equal(a.neighborhood(2), np.arange(4, 10))

    def test_every_token_in_exactly_one_cluster(self, rng):
        s, _ = grow_random_set(64, 64, 0.5, rng)
        a = cluster(s, cluster_size=8)
        owners = [a.cluster_of(r) for r in range(s.n_valid)]
        assert owners == sorted(owners) and set(owners) == set(range(a.n_clusters))
        for r, c in enumerate(owners):
            assert r in a.neighborhood(c)

    def test_pure_function_of_order_and_size(self, rng):
        s, _ = grow_random_set(64, 64, 0.5, rng)
        a1 = cluster(s, 8)
        a2 = cluster(s, 8)
        assert a1 == a2
        assert [a1.neighborhood(c).tolist() for c in range(a1.n_clusters)] == [
            a2.neighborhood(c).tolist() for c in range(a2.n_clusters)
        ]

    def test_leaf_sibling_quartets_share_a_neighborhood(self, rng):
        # exact property: a quartet with no allocated descendants spans at
        # most 5 canonical positions (only ancestors can interleave), so its
        # members always land in the same or adjacent clusters
        checked = 0
        for _ in range(60):
            s, _ = grow_random_set(64, 64, float(rng.uniform(0.2, 1.0)), rng)
            keyset = set(s.keys)
            pos = {k: i for i, k in enumerate(s.keys)}
            parents = {parent_of(k) for k in s.keys if k.level > 0}
            for p in parents:
                sibs = split(p)
                if any(
                    sb.level < geometry.MAX_LEVEL and split(sb)[0] in keyset
                    for sb in sibs
                ):
                    continue
                positions = [pos[sb] for sb in sibs]
                assert max(positions) - min(positions) <= 4
                cids = [q // 8 for q in positions]
                assert max(cids) - min(cids) <= 1
                checked += 1
        assert checked > 200


class TestClusterAttentionBlock:
    def test_one_cluster_equals_global_vit_with_zero_key_scale(self, rng):
        s, _ = grow_random_set(64, 64, 0.3, rng)
        d = 16
        store = make_block_store(d)
        store["blk.key_scale"].data[:] = 0.0
        x = Tensor(rng.standard_normal((s.n_valid, d)))
        a = cluster(s, cluster_size=s.n_valid + 5)
        out_cluster = cluster_attention_block(x, s, a, store, "blk", heads=2)
        out_vit = vit_block(x, store, "blk", heads=2)
        assert np.max(np.abs(out_cluster.data - out_vit.data)) < 1e-12

    def test_zero_weights_is_identity(self, rng):
        s, _ = grow_random_set(64, 64, 0.4, rng)
        d = 8
        store = make_block_store(d)
        for name, t in store.items():
            if name.endswith(".w") or name.endswith(".b") or "key_scale" in name:
                t.data[:] = 0.0
        store["blk.ln1.g"].data[:] = 1.0
        store["blk.ln2.g"].data[:] = 1.0
        x = Tensor(rng.standard_normal((s.n_valid, d)))
        out = cluster_attention_block(x, s, cluster(s, 8), store, "blk", heads=1)
        assert np.max(np.abs(out.data - x.data)) < 1e-12

    def test_locality_bitwise(self, rng):
        for _ in range(20):
            s, _ = grow_random_set(64, 64, float(rng.uniform(0.3, 1.0)), rng)
            d = 8
            store = make_block_store(d, seed=int(rng.integers(1000)))
            a = cluster(s, 8)
            if a.n_clusters < 3:
                continue
            x = rng.standard_normal((s.n_valid, d))
            out = cluster_attention_block(Tensor(x), s, a, store, "blk", heads=1)
            # perturb a token two clusters away from cluster 0
            target_row = 0
            nb = set(a.neighborhood(a.cluster_of(target_row)).tolist())
            outside = [i for i in range(s.n_valid) if i not in nb]
            x2 = x.copy()
            x2[outside[-1]] += 7.5
            out2 = cluster_attention_block(Tensor(x2), s, a, store, "blk", heads=1)
            assert np.array_equal(out.data[target_row], out2.data[target_row])

    def test_order_invariance_through_canonical_sort(self, rng):
        s, _ = grow_random_set(64, 64, 0.5, rng)
        d = 8
        store = make_block_store(d)
        feats_by_key = {k: rng.standard_normal(d) for k in s.keys}
        x = Tensor(np.stack([feats_by_key[k] for k in s.keys]))
        out1 = cluster_attention_block(x, s, cluster(s, 8), store, "blk", heads=1)
        # feed the same token set built from a permuted key list
        perm = rng.permutation(s.n_valid)
        reordered = [s.keys[i] for i in perm]
        keys2 = geometry.canonical_order(reordered)
        assert tuple(keys2) == s.keys
        x2 = Tensor(np.stack([feats_by_key[k] for k in keys2]))
        out2 = cluster_attention_block(x2, s, cluster(s, 8), store, "blk", heads=1)
        assert np.array_equal(out1.data, out2.data)

    def test_padded_rows_rejected(self, rng):
        # every row is a real token: padding rows and a stale assignment
        # both fail the contract
        s, _ = grow_random_set(64, 64, 0.4, rng)
        d = 8
        store = make_block_store(d)
        x_pad = Tensor(rng.standard_normal((s.n_valid + 3, d)))
        with pytest.raises(ContractError):
            cluster_attention_block(x_pad, replace(s, pad_levels=(1, 2, 3)), cluster(s, 8), store, "blk", heads=1)
        x = Tensor(rng.standard_normal((s.n_valid, d)))
        with pytest.raises(ContractError):
            cluster_attention_block(x, s, clusterattn.ClusterAssignment(s.n_valid - 1, 8), store, "blk", heads=1)

    def test_cross_resolution_sensitivity(self, rng):
        # a fine token's output must react to a coarse neighbor's feature
        s = coarse_grid(64, 64)
        parent = s.frontier[0]
        s, _ = with_children(s, [parent])
        d = 8
        store = make_block_store(d, seed=3)
        x = rng.standard_normal((s.n_valid, d))
        a = cluster(s, 8)
        fine_row = s.keys.index(split(parent)[0])
        coarse_row = next(i for i, k in enumerate(s.keys) if k.level == 0)
        assert coarse_row in set(a.neighborhood(a.cluster_of(fine_row)).tolist())
        out = cluster_attention_block(Tensor(x), s, a, store, "blk", heads=1)
        x2 = x.copy()
        x2[coarse_row, 0] += 1e-3  # single element: survives layer norm
        out2 = cluster_attention_block(Tensor(x2), s, a, store, "blk", heads=1)
        delta = np.abs(out2.data[fine_row] - out.data[fine_row]).max()
        assert delta > 1e-9


def test_key_scale_embedding_distinguishes_levels(rng):
    # same feature content at different levels yields different attention
    s = coarse_grid(64, 64)
    s, _ = with_children(s, [s.frontier[0]])
    d = 8
    store = make_block_store(d, seed=5)
    x = Tensor(rng.standard_normal((s.n_valid, d)))
    out1 = cluster_attention_block(x, s, cluster(s, 8), store, "blk", heads=1)
    store["blk.key_scale"].data[:] = 0.0
    out2 = cluster_attention_block(x, s, cluster(s, 8), store, "blk", heads=1)
    assert np.max(np.abs(out1.data - out2.data)) > 1e-9


def block_reference(x, store, prefix, heads, size, key_levels, segments):
    """A block as separate nodes: one per projection, GELU and add."""

    def lin(a, nm):
        return tensor.linear(a, store[f"{prefix}.{nm}.w"], store[f"{prefix}.{nm}.b"], segments)

    h = tensor.layer_norm(x, store[f"{prefix}.ln1.g"], store[f"{prefix}.ln1.b"])
    q, k, v = (lin(h, nm) for nm in "qkv")
    if key_levels is not None:
        k = tensor.add(k, tensor.gather_rows(store[f"{prefix}.key_scale"], key_levels))
    x = tensor.add(x, lin(tensor.window_attention(q, k, v, size, heads, segments), "o"))
    h = tensor.layer_norm(x, store[f"{prefix}.ln2.g"], store[f"{prefix}.ln2.b"])
    return tensor.add(x, lin(tensor.gelu(lin(h, "mlp1")), "mlp2"))


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("kind", ["cluster", "vit"])
def test_blocks_match_their_separate_nodes(kind, taped):
    # two samples, the block applied twice: the fused MLP, residual and
    # key-scale adds give the bits of the separate nodes in the output, the
    # input's gradient and every parameter's accumulated gradient
    rng = np.random.default_rng(3)
    sets = [grow_random_set(64, 64, p, rng)[0] for p in (0.6, 0.3)]
    tokens = geometry.TokenBatch.stack(sets)
    d = 16
    store = make_block_store(d)
    g = Tensor(rng.standard_normal((tokens.n_valid, d)))
    x0 = rng.standard_normal((tokens.n_valid, d))
    if kind == "cluster":
        assignment = cluster(tokens, 8)
        fused = lambda x: cluster_attention_block(x, tokens, assignment, store, "blk", 2)
        ref = lambda x: block_reference(x, store, "blk", 2, 8, tokens.row_levels(), tokens.segments)
    else:
        fused = lambda x: vit_block(x, store, "blk", 2, tokens.segments)
        ref = lambda x: block_reference(x, store, "blk", 2, max(tokens.segments), None, tokens.segments)
    results = []
    for block in (fused, ref):
        x = Tensor(x0.copy(), requires_grad=taped)
        with GradTape() as tape:
            out = block(block(x))
            loss = tensor.sum_all(mul(out, g))
        grads = backward(loss, tape, params=store.items()).flat.copy() if taped else None
        results.append((out.data, x.grad, grads))
    (out, gx, grads), (want, want_gx, want_grads) = results
    assert np.array_equal(out, want)
    if taped:
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(grads, want_grads)
