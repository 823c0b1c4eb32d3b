import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptok import boundary, config, flops, geometry, params, scenes, stage1, train
from adaptok.errors import ContractError
from adaptok.params import init_params, load_params, save_params
from adaptok.stage1 import (
    allocator_mse,
    oracle_mix_gate,
    run_stage1,
    run_stage1_batch,
    select,
)
from adaptok.stage2 import run_stage2
from adaptok.tensor import Tensor

from conftest import rows_of, split


@pytest.fixture
def nano_scene(scene_spec):
    return scenes.generate_scene(42, scene_spec)


class TestSelect:
    def test_hand_case(self):
        idx, k = select([0.0, 0.003, 0.02, 0.5], 0.005)
        assert idx.tolist() == [2, 3] and k == 2

    def test_all_below_threshold(self):
        idx, k = select([0.001, 0.004], 0.005)
        assert k == 0 and idx.size == 0

    def test_boundary_not_selected_on_equality(self):
        idx, k = select([0.005], 0.005)
        assert k == 0

    def test_against_brute_force(self, rng):
        for _ in range(100):
            scores = rng.random(1000)
            tau = float(rng.uniform(0.001, 0.9))
            idx, k = select(scores, tau)
            brute = sum(1 for s in scores if s > tau)
            assert k == brute == len(idx)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            select([0.5], 0.0)


class TestCoarseEmbed:
    def test_every_forward_charges_the_coarse_sort(self, nano_cfg, nano_store, rng):
        # the coarse grid is built once per extent and then shared, but each
        # sample of each forward still charges its canonical sort
        geometry._coarse_grid.cache_clear()
        images = [rng.random((64, 64, 3)) for _ in range(3)]
        charged = []
        for batch in ([images[0]], [images[1]], images):
            with flops.meter() as m:
                run_stage1_batch(batch, nano_store, nano_cfg)
            charged.append(m.counts("stage1.embed").comparisons)
        per_sample = flops.sort_comparisons(nano_cfg.coarse_tokens)
        assert charged == [per_sample, per_sample, 3 * per_sample]

    def test_tiny_dim_and_count(self):
        cfg = config.tiny(h=256, w=256)
        store = params.ParamStore()
        params.init_coarse_embed(store, cfg, seed=0)
        assert store["s1.embed.w"].data.shape == (32 * 32 * 3, 512)
        assert store["s1.embed.pos"].data.shape == (64, 512)

    def test_zero_image_zero_weights_gives_positions(self, nano_cfg):
        store = init_params(nano_cfg, seed=0)
        store["s1.embed.w"].data[:] = 0.0
        store["s1.embed.b"].data[:] = 0.0
        run = stage1.Stage1Run([np.zeros((64, 64, 3))], store, nano_cfg)
        # no pre-allocation blocks: strip them by zeroing is messy; read
        # the embedding before the ViT instead
        cfgs = nano_cfg.with_overrides(stage1_blocks=(0, 1, 1, 0))
        store0 = init_params(cfgs, seed=0)
        store0["s1.embed.w"].data[:] = 0.0
        store0["s1.embed.b"].data[:] = 0.0
        run = stage1.Stage1Run([np.zeros((64, 64, 3))], store0, cfgs)
        run.begin()
        grid_w = 64 // 32
        pos = store0["s1.embed.pos"].data
        for i, k in enumerate(run.tokens.sets[0].keys):
            assert np.array_equal(run.feats.data[i], pos[k.row * grid_w + k.col])

    def test_embed_matches_matmul_oracle(self, nano_cfg, rng):
        cfg = nano_cfg.with_overrides(stage1_blocks=(0, 1, 1, 0))
        store = init_params(cfg, seed=1)
        img = rng.random((64, 64, 3))
        run = stage1.Stage1Run([img], store, cfg)
        run.begin()
        grid_w = 2
        w = store["s1.embed.w"].data
        b = store["s1.embed.b"].data
        pos = store["s1.embed.pos"].data
        for i, k in enumerate(run.tokens.sets[0].keys):
            y0, x0, y1, x1 = k.rect()
            expect = img[y0:y1, x0:x1].reshape(-1) @ w + b + pos[k.row * grid_w + k.col]
            assert np.max(np.abs(run.feats.data[i] - expect)) < 1e-12


class TestPreAllocationVit:
    def test_zero_blocks_is_identity_on_embedding(self, rng, nano_cfg):
        cfg = nano_cfg.with_overrides(stage1_blocks=(0, 1, 1, 0))
        store = init_params(cfg, seed=0)
        img = rng.random((64, 64, 3))
        run = stage1.Stage1Run([img], store, cfg)
        run.begin()
        w = store["s1.embed.w"].data
        k0 = run.tokens.sets[0].keys[0]
        y0, x0, y1, x1 = k0.rect()
        expect = img[y0:y1, x0:x1].reshape(-1) @ w + store["s1.embed.b"].data
        expect = expect + store["s1.embed.pos"].data[k0.row * 2 + k0.col]
        assert np.max(np.abs(run.feats.data[0] - expect)) < 1e-12

    def test_single_token_closed_form(self, rng):
        cfg = config.nano(h=32, w=32)
        store = init_params(cfg, seed=2)
        img = rng.random((32, 32, 3))
        run = stage1.Stage1Run([img], store, cfg)
        run.begin()
        # replicate by hand: embed then one pre-norm block with n=1
        x = img.reshape(1, -1) @ store["s1.embed.w"].data + store["s1.embed.b"].data
        x = x + store["s1.embed.pos"].data[0]

        def ln(v, g, b, eps=1e-5):
            mu = v.mean()
            var = v.var()
            return (v - mu) / np.sqrt(var + eps) * g + b

        p = "s1.pre.0"
        h = ln(x[0], store[f"{p}.ln1.g"].data, store[f"{p}.ln1.b"].data)
        v = h @ store[f"{p}.v.w"].data + store[f"{p}.v.b"].data
        # single token: softmax over one key per head collapses to v
        attn = v @ store[f"{p}.o.w"].data + store[f"{p}.o.b"].data
        x1 = x[0] + attn
        h2 = ln(x1, store[f"{p}.ln2.g"].data, store[f"{p}.ln2.b"].data)
        m = h2 @ store[f"{p}.mlp1.w"].data + store[f"{p}.mlp1.b"].data
        c = np.sqrt(2 / np.pi)
        m = 0.5 * m * (1 + np.tanh(c * (m + 0.044715 * m**3)))
        m = m @ store[f"{p}.mlp2.w"].data + store[f"{p}.mlp2.b"].data
        expect = x1 + m
        assert np.max(np.abs(run.feats.data[0] - expect)) < 1e-10

    def test_shape_preserved(self, nano_cfg, nano_store, rng):
        out = run_stage1(rng.random((64, 64, 3)), nano_store, nano_cfg)
        d_final = nano_cfg.stage1_dims[3]
        assert out.feats.data.shape == (out.token_set.n_rows, d_final)


class TestScorer:
    def test_zero_weights_give_half(self, nano_cfg, rng):
        store = init_params(nano_cfg, seed=0)
        for nm in ("score1", "score2"):
            store[f"s1.r1.{nm}.w"].data[:] = 0.0
            store[f"s1.r1.{nm}.b"].data[:] = 0.0
        img = rng.random((64, 64, 3))
        run = stage1.Stage1Run([img], store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        assert np.allclose(scores, 0.5)

    def test_scores_in_open_interval(self, nano_cfg, nano_store, rng):
        run = stage1.Stage1Run([rng.random((64, 64, 3))], nano_store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        assert np.all((scores > 0) & (scores < 1))

    def test_scoring_cost_is_linear_in_frontier(self, nano_cfg, nano_store, rng):
        from adaptok import flops

        def scorer_cost(img, cfg, store):
            run = stage1.Stage1Run([img], store, cfg)
            run.begin()
            run.enter_round(1)
            with flops.meter() as m:
                run.score_round(1)
            return m.total()

        cost = scorer_cost(rng.random((64, 64, 3)), nano_cfg, nano_store)
        n, d, hid = 4, nano_cfg.stage1_dims[1], nano_cfg.scorer_hidden(1)
        assert cost.macs == n * (d * hid + hid)
        per_token = cost.macs // n
        cfg_wide = config.nano(h=64, w=128)
        store_wide = init_params(cfg_wide, seed=0)
        wide = scorer_cost(rng.random((64, 128, 3)), cfg_wide, store_wide)
        assert wide.macs == 8 * per_token


class TestAllocate:
    def test_zero_image_zero_child_mlp_additive_decomposition(self, nano_cfg):
        store = init_params(nano_cfg, seed=0)
        for nm in ("pix", "mlp1", "mlp2"):
            store[f"s1.r1.child.{nm}.w"].data[:] = 0.0
            store[f"s1.r1.child.{nm}.b"].data[:] = 0.0
        run = stage1.Stage1Run([np.zeros((64, 64, 3))], store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        parent = run.tokens.sets[0].frontier[0]
        parent_row = rows_of(run.tokens.sets[0], [parent])[0]
        parent_feat = run.feats.data[parent_row].copy()
        run.allocate_round(1, [([0], "predicted")], [scores], [None])
        scale = store["s1.r1.scale_emb"].data
        slots = store["s1.r1.slot_emb"].data
        kids = split(parent)
        for slot, kid in enumerate(kids):
            row = run.tokens.sets[0].keys.index(kid)
            expect = parent_feat + scale + slots[slot]
            assert np.max(np.abs(run.feats.data[row] - expect)) < 1e-12

    def test_children_share_residual_and_scale(self, nano_cfg, rng):
        store = init_params(nano_cfg, seed=0)
        img = rng.random((64, 64, 3))
        run = stage1.Stage1Run([img], store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        parent = run.tokens.sets[0].frontier[0]
        parent_row = rows_of(run.tokens.sets[0], [parent])[0]
        parent_feat = run.feats.data[parent_row].copy()
        run.allocate_round(1, [([0], "predicted")], [scores], [None])
        slots = store["s1.r1.slot_emb"].data
        kids = split(parent)
        # subtracting the per-slot embedding and the shared residual leaves
        # only the per-child pixel path
        leftovers = []
        for slot, kid in enumerate(kids):
            row = run.tokens.sets[0].keys.index(kid)
            leftovers.append(run.feats.data[row] - slots[slot] - parent_feat - store["s1.r1.scale_emb"].data)
        # recompute pixel path by hand for child 0
        y0, x0, y1, x1 = kids[0].rect()
        t = img[y0:y1, x0:x1].reshape(1, -1) @ store["s1.r1.child.pix.w"].data + store["s1.r1.child.pix.b"].data
        c = np.sqrt(2 / np.pi)
        h = t @ store["s1.r1.child.mlp1.w"].data + store["s1.r1.child.mlp1.b"].data
        h = 0.5 * h * (1 + np.tanh(c * (h + 0.044715 * h**3)))
        h = h @ store["s1.r1.child.mlp2.w"].data + store["s1.r1.child.mlp2.b"].data
        assert np.max(np.abs(leftovers[0] - h[0])) < 1e-12

    def test_child_count_is_four_k(self, nano_cfg, nano_store, rng):
        img = rng.random((64, 64, 3))
        out = run_stage1(img, nano_store, nano_cfg)
        counts = out.token_set.counts_per_level()
        for rec in out.trace.rounds:
            assert counts[rec.round_index] == 4 * rec.selected_count
            recount = int(np.sum(rec.scores > nano_cfg.thresholds[rec.round_index - 1]))
            if rec.selection_source == "predicted":
                assert rec.selected_count == recount

    def test_selection_outside_frontier_rejected(self, nano_cfg, nano_store, rng):
        run = stage1.Stage1Run([rng.random((64, 64, 3))], nano_store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        # selections are positions in the frontier of 4 coarse tokens
        for outside in (4, -1):
            with pytest.raises(ContractError, match="outside round-1 frontier"):
                run.allocate_round(1, [([0, outside], "predicted")], [scores], [None])

    def test_selection_naming_a_parent_twice_rejected(self, nano_cfg, nano_store, rng):
        run = stage1.Stage1Run([rng.random((64, 64, 3))], nano_store, nano_cfg)
        run.begin()
        run.enter_round(1)
        (scores,) = run.score_round(1)
        parent = run.tokens.sets[0].frontier[0]
        with pytest.raises(ContractError, match=f"more than once.*{re.escape(repr(parent))}"):
            run.allocate_round(1, [([0, 0], "predicted")], [scores], [None])


class TestPolicies:
    def test_dense_counts_full_grids(self, rng):
        cfg = config.nano(h=256, w=256).with_overrides(policy="dense")
        store = init_params(cfg, seed=0)
        out = run_stage1(rng.random((256, 256, 3)), store, cfg)
        assert out.token_set.counts_per_level() == [64, 256, 1024, 4096]

    def test_random_ratio_half(self, rng):
        cfg = config.nano().with_overrides(policy="random_ratio", ratio_schedule=(0.5, 0.5, 0.5))
        store = init_params(cfg, seed=0)
        out1 = run_stage1(rng.random((64, 64, 3)), store, cfg)
        for rec in out1.trace.rounds:
            assert rec.selected_count == int(np.floor(0.5 * rec.candidate_count + 0.5))
            assert rec.selection_source == "random"
        img = rng.random((64, 64, 3))
        a = run_stage1(img, store, cfg)
        b = run_stage1(img, store, cfg)
        assert [r.selected for r in a.trace.rounds] == [r.selected for r in b.trace.rounds]

    def test_frontier_only_scoring(self, nano_cfg, nano_store, rng):
        out = run_stage1(rng.random((64, 64, 3)), nano_store, nano_cfg)
        prev_frontier = None
        for rec in out.trace.rounds:
            if prev_frontier is not None:
                assert set(rec.frontier) == set(prev_frontier)
            assert all(k.level == rec.round_index - 1 for k in rec.frontier)
            prev_frontier = [c for p in rec.selected for c in split(p)]

    def test_budget_ordering(self, rng):
        cfg_a = config.nano()
        cfg_d = cfg_a.with_overrides(policy="dense")
        store = init_params(cfg_a, seed=0)
        for _ in range(5):
            img = rng.random((64, 64, 3))
            na = run_stage1(img, store, cfg_a).token_set.n_valid
            nd = run_stage1(img, store, cfg_d).token_set.n_valid
            assert na <= nd

    def test_threshold_monotonicity(self, rng):
        scores = rng.random(200)
        ks = []
        for tau in (0.01, 0.1, 0.3, 0.7):
            _, k = select(scores, tau)
            ks.append(k)
        assert ks == sorted(ks, reverse=True)

    def test_determinism_fixed_seed(self, nano_cfg, nano_store, rng):
        img = rng.random((64, 64, 3))
        a = run_stage1(img, nano_store, nano_cfg)
        b = run_stage1(img, nano_store, nano_cfg)
        assert np.array_equal(a.feats.data, b.feats.data)
        for ra, rb in zip(a.trace.rounds, b.trace.rounds):
            assert ra.selected == rb.selected
            assert np.array_equal(ra.scores, rb.scores)


class TestOracleMixGate:
    def test_rate_zero_and_one(self):
        assert not any(oracle_mix_gate(0.0, 1, i) for i in range(50))
        assert all(oracle_mix_gate(1.0, 1, i) for i in range(50))

    def test_rate_zero_and_one_draw_nothing(self, monkeypatch):
        def no_stream(*key):
            raise AssertionError(f"a generator was built for {key}")

        monkeypatch.setattr(stage1, "rng_for", no_stream)
        assert oracle_mix_gate(1.0, 1, 0) and not oracle_mix_gate(0.0, 1, 0)
        with pytest.raises(AssertionError, match="generator was built"):
            oracle_mix_gate(0.5, 1, 0)

    def test_rate_half_frequency(self):
        hits = sum(oracle_mix_gate(0.5, 123, i) for i in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_deterministic_per_batch(self):
        a = [oracle_mix_gate(0.5, 9, i) for i in range(100)]
        b = [oracle_mix_gate(0.5, 9, i) for i in range(100)]
        assert a == b

    def test_oracle_selection_uses_targets(self, rng, scene_spec):
        sc = scenes.generate_scene(3, scene_spec)
        if len(np.unique(sc.labels)) == 1:
            sc = scenes.generate_scene(5, scene_spec)
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = init_params(cfg, seed=0)
        out = run_stage1(sc.image, store, cfg, sc.labels)
        rec = out.trace.rounds[0]
        assert rec.selection_source == "oracle"
        idx, _ = select(rec.targets, cfg.thresholds[0])
        assert set(rec.selected) == {rec.frontier[i] for i in idx}
        # scorer predictions are still recorded for training
        assert rec.scores.shape == rec.targets.shape

    def test_labels_must_match_the_images(self, nano_cfg, nano_store, rng, scene_spec):
        sc = scenes.generate_scene(3, scene_spec)
        images = [rng.random((64, 64, 3))] * 2
        tables = boundary.LabelTables.build([sc.labels], (64, 64))
        with pytest.raises(ValueError, match="label tables of shape"):
            run_stage1_batch(images, nano_store, nano_cfg, tables)
        with pytest.raises(ValueError, match="label map 1 is"):
            run_stage1_batch(images, nano_store, nano_cfg, [sc.labels, sc.labels[:32]])

    def test_mis_sized_image_is_named_before_its_labels(self, nano_cfg, nano_store, rng):
        # a 128x128 scene on a 64x64 config: the image is at fault, though
        # its label map matches it
        image, labels = rng.random((128, 128, 3)), np.zeros((128, 128), dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape("image shape (128, 128, 3) does not match config (64, 64, 3)")):
            train.forward_full(image, nano_store, nano_cfg, labels)

    def test_oracle_requires_labels(self, rng):
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            run_stage1(rng.random((64, 64, 3)), store, cfg, labels=None)

    @pytest.mark.parametrize("policy", ["oracle_mix", "random_ratio"])
    def test_forward_draws_only_the_streams_its_policy_reads(self, monkeypatch, scene_spec, policy):
        # oracle_mix reads the per-batch gate at a rate that can flip it;
        # random_ratio reads one stream per sample and round, keyed by batch
        # index, sample and round
        cfg = config.nano().with_overrides(policy=policy, oracle_rate=0.5)
        store = init_params(cfg, seed=0)
        corpus = scenes.generate_corpus(3, 2, scene_spec)
        drawn = []

        def spy(seed, *tags):
            drawn.append(tags)
            return params.rng_for(seed, *tags)

        monkeypatch.setattr(stage1, "rng_for", spy)
        train.forward_batch([sc.image for sc in corpus], [sc.labels for sc in corpus], store, cfg, batch_index=4)
        if policy == "oracle_mix":
            assert drawn == [("oracle_gate", 4)]
        else:
            assert drawn == [("ratio", 4, i, r) for r in (1, 2, 3) for i in (0, 1)]


class TestBatchPadding:
    # oracle allocation on scenes 51/52/53 splits unequal counts per level,
    # so the batch pads them by 80/12/0 rows
    def oracle_batch(self, scene_spec):
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        batch = run_stage1_batch([s.image for s in sc], store, cfg, [s.labels for s in sc])
        assert [len(o.token_set.pad_levels) for o in batch] == [80, 12, 0]
        return cfg, store, sc, batch

    def test_solo_equals_batch(self, scene_spec):
        cfg, store, sc, batch = self.oracle_batch(scene_spec)
        # per-level counts padded to the batch max
        assert len({o.token_set.n_rows for o in batch}) == 1
        for out, s in zip(batch, sc):
            solo = run_stage1(s.image, store, cfg, s.labels)
            n = solo.token_set.n_valid
            assert out.token_set.keys == solo.token_set.keys
            assert np.array_equal(out.feats.data[:n], solo.feats.data)
            assert not out.feats.data[n:].any()

    def test_pad_rows_make_up_each_level_to_the_batch_max(self, scene_spec):
        _, _, _, batch = self.oracle_batch(scene_spec)
        assert all(type(o.token_set) is geometry.TokenBatch for o in batch)
        assert [o.token_set.segments for o in batch] == [(4,), (72,), (84,)]
        counts = np.array([o.token_set.counts_per_level() for o in batch])
        assert counts.tolist() == [[4, 0, 0, 0], [4, 8, 16, 44], [4, 8, 24, 48]]
        assert batch.tokens.counts_per_level() == counts.sum(axis=0).tolist()
        # each sample's pad rows, by ascending level, are its deficit
        # against the batch maximum [4, 8, 24, 48] at that level
        want = [[1] * 8 + [2] * 24 + [3] * 48, [2] * 8 + [3] * 4, []]
        assert [list(o.token_set.pad_levels) for o in batch] == want
        assert len({o.token_set.n_rows for o in batch}) == 1

    def test_train_step_builds_no_per_sample_output(self, monkeypatch, nano_cfg, scene_spec):
        # per-sample outputs are made only when a batch is indexed, and a
        # train step indexes none
        built = []
        init = stage1.Stage1Output.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(stage1.Stage1Output, "__init__", counting_init)
        corpus = scenes.generate_corpus(3, 4, scene_spec)
        train.train(nano_cfg, init_params(nano_cfg, seed=0), corpus, steps=1, batch_size=4, log=None)
        assert built == []
        batch = run_stage1_batch([sc.image for sc in corpus[:2]], init_params(nano_cfg, seed=0), nano_cfg)
        assert len(batch) == 2 and built == []
        assert batch[-1] is built[0]

    def test_padding_neutrality_with_perturbation(self, scene_spec):
        cfg, store, _, batch = self.oracle_batch(scene_spec)
        for out in batch:
            n_pad = len(out.token_set.pad_levels)
            assert out.token_set.n_rows - out.token_set.n_valid == n_pad
            assert out.feats.data.shape[0] == out.token_set.n_valid + n_pad
            perturbed = out.feats.data.copy()
            perturbed[out.token_set.n_valid :] += 13.0
            a = run_stage2(out, store, cfg)
            b = run_stage2(dataclasses.replace(out, feats=Tensor(perturbed)), store, cfg)
            for lvl in range(4):
                assert a.emitted[lvl].keys == b.emitted[lvl].keys
                assert np.array_equal(a.emitted[lvl].feats.data, b.emitted[lvl].feats.data)

    def test_allocator_mse_matches_numpy_loss(self, nano_cfg, nano_store, rng, scene_spec):
        sc = scenes.generate_scene(31, scene_spec)
        out = run_stage1(sc.image, nano_store, nano_cfg, sc.labels)
        t, ids = allocator_mse(out)
        preds = np.concatenate([r.scores for r in out.trace.rounds if r.candidate_count])
        targs = np.concatenate([r.targets for r in out.trace.rounds if r.candidate_count])
        assert ids == [0] and t.data.shape == (1,)
        assert abs(float(t.data[0]) - boundary.allocator_loss(preds, targs)) < 1e-12


class TestParamContainer:
    def test_roundtrip(self, tmp_path, nano_cfg, nano_store):
        path = tmp_path / "params.bin"
        save_params(path, nano_store, nano_cfg)
        back = load_params(path, nano_cfg)
        assert sorted(back.names()) == sorted(nano_store.names())
        for name, t in nano_store.items():
            assert np.array_equal(back[name].data, t.data)

    def test_save_load_save_is_byte_identical(self, tmp_path, nano_cfg, nano_store):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(first, nano_store, nano_cfg)
        save_params(second, load_params(first, nano_cfg), nano_cfg)
        assert first.read_bytes() == second.read_bytes()

    def test_digest_mismatch_rejected(self, tmp_path, nano_cfg, nano_store):
        path = tmp_path / "params.bin"
        save_params(path, nano_store, nano_cfg)
        # the container is keyed to the architecture: another cluster size or
        # class count is rejected, another allocation policy or τ is not
        for other in (nano_cfg.with_overrides(cluster_size=4), config.nano(classes=5)):
            with pytest.raises(ValueError, match="different config"):
                load_params(path, other)
        for other in (nano_cfg.with_overrides(policy="dense"), nano_cfg.with_overrides(thresholds=(0.01, 0.02, 0.04))):
            load_params(path, other)

    def test_truncated_container_rejected(self, tmp_path, nano_cfg, nano_store):
        path = tmp_path / "params.bin"
        save_params(path, nano_store, nano_cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-12])
        last = sorted(nano_store.names())[-1]
        with pytest.raises(ValueError, match=f"truncated.*values of parameter {last}"):
            load_params(path, nano_cfg)

    def test_trailing_bytes_rejected(self, tmp_path, nano_cfg, nano_store):
        path = tmp_path / "params.bin"
        save_params(path, nano_store, nano_cfg)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="8 trailing bytes"):
            load_params(path, nano_cfg)

    def test_non_finite_parameter_rejected(self, tmp_path, nano_cfg):
        store = init_params(nano_cfg, seed=0)
        store["head.b"].data[1] = np.nan
        path = tmp_path / "params.bin"
        save_params(path, store, nano_cfg)
        with pytest.raises(ValueError, match="parameter head.b has non-finite values"):
            load_params(path, nano_cfg)

    def test_init_is_creation_order_independent(self, nano_cfg):
        a = init_params(nano_cfg, seed=5)
        b = init_params(nano_cfg, seed=5)
        for name, t in a.items():
            assert np.array_equal(t.data, b[name].data)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A saved nano container: (path to rewrite, its bytes, its config)."""
    cfg = config.nano()
    path = tmp_path_factory.mktemp("container") / "params.bin"
    save_params(path, init_params(cfg, seed=0), cfg)
    return path, path.read_bytes(), cfg


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0), extra=st.binary(max_size=64))
def test_malformed_container_raises_value_error(container, cut, extra):
    # cut at any byte, or intact with bytes appended: always a ValueError,
    # never a raw struct.error
    path, blob, cfg = container
    path.write_bytes(blob + extra if extra else blob[: cut % len(blob)])
    with pytest.raises(ValueError):
        load_params(path, cfg)
