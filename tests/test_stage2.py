import dataclasses
import struct

import numpy as np
import pytest

from adaptok import boundary, config, flops, geometry, params, scenes, stage2, train
from adaptok.errors import ContractError
from adaptok.stage1 import Lateral, run_stage1, run_stage1_batch
from adaptok.stage2 import densify_finest, head_logits, lateral_fuse, run_stage2
from adaptok.tensor import Tensor

from conftest import array_specs, with_children


@pytest.fixture
def forward_parts(nano_cfg, nano_store, rng):
    img = rng.random((64, 64, 3))
    s1out = run_stage1(img, nano_store, nano_cfg)
    s2out = run_stage2(s1out, nano_store, nano_cfg)
    return img, s1out, s2out


class TestLateralFuse:
    def test_identity_passthrough_with_constructed_weights(self, rng):
        d = 8
        w = np.zeros((2 * d, d))
        w[:d] = np.eye(d)  # ignore the lateral half
        store = params.ParamStore(array_specs({"fuse.w": w, "fuse.b": np.zeros(d)}))
        ts = geometry.coarse_grid(64, 64)
        cur = Tensor(rng.standard_normal((4, d)))
        lat = Lateral(ts, Tensor(np.zeros((4, d))))
        out = lateral_fuse(cur, ts, lat, store, "fuse")
        assert np.array_equal(out.data, cur.data)

    def test_fused_dims_match_table_for_named_configs(self):
        for make, dims in ((config.tiny, (64, 128, 256, 512)), (config.small, (64, 128, 256, 512)), (config.base, (96, 192, 384, 768))):
            cfg = make()
            assert cfg.stage2_dims == dims
            # lateral width at refinement round k equals the round width
            for k, src_round in ((2, 2), (3, 1), (4, 0)):
                assert cfg.stage1_dims[src_round] == cfg.stage2_dims[k - 1]

    def test_matches_concat_matmul_oracle(self, rng):
        d = 8
        specs = []
        params._linear(specs, 0, "fuse", 2 * d, d)
        store = params.ParamStore(specs)
        ts = geometry.coarse_grid(64, 64)
        cur = rng.standard_normal((4, d))
        lat = rng.standard_normal((4, d))
        out = lateral_fuse(Tensor(cur), ts, Lateral(ts, Tensor(lat)), store, "fuse")
        expect = np.concatenate([cur, lat], axis=1) @ store["fuse.w"].data + store["fuse.b"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_key_mismatch_rejected(self, rng):
        d = 8
        specs = []
        params._linear(specs, 0, "fuse", 2 * d, d)
        store = params.ParamStore(specs)
        ts = geometry.coarse_grid(64, 64)
        other, _ = with_children(ts, [ts.frontier[0]])
        with pytest.raises(ContractError):
            lateral_fuse(Tensor(rng.standard_normal((4, d))), ts, Lateral(other, Tensor(np.zeros((20, d)))), store, "fuse")


class TestRunStage2:
    def test_named_config_block_tables(self):
        assert config.tiny().stage2_blocks == (4, 4, 16, 4)
        assert config.small().stage2_blocks == (4, 6, 24, 3)
        assert config.base().stage2_blocks == (8, 6, 18, 4)
        assert config.tiny().stage1_blocks == (1, 1, 1, 0)
        assert config.base().stage1_dims == (768, 384, 192, 96)

    def test_token_conservation(self, forward_parts):
        _, s1out, s2out = forward_parts
        counts = s1out.token_set.counts_per_level()
        for lvl in range(4):
            assert len(s2out.emitted[lvl].keys) == counts[lvl]
            assert all(k.level == lvl for k in s2out.emitted[lvl].keys)
        total = sum(len(m.keys) for m in s2out.emitted.values())
        assert total == s1out.token_set.n_valid

    def test_emission_immutability(self, nano_cfg, nano_store, rng):
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, nano_store, nano_cfg)
        a = run_stage2(s1out, nano_store, nano_cfg)
        b = run_stage2(s1out, nano_store, nano_cfg)
        for lvl in range(4):
            assert np.array_equal(a.emitted[lvl].feats.data, b.emitted[lvl].feats.data)

    def test_coarse_only_degenerate_path(self, nano_cfg, rng):
        # force zero allocation with an impossible threshold
        cfg = nano_cfg.with_overrides(thresholds=(0.999, 0.999, 0.999))
        store = params.init_params(cfg, seed=0)
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, store, cfg)
        assert s1out.token_set.counts_per_level() == [4, 0, 0, 0]
        s2out = run_stage2(s1out, store, cfg)
        for lvl in (1, 2, 3):
            assert len(s2out.emitted[lvl].keys) == 0
        assert len(s2out.emitted[0].keys) == 4

    def test_padded_batch_emits_same_valid_features(self, scene_spec):
        # oracle allocation on these scenes pads the batch by 80/12/0 rows
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        batch = run_stage1_batch([s.image for s in sc], store, cfg, [s.labels for s in sc])
        assert [len(o.token_set.pad_levels) for o in batch] == [80, 12, 0]
        for out, s in zip(batch, sc):
            s2_batch = run_stage2(out, store, cfg)
            s2_solo = run_stage2(run_stage1(s.image, store, cfg, s.labels), store, cfg)
            for lvl in range(4):
                assert s2_batch.emitted[lvl].keys == s2_solo.emitted[lvl].keys
                assert np.array_equal(s2_batch.emitted[lvl].feats.data, s2_solo.emitted[lvl].feats.data)

    @pytest.mark.parametrize("stage1_only", [False, True])
    def test_real_padding_is_inert(self, stage1_only, scene_spec):
        # oracle allocation on these scenes splits unequal counts per level,
        # so the batch really pads (80/12/0 rows)
        # the features come from Stage 1 alone: a forward's result no longer
        # holds them (they go to Stage 2)
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0, stage1_only=stage1_only)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        images, labels = [s.image for s in sc], [s.labels for s in sc]
        batch = train.forward_batch(images, labels, store, cfg)
        assert len({fr.s1out.token_set.n_rows for fr in batch}) == 1
        assert [len(fr.s1out.token_set.pad_levels) for fr in batch] == [80, 12, 0]
        refine = stage2.run_stage1_only_refine if stage1_only else run_stage2
        for fr, out, s in zip(batch, run_stage1_batch(images, store, cfg, labels), sc):
            solo = train.forward_full(s.image, store, cfg, s.labels)
            solo_s1 = run_stage1(s.image, store, cfg, s.labels)
            n = solo.s1out.token_set.n_valid
            assert fr.s1out.token_set.keys == solo.s1out.token_set.keys == out.token_set.keys
            assert np.array_equal(out.feats.data[:n], solo_s1.feats.data)
            assert np.array_equal(fr.logits.data, solo.logits.data)
            perturbed = out.feats.data.copy()
            perturbed[n:] += 13.0
            a = refine(out, store, cfg)
            b = refine(dataclasses.replace(out, feats=Tensor(perturbed)), store, cfg)
            for lvl in range(4):
                nv = len(a.emitted[lvl].keys)
                assert np.array_equal(a.emitted[lvl].feats.data[:nv], b.emitted[lvl].feats.data[:nv])


    def test_stacked_batch_mixes_window_layouts(self, scene_spec):
        # oracle allocation pads scenes 51/52/53 by 80/12/0 rows: 52 and 53
        # are multi-run windows, 51 keeps its 4 coarse tokens, one run of its
        # own; a uniform label map splits nothing either, so its 4 tokens
        # share 51's single-run layout
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        images = [s.image for s in sc] + [sc[0].image]
        labels = [s.labels for s in sc] + [np.zeros_like(sc[0].labels)]
        with flops.meter() as m:
            batch = train.forward_batch(images, labels, store, cfg)
        assert [len(fr.s1out.token_set.pad_levels) for fr in batch] == [80, 12, 0, 80]
        assert [fr.s1out.token_set.n_valid for fr in batch] == [4, 72, 84, 4]
        solo_counts = []
        for fr, out, image, lab in zip(batch, run_stage1_batch(images, store, cfg, labels), images, labels):
            solo = train.forward_full(image, store, cfg, lab)
            n = solo.s1out.token_set.n_valid
            assert fr.s1out.token_set.keys == solo.s1out.token_set.keys == out.token_set.keys
            assert np.array_equal(out.feats.data[:n], run_stage1(image, store, cfg, lab).feats.data)
            assert np.array_equal(fr.logits.data, solo.logits.data)
            assert np.array_equal(fr.cell_token, solo.cell_token)
            solo_counts.append(flops.count_forward(cfg, fr.s1out.trace).total())
        t = m.total()
        assert (t.macs, t.scalar_ops, t.comparisons) == tuple(
            sum(getattr(c, f) for c in solo_counts) for f in ("macs", "scalar_ops", "comparisons")
        )

    @pytest.mark.parametrize("stage1_only", [False, True])
    def test_forward_result_is_not_refined_again(self, stage1_only, scene_spec):
        # a forward hands Stage 1's features and laterals to Stage 2, so its
        # result has none to refine: that is named, not an AttributeError
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0, stage1_only=stage1_only)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52)]
        batch = train.forward_batch([s.image for s in sc], [s.labels for s in sc], store, cfg)
        refine = stage2.run_stage1_only_refine if stage1_only else run_stage2
        for s1out in (batch.s1, batch[0].s1out, batch[1].s1out, [batch.s1]):
            with pytest.raises(ContractError, match="handed them to Stage 2"):
                refine(s1out, store, cfg)

    def test_forward_checks_its_labels_once(self, monkeypatch, scene_spec):
        # the tables a forward returns are the ones its rounds scored
        # against, derived once from the label maps
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52)]
        builds = []
        build = boundary.LabelTables.build

        def counting_build(*args, **kwargs):
            builds.append(build(*args, **kwargs))
            return builds[-1]

        monkeypatch.setattr(boundary.LabelTables, "build", counting_build)
        batch = train.forward_batch([s.image for s in sc], [s.labels for s in sc], store, cfg)
        assert len(builds) == 1 and batch.labels is builds[0] is batch.s1.labels
        for i, fr in enumerate(batch):
            for rec in fr.s1out.trace.rounds:
                assert np.array_equal(rec.targets, boundary.target_scores(batch.labels.bmaps[i], rec.frontier_table))
        tables = builds[0]
        assert train.forward_batch([s.image for s in sc], tables, store, cfg).labels is tables
        assert len(builds) == 1

    def test_dense_batch_equals_solo_forwards(self, scene_spec):
        # every sample of a dense batch has the same row count, so each
        # GEMM runs on a reshape view of the stacked rows
        cfg = config.nano().with_overrides(policy="dense")
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        batch = train.forward_batch([s.image for s in sc], [s.labels for s in sc], store, cfg)
        assert len({fr.s1out.token_set.n_valid for fr in batch}) == 1
        for fr, s in zip(batch, sc):
            solo = train.forward_full(s.image, store, cfg, s.labels)
            assert np.array_equal(fr.logits.data, solo.logits.data)
            assert np.array_equal(fr.cell_token, solo.cell_token)
            assert np.array_equal(fr.cell_labels, solo.cell_labels)
            scores = [t for t in solo.s1out.score_tensors if t is not None]
            assert len(scores) == 3
            for got, want in zip(fr.s1out.score_tensors, scores):
                assert np.array_equal(got.data, want.data)
            for got, want in zip(fr.s1out.trace.rounds, solo.s1out.trace.rounds):
                assert np.array_equal(got.targets, want.targets)

    def test_sample_loss_is_the_batch_loss_of_one(self, scene_spec):
        # a sample's loss taken on its batch equals its solo loss, and the
        # batch loss is the mean of the per-sample losses
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        batch = train.forward_batch([s.image for s in sc], [s.labels for s in sc], store, cfg)
        solo = [train.sample_loss(train.forward_full(s.image, store, cfg, s.labels), 10.0) for s in sc]
        for fr, (total, raw) in zip(batch, solo):
            got, got_raw = train.sample_loss(fr, 10.0)
            assert float(got.data) == float(total.data) and got_raw == raw
        total, raws = train.batch_loss(batch, 10.0)
        assert raws == [raw for _, raw in solo]
        assert abs(float(total.data) - np.mean([float(t.data) for t, _ in solo])) <= 1e-15


class TestDensify:
    def test_dense_policy_grid_is_level3_map_plus_positions(self, rng):
        cfg = config.nano().with_overrides(policy="dense")
        store = params.init_params(cfg, seed=0)
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, store, cfg)
        s2out = run_stage2(s1out, store, cfg)
        dense, cell_token = densify_finest(s1out.token_set, s2out, store, cfg)
        pos = store["dens.pos"].data
        em3 = s2out.emitted[3]
        grid_w = 64 // 4
        for j, key in enumerate(em3.keys):
            cell = key.row * grid_w + key.col
            expect = em3.feats.data[j] + pos[cell]
            assert np.max(np.abs(dense.data[cell] - expect)) < 1e-12

    def test_coarse_only_replication(self, rng):
        cfg = config.nano().with_overrides(thresholds=(0.999, 0.999, 0.999))
        store = params.init_params(cfg, seed=0)
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, store, cfg)
        s2out = run_stage2(s1out, store, cfg)
        dense, cell_token = densify_finest(s1out.token_set, s2out, store, cfg)
        em0 = s2out.emitted[0]
        aligned = em0.feats.data @ store["dens.align0.w"].data + store["dens.align0.b"].data
        pos = store["dens.pos"].data
        grid_w = 16
        for j, key in enumerate(em0.keys):
            rows = [(key.row * 8 + dy) * grid_w + key.col * 8 + dx for dy in range(8) for dx in range(8)]
            for cell in rows:
                assert np.max(np.abs(dense.data[cell] - aligned[j] - pos[cell])) < 1e-12

    def test_cell_cover_matches_bruteforce(self, nano_cfg, nano_store, rng):
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, nano_store, nano_cfg)
        s2out = run_stage2(s1out, nano_store, nano_cfg)
        _, cell_token = densify_finest(s1out.token_set, s2out, nano_store, nano_cfg)
        ts = s1out.token_set
        grid_w = 16
        for cy in range(16):
            for cx in range(16):
                y, x = cy * 4 + 1, cx * 4 + 1
                best, best_level = -1, -1
                for i, k in enumerate(ts.keys):
                    y0, x0, y1, x1 = k.rect()
                    if y0 <= y < y1 and x0 <= x < x1 and k.level > best_level:
                        best, best_level = i, k.level
                assert cell_token[cy * grid_w + cx] == best

    def test_every_cell_written_once(self, forward_parts, nano_cfg, nano_store):
        img, s1out, s2out = forward_parts
        dense, cell_token = densify_finest(s1out.token_set, s2out, nano_store, nano_cfg)
        assert dense.data.shape == (256, nano_cfg.stage2_dims[0])
        assert cell_token.shape == (256,)
        assert np.all(cell_token >= 0)

    def test_emitted_keys_must_partition_the_union(self, forward_parts, nano_cfg, nano_store):
        # equal counts are not enough: reordered or duplicated tokens are rejected
        _, s1out, s2out = forward_parts
        em = s2out.emitted[0]
        rotated = np.roll(em.tokens.table, 1, axis=0)
        duplicated = np.concatenate([em.tokens.table[:-1], em.tokens.table[:1]])
        for table in (rotated, duplicated):
            bad = dataclasses.replace(em, tokens=dataclasses.replace(em.tokens, table=table))
            emitted = {**s2out.emitted, 0: bad}
            with pytest.raises(ContractError):
                densify_finest(s1out.token_set, dataclasses.replace(s2out, emitted=emitted), nano_store, nano_cfg)

    def test_head_logits_shape(self, forward_parts, nano_cfg, nano_store):
        _, s1out, s2out = forward_parts
        dense, _ = densify_finest(s1out.token_set, s2out, nano_store, nano_cfg)
        logits = head_logits(dense, nano_store)
        assert logits.data.shape == (256, nano_cfg.n_classes)


class TestStage1Only:
    def test_refine_and_densify(self, rng):
        cfg = config.nano().with_overrides(stage1_only=True)
        store = params.init_params(cfg, seed=0)
        img = rng.random((64, 64, 3))
        s1out = run_stage1(img, store, cfg)
        s2out = stage2.run_stage1_only_refine(s1out, store, cfg)
        counts = s1out.token_set.counts_per_level()
        for lvl in range(4):
            assert len(s2out.emitted[lvl].keys) == counts[lvl]
        dense, _ = densify_finest(s1out.token_set, s2out, store, cfg)
        assert dense.data.shape == (256, cfg.stage1_dims[3])
        logits = head_logits(dense, store)
        assert np.all(np.isfinite(logits.data))


def test_feature_export_roundtrip(tmp_path, forward_parts):
    from adaptok.export import load_emitted_maps, save_emitted_maps

    _, s1out, s2out = forward_parts
    path = tmp_path / "features.bin"
    save_emitted_maps(path, s2out)
    back = load_emitted_maps(path)
    for lvl in range(4):
        keys, feats = back[lvl]
        assert keys == list(s2out.emitted[lvl].keys)
        assert np.array_equal(feats, s2out.emitted[lvl].feats.data)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda b: b[:-5], "truncated feature container"),
        (lambda b: b[:-100], "truncated feature container"),
        (lambda b: b + b"\0\0", "feature container has 2 trailing bytes"),
        (lambda b: b"ADTKPAR1" + b[8:], "not an emitted-features container"),
        (lambda b: b[:8] + struct.pack("<I", 2) + b[12:], "unsupported feature container version 2"),
    ],
    ids=["cut-5", "cut-100", "trailing-2", "bad-magic", "bad-version"],
)
def test_malformed_feature_container_rejected(tmp_path, forward_parts, corrupt, message):
    from adaptok.export import load_emitted_maps, save_emitted_maps

    path = tmp_path / "features.bin"
    save_emitted_maps(path, forward_parts[2])
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as err:
        load_emitted_maps(path)
    assert str(path) in str(err.value)
