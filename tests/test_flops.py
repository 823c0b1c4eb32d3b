import numpy as np
import pytest

from adaptok import clusterattn, config, flops, params, scenes, stage1, tensor, train
from adaptok.flops import Counts, FlopsReport, cluster_group_sizes, corpus_stats, count_forward
from adaptok.tensor import Tensor

from conftest import grow_random_set


class TestConventions:
    def test_linear_layer_flops(self):
        # d_in -> d_out over N tokens: 2*N*d_in*d_out FLOPs from the MACs
        n, d_in, d_out = 7, 5, 3
        with flops.meter() as m:
            tensor.matmul(Tensor(np.zeros((n, d_in))), Tensor(np.zeros((d_in, d_out))))
        assert 2 * m.total().macs == 2 * n * d_in * d_out
        assert m.total().flops == 2 * n * d_in * d_out

    def test_mac_is_two_flops(self):
        c = Counts(macs=10, scalar_ops=3)
        assert c.flops == 23

    def test_cluster_group_sizes(self):
        assert cluster_group_sizes(10, 4) == [(4, 8), (4, 10), (2, 6)]
        assert cluster_group_sizes(4, 8) == [(4, 4)]
        assert cluster_group_sizes(0, 8) == []

    def test_comparisons_excluded_from_flops(self):
        c = Counts(macs=0, scalar_ops=0, comparisons=999)
        assert c.flops == 0


class TestCorpusStats:
    def test_single_sample(self):
        assert corpus_stats([10.0]) == (10.0, 0.0)

    def test_two_equal(self):
        assert corpus_stats([5.0, 5.0]) == (5.0, 0.0)

    def test_hand_case(self):
        mean, std = corpus_stats([10, 20, 30])
        assert mean == 20.0
        assert abs(std - 8.16496580927726) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])


class TestCounterExecutorAgreement:
    @pytest.mark.parametrize("policy", ["adaptive", "dense", "random_ratio"])
    def test_exact_match_per_policy(self, policy, nano_cfg, rng, scene_spec):
        cfg = nano_cfg.with_overrides(policy=policy)
        store = params.init_params(cfg, seed=0)
        for seed in (60, 61):
            sc = scenes.generate_scene(seed, scene_spec)
            with flops.meter() as m:
                fr = train.forward_full(sc.image, store, cfg, sc.labels)
            metered = m.total()
            analytic = count_forward(cfg, fr.s1out.trace).total()
            assert (analytic.macs, analytic.scalar_ops, analytic.comparisons) == (
                metered.macs,
                metered.scalar_ops,
                metered.comparisons,
            )

    def test_sections_match_exactly(self, nano_cfg, nano_store, scene_spec):
        sc = scenes.generate_scene(62, scene_spec)
        with flops.meter() as m:
            fr = train.forward_full(sc.image, nano_store, nano_cfg, sc.labels)
        analytic = count_forward(nano_cfg, fr.s1out.trace)
        assert set(m.sections) == set(analytic.sections)
        for name, c in m.sections.items():
            a = analytic.sections[name]
            assert (a.macs, a.scalar_ops, a.comparisons) == (c.macs, c.scalar_ops, c.comparisons), name

    def test_stage1_only_agreement(self, scene_spec):
        cfg = config.nano().with_overrides(stage1_only=True)
        store = params.init_params(cfg, seed=0)
        sc = scenes.generate_scene(63, scene_spec)
        with flops.meter() as m:
            train.forward_full(sc.image, store, cfg, sc.labels)
        # rebuild the trace for the analytic side
        with flops.meter() as m2:
            fr = train.forward_full(sc.image, store, cfg, sc.labels)
        analytic = count_forward(cfg, fr.s1out.trace).total()
        assert (analytic.macs, analytic.scalar_ops) == (m.total().macs, m.total().scalar_ops)

    def test_one_block_with_short_tail(self, rng):
        # the attention primitive charges from its own mask; the analytic
        # block charge derives its groups from cluster_group_sizes
        s, _ = grow_random_set(64, 64, 0.6, rng)
        n, size, d, heads = s.n_valid, 8, 16, 2
        if n % size == 0:
            size = 7 if n % 7 else 9
        assert n % size and n > 2 * size
        specs = []
        params._block(specs, 0, "blk", d, key_scale=True)
        store = params.ParamStore(specs)
        x = Tensor(rng.standard_normal((n, d)))
        with flops.meter() as m:
            clusterattn.cluster_attention_block(x, s, clusterattn.cluster(s, size), store, "blk", heads)
        rep = FlopsReport()
        flops._charge_block(rep, "blk", n, d, heads, cluster_group_sizes(n, size), True)
        metered, analytic = m.total(), rep.total()
        assert (analytic.macs, analytic.scalar_ops, analytic.comparisons) == (
            metered.macs,
            metered.scalar_ops,
            metered.comparisons,
        )

    def test_ablation_switch_agreement(self, scene_spec):
        for switch in ({"no_aux_image": True}, {"no_residual": True}):
            cfg = config.nano().with_overrides(**switch)
            store = params.init_params(cfg, seed=0)
            sc = scenes.generate_scene(64, scene_spec)
            with flops.meter() as m:
                fr = train.forward_full(sc.image, store, cfg, sc.labels)
            analytic = count_forward(cfg, fr.s1out.trace).total()
            metered = m.total()
            assert (analytic.macs, analytic.scalar_ops, analytic.comparisons) == (
                metered.macs,
                metered.scalar_ops,
                metered.comparisons,
            ), switch


class TestStructuralProperties:
    def test_dense_policy_flops_content_independent(self, scene_spec, rng):
        cfg = config.nano().with_overrides(policy="dense")
        store = params.init_params(cfg, seed=0)
        totals = []
        for seed in (70, 71, 72):
            sc = scenes.generate_scene(seed, scene_spec)
            with flops.meter() as m:
                train.forward_full(sc.image, store, cfg, sc.labels)
            totals.append(m.total().flops)
        assert len(set(totals)) == 1
        assert corpus_stats(totals)[1] == 0.0

    def test_threshold_monotonicity_of_counted_flops(self, scene_spec):
        # lower thresholds select supersets, so counted compute never drops
        sc = scenes.generate_scene(73, scene_spec)
        prev = None
        for tau in (0.5, 0.05, 0.005):
            cfg = config.nano().with_overrides(thresholds=(tau, tau, tau))
            store = params.init_params(cfg, seed=0)
            with flops.meter() as m:
                train.forward_full(sc.image, store, cfg, sc.labels)
            total = m.total().flops
            if prev is not None:
                assert total >= prev
            prev = total

    def test_additivity_of_sections(self, nano_cfg, nano_store, scene_spec):
        sc = scenes.generate_scene(74, scene_spec)
        with flops.meter() as rep:
            train.forward_full(sc.image, nano_store, nano_cfg, sc.labels)
        stage1_total = sum(c.flops for name, c in rep.sections.items() if name.startswith("stage1"))
        stage2_total = sum(c.flops for name, c in rep.sections.items() if name.startswith("stage2"))
        rest = sum(c.flops for name, c in rep.sections.items() if name in ("densify", "head"))
        assert stage1_total + stage2_total + rest == rep.total().flops

    def test_padded_tokens_contribute_zero(self, scene_spec):
        # per-sample accounting is defined on the solo (unpadded) forward;
        # a sample's analytic count is unchanged by batch padding because
        # the trace only records valid tokens. Oracle allocation on these
        # scenes pads the batch by 80/12/0 rows.
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        outs = stage1.run_stage1_batch([s.image for s in sc], store, cfg, [s.labels for s in sc])
        assert [len(o.token_set.pad_levels) for o in outs] == [80, 12, 0]
        for out, s in zip(outs, sc):
            solo = stage1.run_stage1(s.image, store, cfg, s.labels)
            a = count_forward(cfg, out.trace).total()
            b = count_forward(cfg, solo.trace).total()
            assert (a.macs, a.scalar_ops, a.comparisons) == (b.macs, b.scalar_ops, b.comparisons)

    def test_padded_batch_meters_the_solo_forwards(self, scene_spec):
        # oracle allocation on these scenes pads the batch by 80/12/0 rows;
        # no op runs on a padding row, so the batch meters the solo counts
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        sc = [scenes.generate_scene(s, scene_spec) for s in (51, 52, 53)]
        with flops.meter() as m:
            results = train.forward_batch([s.image for s in sc], [s.labels for s in sc], store, cfg)
        assert sum(len(fr.s1out.token_set.pad_levels) for fr in results) == 92
        solo = [count_forward(cfg, fr.s1out.trace).total() for fr in results]
        t = m.total()
        assert (t.macs, t.scalar_ops, t.comparisons) == tuple(
            sum(getattr(c, f) for c in solo) for f in ("macs", "scalar_ops", "comparisons")
        )
