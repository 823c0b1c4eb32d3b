"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The trained-model fixtures run the standard desk recipe once per session
(2,000 nano steps at batch 8, about a minute: 58.5 s on a 2-vCPU x86
machine with OpenBLAS at one thread) and are shared by the compute,
learnability, and trend criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from adaptok import boundary, clusterattn, config, evaluate, flops, geometry, params, scenes, stage1, stage2, train
from adaptok.stage1 import run_stage1, run_stage1_batch, select
from adaptok.tensor import GradTape, Tensor, backward

from conftest import grow_random_set

# desk training recipe: random-ratio allocation decouples scorer learning
# from its own selections (all rounds see data); evaluation is adaptive
RECIPE = dict(steps=2000, lr=3e-3, batch_size=8, allocator_weight=25.0, seed=0)
TRAIN_SCENES = 512
HELD_SCENES = 128
SCENE_SPEC = scenes.SceneSpec(uniform_fraction=0.25, noise=0.002)


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num:2d} {name}: PASS ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="session")
def train_corpus():
    return scenes.generate_corpus(7, TRAIN_SCENES, SCENE_SPEC)


@pytest.fixture(scope="session")
def held_corpus():
    return scenes.generate_corpus(1001, HELD_SCENES, SCENE_SPEC)


@pytest.fixture(scope="session")
def trained_nano(train_corpus):
    cfg = config.nano().with_overrides(policy="random_ratio", ratio_schedule=(0.5, 0.5, 0.5))
    store = params.init_params(cfg, seed=RECIPE["seed"])
    history = train.train(
        cfg,
        store,
        train_corpus,
        steps=RECIPE["steps"],
        lr=RECIPE["lr"],
        batch_size=RECIPE["batch_size"],
        seed=RECIPE["seed"],
        allocator_weight=RECIPE["allocator_weight"],
        log=None,
    )
    return cfg, store, history


def dense_eval_scores(store, cfg, corpus):
    """Score/target pairs for every token of every round under the dense
    policy (the full candidate population)."""
    dcfg = cfg.with_overrides(policy="dense")
    scores, targets = [], []
    for i, sc in enumerate(corpus):
        out = run_stage1(sc.image, store, dcfg, sc.labels, batch_index=i)
        for rec in out.trace.rounds:
            if rec.candidate_count:
                scores.append(rec.scores)
                targets.append(rec.targets)
    return np.concatenate(scores), np.concatenate(targets)


def test_criterion_1_selection_oracle(rng):
    with criterion(1, "Eq-1 selection oracle equivalence"):
        t0 = time.time()
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            scores = rng.random(n)
            tau = float(rng.uniform(1e-4, 0.99))
            idx, k = select(scores, tau)
            brute = [i for i in range(n) if scores[i] > tau]
            assert k == len(brute)
            assert idx.tolist() == brute
        assert time.time() - t0 < 1.0


def test_criterion_2_boundary_oracle(rng):
    with criterion(2, "boundary map + target score oracles"):
        t0 = time.time()

        def brute(labels, connectivity):
            h, w = labels.shape
            offs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
            if connectivity == 8:
                offs += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
            out = np.zeros((h, w), dtype=np.uint8)
            for y in range(h):
                for x in range(w):
                    if labels[y, x] == boundary.IGNORE:
                        continue
                    for dy, dx in offs:
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] != boundary.IGNORE and labels[ny, nx] != labels[y, x]:
                            out[y, x] = 1
                            break
            return out

        for trial in range(500):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            lab = rng.integers(0, 5, size=(h, w)).astype(np.int64)
            if trial % 3 == 0:
                lab[rng.random((h, w)) < 0.15] = boundary.IGNORE
            conn = 4 if trial % 2 == 0 else 8
            assert np.array_equal(boundary.boundary_map(lab, conn), brute(lab, conn))
        # exact target scores vs naive counting
        for _ in range(50):
            bmap = (rng.random((64, 64)) < 0.25).astype(np.uint8)
            keys = []
            for lvl in range(4):
                side = 32 >> lvl
                keys.append(geometry.TokenKey(lvl, int(rng.integers(0, 64 // side)), int(rng.integers(0, 64 // side))))
            got = boundary.target_scores(bmap, keys)
            for k, s in zip(keys, got):
                y0, x0, y1, x1 = k.rect()
                naive = sum(int(bmap[y, x]) for y in range(y0, y1) for x in range(x0, x1))
                assert s == naive / ((y1 - y0) * (x1 - x0))
        assert time.time() - t0 < 5.0


def test_criterion_3_quadtree_invariants(rng):
    with criterion(3, "quadtree tiling, siblings, finest cover"):
        t0 = time.time()
        for trial in range(200):
            s, selections = grow_random_set(64, 64, float(rng.uniform(0.15, 1.0)), rng)
            counts = s.counts_per_level()
            for lvl, sel in enumerate(selections, start=1):
                assert counts[lvl] == 4 * len(sel)
                child_cover = np.zeros((64, 64), dtype=np.int32)
                parent_cover = np.zeros((64, 64), dtype=bool)
                for k in s.keys:
                    if k.level == lvl:
                        y0, x0, y1, x1 = k.rect()
                        child_cover[y0:y1, x0:x1] += 1
                for p in sel:
                    y0, x0, y1, x1 = p.rect()
                    parent_cover[y0:y1, x0:x1] = True
                assert child_cover.max() <= 1  # no same-level overlap
                assert np.array_equal(child_cover > 0, parent_cover)
            got = geometry.finest_cover(s)[0]
            # independent scan: per-level presence maps, deepest level wins
            level_maps = np.full((4, 64, 64), -1, dtype=np.int64)
            for i, k in enumerate(s.keys):
                y0, x0, y1, x1 = k.rect()
                level_maps[k.level, y0:y1, x0:x1] = i
            expect = level_maps[0].copy()
            for lvl in (1, 2, 3):
                expect = np.where(level_maps[lvl] >= 0, level_maps[lvl], expect)
            assert np.array_equal(got, expect)
            if trial < 3:  # exhaustive python scan on a few traces
                for y in range(0, 64, 7):
                    for x in range(0, 64, 7):
                        best, best_level = -1, -1
                        for i, k in enumerate(s.keys):
                            y0, x0, y1, x1 = k.rect()
                            if y0 <= y < y1 and x0 <= x < x1 and k.level > best_level:
                                best, best_level = i, k.level
                        assert got[y, x] == best
        assert time.time() - t0 < 10.0


def test_criterion_4_gradient_correctness(rng):
    with criterion(4, "full-forward gradients vs finite differences"):
        t0 = time.time()
        cfg = config.nano()
        store = params.init_params(cfg, seed=3)
        sc = scenes.generate_scene(99, SCENE_SPEC)
        assert len(np.unique(sc.labels)) > 1

        def loss_value():
            fr = train.forward_full(sc.image, store, cfg, sc.labels)
            total, _ = train.sample_loss(fr, allocator_weight=1.0)
            return total

        with GradTape() as tape:
            loss = loss_value()
        grads = backward(loss, tape, params=store.items())
        names = sorted(store.names())
        checked = 0
        failures = []
        h = 1e-5
        k = 0
        while checked < 200:
            name = names[int(rng.integers(len(names)))]
            t = store[name]
            idx = np.unravel_index(int(rng.integers(t.data.size)), t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            up = float(loss_value().data)
            t.data[idx] = orig - h
            down = float(loss_value().data)
            t.data[idx] = orig
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            err = abs(an - fd)
            tol = max(1e-4 * max(abs(an), abs(fd)), 1e-8)
            if err > tol:
                failures.append((name, idx, an, fd))
            checked += 1
            k += 1
        assert not failures, failures[:5]
        assert time.time() - t0 < 300.0


def test_criterion_5_padding_neutrality(rng):
    with criterion(5, "solo vs padded-batch equivalence"):
        t0 = time.time()
        cfg = config.nano()
        store = params.init_params(cfg, seed=1)
        seeds = iter(range(3000, 4000))
        for trial in range(50):
            batch = [scenes.generate_scene(next(seeds), SCENE_SPEC) for _ in range(2 + trial % 2)]
            outs = run_stage1_batch([s.image for s in batch], store, cfg, [s.labels for s in batch])
            rows = {o.token_set.n_rows for o in outs}
            assert len(rows) == 1
            for out, sc in zip(outs, batch):
                solo = run_stage1(sc.image, store, cfg, sc.labels)
                n = solo.token_set.n_valid
                assert out.token_set.keys == solo.token_set.keys
                assert np.max(np.abs(out.feats.data[:n] - solo.feats.data)) <= 1e-12
                # downstream outputs agree too
                s2_batch = stage2.run_stage2(out, store, cfg)
                s2_solo = stage2.run_stage2(solo, store, cfg)
                for lvl in range(4):
                    nv = len(s2_solo.emitted[lvl].keys)
                    assert np.max(np.abs(s2_batch.emitted[lvl].feats.data[:nv] - s2_solo.emitted[lvl].feats.data)) <= 1e-12 if nv else True
            # perturbing padded rows changes nothing valid
            out = outs[0]
            n_pad = len(out.token_set.pad_levels)
            if n_pad:
                perturbed = out.feats.data.copy()
                perturbed[out.token_set.n_valid :] += 13.0
                pout = stage1.Stage1Output(
                    token_set=out.token_set,
                    feats=Tensor(perturbed),
                    trace=out.trace,
                    laterals=out.laterals,
                    score_tensors=out.score_tensors,
                )
                a = stage2.run_stage2(out, store, cfg)
                b = stage2.run_stage2(pout, store, cfg)
                for lvl in range(4):
                    nv = len(a.emitted[lvl].keys)
                    if nv:
                        assert np.array_equal(a.emitted[lvl].feats.data[:nv], b.emitted[lvl].feats.data[:nv])
        assert time.time() - t0 < 60.0


def test_criterion_6_cluster_attention_limits(rng):
    with criterion(6, "global-attention limit + bitwise locality"):
        t0 = time.time()
        for trial in range(100):
            s, _ = grow_random_set(64, 64, float(rng.uniform(0.2, 1.0)), rng)
            d = int(rng.choice([8, 16, 32]))
            heads = max(d // 32, 1)
            specs = []
            params._block(specs, int(rng.integers(10_000)), "blk", d, key_scale=True)
            store = params.ParamStore(specs)
            x = rng.standard_normal((s.n_valid, d))
            if trial % 2 == 0:
                # limit: one cluster covering everything == global attention
                store["blk.key_scale"].data[:] = 0.0
                big = clusterattn.cluster(s, s.n_valid + int(rng.integers(1, 50)))
                a = clusterattn.cluster_attention_block(Tensor(x), s, big, store, "blk", heads)
                b = clusterattn.vit_block(Tensor(x), store, "blk", heads)
                assert np.max(np.abs(a.data - b.data)) <= 1e-12
            else:
                asg = clusterattn.cluster(s, 8)
                if asg.n_clusters < 3:
                    continue
                out = clusterattn.cluster_attention_block(Tensor(x), s, asg, store, "blk", heads)
                row = int(rng.integers(s.n_valid))
                nb = set(asg.neighborhood(asg.cluster_of(row)).tolist())
                outside = [i for i in range(s.n_valid) if i not in nb]
                if not outside:
                    continue
                x2 = x.copy()
                x2[outside[int(rng.integers(len(outside)))]] += rng.standard_normal(d) * 5
                out2 = clusterattn.cluster_attention_block(Tensor(x2), s, asg, store, "blk", heads)
                assert np.array_equal(out.data[row], out2.data[row])
        assert time.time() - t0 < 60.0


def test_criterion_7_flops_accounting(trained_nano, held_corpus, rng):
    with criterion(7, "analytic FLOPs == instrumented; adaptive < dense"):
        t0 = time.time()
        cfg, store, _ = trained_nano
        acfg = cfg.with_overrides(policy="adaptive")
        dcfg = cfg.with_overrides(policy="dense")
        # exact counter/executor agreement on fresh random scenes
        for i in range(8):
            sc = scenes.generate_scene(5000 + i, SCENE_SPEC)
            pcfg = (acfg, dcfg, cfg)[i % 3]
            with flops.meter() as m:
                fr = train.forward_full(sc.image, store, pcfg, sc.labels, batch_index=i)
            metered = m.total()
            analytic = flops.count_forward(pcfg, fr.s1out.trace).total()
            assert (analytic.macs, analytic.scalar_ops, analytic.comparisons) == (
                metered.macs,
                metered.scalar_ops,
                metered.comparisons,
            )
        corpus = held_corpus[:48]
        assert any(len(np.unique(sc.labels)) == 1 for sc in corpus)
        dense_totals, adaptive_totals = [], []
        for i, sc in enumerate(corpus):
            with flops.meter() as m:
                train.forward_full(sc.image, store, dcfg, sc.labels, batch_index=i)
            dense_totals.append(m.total().flops)
            with flops.meter() as m:
                train.forward_full(sc.image, store, acfg, sc.labels, batch_index=i)
            adaptive_totals.append(m.total().flops)
        d_mean, d_std = flops.corpus_stats(dense_totals)
        a_mean, a_std = flops.corpus_stats(adaptive_totals)
        assert d_std == 0.0
        assert a_mean < d_mean
        assert a_std > 0.0  # content-dependent budget
        print(f"\n  flops: adaptive {a_mean:.3e} ± {a_std:.2e}  vs dense {d_mean:.3e} ± {d_std:.1e}")
        assert time.time() - t0 < 60.0


def test_criterion_8_allocator_learnability(trained_nano, held_corpus):
    with criterion(8, "allocator MSE drop, AUC, zero-waste on uniform"):
        cfg, store, history = trained_nano
        init_store = params.init_params(cfg, seed=RECIPE["seed"])
        s0, t0_ = dense_eval_scores(init_store, cfg, held_corpus)
        initial_mse = boundary.allocator_loss(s0, t0_)
        s1_, t1_ = dense_eval_scores(store, cfg, held_corpus)
        final_mse = boundary.allocator_loss(s1_, t1_)
        ratio = final_mse / initial_mse
        auc = train.ranking_auc(s1_, t1_ > 0)
        acfg = cfg.with_overrides(policy="adaptive", thresholds=(0.005, 0.01, 0.02))
        uniform_extras = []
        for i, sc in enumerate(held_corpus):
            if len(np.unique(sc.labels)) != 1:
                continue
            out = run_stage1(sc.image, store, acfg, sc.labels, batch_index=i)
            counts = out.token_set.counts_per_level()
            uniform_extras.append(sum(counts[1:]))
        print(
            f"\n  allocator MSE {initial_mse:.6f} -> {final_mse:.6f} (ratio {ratio:.4f}); "
            f"AUC {auc:.4f}; uniform scenes {len(uniform_extras)}, extra tokens {sorted(set(uniform_extras))}"
        )
        assert ratio < 0.1
        assert auc > 0.9
        assert uniform_extras and all(e == 0 for e in uniform_extras)


def test_criterion_9_accuracy_compute_trend(trained_nano, held_corpus):
    with criterion(9, "mIoU within a point of dense at lower compute"):
        cfg, store, _ = trained_nano
        acfg = cfg.with_overrides(policy="adaptive")
        dcfg = cfg.with_overrides(policy="dense")
        man_a = evaluate.evaluate(acfg, store, held_corpus, seed=0)
        man_d = evaluate.evaluate(dcfg, store, held_corpus, seed=0)
        miou_a = man_a["metrics"]["miou"]
        miou_d = man_d["metrics"]["miou"]
        fl_a = man_a["metrics"]["flops_mean"]
        fl_d = man_d["metrics"]["flops_mean"]
        print(
            f"\n  adaptive mIoU {miou_a:.4f} @ {fl_a:.3e} FLOPs  vs  dense {miou_d:.4f} @ {fl_d:.3e}"
        )
        assert miou_a >= miou_d - 0.01  # within 1.0 mIoU points
        assert fl_a < fl_d


def test_criterion_10_determinism(trained_nano, held_corpus, tmp_path):
    with criterion(10, "byte-identical manifests and overlays"):
        cfg, store, _ = trained_nano
        acfg = cfg.with_overrides(policy="adaptive")
        corp = held_corpus[:12]
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            evaluate.evaluate(acfg, store, corp, seed=5, out_dir=str(d), n_overlays=4, n_feature_dumps=1)
        import os

        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert "manifest.json" in names
        assert any(n.startswith("overlay_") for n in names)
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
