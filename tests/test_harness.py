import collections
import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from adaptok import cli, config, evaluate, flops, params, pnm, scenes, train
from adaptok.boundary import IGNORE, boundary_map
from adaptok.config import load_config
from adaptok.scenes import SceneSpec, generate_scene

from conftest import array_specs


def _edge_values(default):
    """Edge values for a field; a tuple field takes each as every item, and
    a list one item short."""
    values = [0, -1, math.nan, math.inf, 2.5, "64", True, None]
    if isinstance(default, tuple):
        return [[v] * len(default) for v in values] + [list(default[:-1])]
    return values


class TestSceneGeneration:
    def test_zero_regions_uniform(self):
        spec = SceneSpec(max_regions=0, uniform_fraction=0.0)
        sc = generate_scene(5, spec)
        assert len(np.unique(sc.labels)) == 1
        assert boundary_map(sc.labels).sum() == 0

    def test_min_region_below_1_rejected(self):
        # no flag sets it; a corpus descriptor can
        with pytest.raises(ValueError, match="scene spec min_region must lie in"):
            SceneSpec.from_json_dict({**SceneSpec().to_json_dict(), "min_region": 0})

    @pytest.mark.parametrize(
        "overrides, cause",
        [
            ({"n_classes": 0}, "n_classes must lie in [1, inf)"),
            ({"n_classes": 1}, "n_classes must be at least 2 when regions can be drawn"),
        ],
        ids=["no_class", "one_class_with_regions"],
    )
    def test_too_few_classes_rejected(self, overrides, cause):
        with pytest.raises(ValueError, match=re.escape(f"scene spec {cause}")):
            SceneSpec(**overrides)

    @pytest.mark.parametrize("overrides", [{"max_regions": 0}, {"uniform_fraction": 1.0}], ids=["no_regions", "all_uniform"])
    def test_one_class_without_regions_is_background(self, overrides):
        sc = generate_scene(5, SceneSpec(n_classes=1, **overrides))
        assert not sc.labels.any()

    def test_centered_square_perimeter_band(self):
        lab = np.zeros((64, 64), dtype=int)
        lab[24:40, 24:40] = 2
        bmap = boundary_map(lab, connectivity=4)
        # brute force the expected band
        expect = np.zeros_like(bmap)
        for y in range(64):
            for x in range(64):
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < 64 and 0 <= nx < 64 and lab[ny, nx] != lab[y, x]:
                        expect[y, x] = 1
                        break
        assert np.array_equal(bmap, expect)
        # inner band 4s-4, outer band 4s (diagonal corners untouched in 4-conn)
        assert bmap.sum() == (4 * 16 - 4) + 4 * 16

    def test_determinism(self, scene_spec):
        a = generate_scene(77, scene_spec)
        b = generate_scene(77, scene_spec)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)

    def test_corpus_descriptor_roundtrip(self, scene_spec, tmp_path):
        desc = scenes.corpus_descriptor(3, 4, scene_spec)
        sc1 = scenes.corpus_from_descriptor(desc)
        sc2 = scenes.corpus_from_descriptor(json.loads(json.dumps(desc)))
        for a, b in zip(sc1, sc2):
            assert np.array_equal(a.image, b.image)

    def test_save_load_corpus_dir(self, tmp_path, scene_spec):
        sc = scenes.generate_corpus(1, 3, scene_spec)
        scenes.save_corpus(tmp_path, sc, scenes.corpus_descriptor(1, 3, scene_spec))
        back = scenes.load_corpus_dir(tmp_path, (64, 64))
        assert len(back) == 3
        for a, b in zip(sc, back):
            assert np.array_equal(a.labels, b.labels)
            assert np.max(np.abs(a.image - b.image)) < 1 / 255 + 1e-9

    # SHA-256 of corpus 0's images and labels (raw float64 / int64 bytes,
    # scene after scene); the 96x128 spec's regions clip at every edge
    CORPUS_DIGESTS = {
        "default": (
            SceneSpec(),
            8,
            "bfca39857d9c3926ef462b203d727cab871260136c300f00ef94782e92efc074",
            "ecd19bbee5895540b1f4f3fc174dc0a6c66e10572bdbaf23a682713daa957a22",
        ),
        "max_regions_8": (
            SceneSpec(max_regions=8),
            16,
            "721ba966bb942342980e62aa7a145a1e3ac28a9a5f459ae36a6516fc643abc7a",
            "8bd854a00637f0aec7b81c071e1ecc67f9b4425c7cad51cca3ee816ba7bbb785",
        ),
        "no_noise": (
            SceneSpec(noise=0.0),
            8,
            "1fe719f729ccea7dd46dd12188333ce9938c8fc24e9f5d9f8be72d053de91ba2",
            "ecd19bbee5895540b1f4f3fc174dc0a6c66e10572bdbaf23a682713daa957a22",
        ),
        "all_uniform": (
            SceneSpec(uniform_fraction=1.0),
            8,
            "fd787e5a05104a471655966636e38ccc13ad853f612f86eb6e075fe1a9a2493e",
            "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
        ),
        "256": (
            SceneSpec(height=256, width=256),
            1,
            "f14ef8ffb2d396fc40d0036c83e2d747bf35c457fd0e1ff87a8233549d844277",
            "23852e0edbd837814287af87fcb8771bdcb6bbe0c94613eae0f94c698a697da2",
        ),
        "clipped_96x128": (
            SceneSpec(height=96, width=128, min_region=3, max_regions=12),
            16,
            "9206e760d05f5c55fbc213b56143863df44ae930a46403a6babcc05ca5ccdffb",
            "77df74bd809f14fc00e2e617342b35b697422157c523893ef55384c996bf2f5b",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CORPUS_DIGESTS))
    def test_corpus_bytes_pinned(self, case):
        spec, count, image_digest, label_digest = self.CORPUS_DIGESTS[case]
        images, labels = hashlib.sha256(), hashlib.sha256()
        for sc in scenes.generate_corpus(0, count, spec):
            assert sc.image.dtype == np.float64 and sc.labels.dtype == np.int64
            images.update(np.ascontiguousarray(sc.image).tobytes())
            labels.update(np.ascontiguousarray(sc.labels).tobytes())
        assert (images.hexdigest(), labels.hexdigest()) == (image_digest, label_digest)

    def test_transient_within_one_frame(self):
        # above the image and labels it returns, a scene allocates its noise
        # draw (one image frame) and no other full-frame array
        spec = SceneSpec(max_regions=8)
        frame = spec.height * spec.width * 3 * 8
        worst = 0
        tracemalloc.start()
        try:
            for i in range(64):
                seed = scenes.scene_seed(0, i)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sc = generate_scene(seed, spec)
                extra = tracemalloc.get_traced_memory()[1] - base - sc.image.nbytes - sc.labels.nbytes
                worst = max(worst, extra)
                del sc
        finally:
            tracemalloc.stop()
        assert worst <= frame + 16 * 1024, f"{worst / 1024:.1f} KB above the kept arrays"

    def test_ragged_pairs_padded_on_load(self, tmp_path, rng):
        from adaptok.boundary import IGNORE, boundary_map

        img = rng.random((50, 70, 3))
        lab = np.ones((50, 70), dtype=np.uint16)
        pnm.write_ppm8(tmp_path / "scene_00000.ppm", img)
        pnm.write_pgm16(tmp_path / "scene_00000.pgm", lab)
        (sc,) = scenes.load_corpus_dir(tmp_path, (64, 96))
        assert sc.image.shape == (64, 96, 3)
        assert sc.labels.shape == (64, 96)
        assert np.all(sc.labels[50:] == IGNORE)
        assert np.all(sc.image[50:] == 0)
        # the ignore padding never induces boundary pixels
        assert boundary_map(sc.labels).sum() == 0


class TestConfig:
    def test_roundtrip(self, nano_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        config.save_config(path, nano_cfg)
        back = load_config(str(path))
        assert back == nano_cfg
        assert back.digest() == nano_cfg.digest()

    def test_equal_configs_share_a_digest(self, tmp_path):
        # an int given for a number field is written as a float: an override,
        # a JSON config and the CLI's --tau each give the one digest
        nano = config.nano()
        assert nano.with_overrides(oracle_rate=1).digest() == nano.with_overrides(oracle_rate=1.0).digest()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**nano.to_json_dict(), "thresholds": [1, 1, 1]}))
        from_json = load_config(str(path))
        from_tau = cli._load_cfg(cli.build_parser().parse_args(["eval", "--tau", "1,1,1"]))
        assert from_json == from_tau and from_json.digest() == from_tau.digest()
        assert json.dumps(from_json.to_json_dict()["thresholds"]) == "[1.0, 1.0, 1.0]"

    def test_presets_valid(self):
        for name in ("nano", "tiny", "small", "base"):
            cfg = load_config(name)
            assert cfg.stage1_blocks[3] == 0
            assert cfg.stage2_dims == tuple(reversed(cfg.stage1_dims))

    def test_thresholds_default_match_protocol(self, nano_cfg):
        assert nano_cfg.thresholds == (0.005, 0.01, 0.02)
        assert config.ROUNDS == 3
        assert len(nano_cfg.thresholds) == config.ROUNDS

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            config.nano().with_overrides(stage1_dims=(64, 32, 16, 4))
        with pytest.raises(ValueError):
            config.nano().with_overrides(thresholds=(0.0, 0.01, 0.02))
        with pytest.raises(ValueError):
            config.nano().with_overrides(policy="always")
        with pytest.raises(ValueError):
            config.nano(h=50)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_classes", 0),
            ("stage1_blocks", (1, -1, 1, 0)),
            ("stage2_blocks", (1, 1, -2, 1)),
            ("stage1_dims", (0, 0, 0, 0)),
            ("thresholds", (math.nan, 0.01, 0.02)),
            ("thresholds", (0.005, -0.01, 0.02)),
        ],
        ids=["n_classes_0", "stage1_blocks_negative", "stage2_blocks_negative", "stage1_dims_0", "thresholds_nan", "thresholds_negative"],
    )
    def test_bad_field_named(self, field, value):
        overrides = {field: value}
        if field == "stage1_dims":
            overrides["stage2_dims"] = value
        with pytest.raises(ValueError, match=f"^{field} must"):
            config.nano().with_overrides(**overrides)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            pytest.param(cls, f.name, v, id=f"{cls.__name__}-{f.name}-{v!r}")
            for cls in (config.EncoderConfig, SceneSpec)
            for f in dataclasses.fields(cls)
            for v in _edge_values(getattr(config.nano() if cls is config.EncoderConfig else SceneSpec(), f.name))
        ],
    )
    def test_every_field_runs_or_names_itself(self, cls, field, value):
        # through the JSON path, so a tuple field's value arrives as a list
        cfg, spec = config.nano(), SceneSpec()
        try:
            if cls is SceneSpec:
                spec = SceneSpec.from_json_dict({**spec.to_json_dict(), field: value})
            else:
                cfg = config.EncoderConfig.from_json_dict({**cfg.to_json_dict(), field: value})
        except ValueError as exc:
            message = str(exc)
            prefix = "scene spec " if cls is SceneSpec else ""
            assert message.startswith(f"{prefix}{field} must"), message
            others = [f.name for f in dataclasses.fields(cls) if f.name != field]
            assert not any(re.search(rf"\b{o}\b", message) for o in others), message
            return
        manifest = evaluate.evaluate(cfg, params.init_params(cfg, seed=0), [generate_scene(5, spec)], seed=0)
        assert manifest["dataset"]["count"] == 1

    def test_infinite_threshold_splits_nothing(self, scene_spec):
        cfg = config.nano().with_overrides(thresholds=(math.inf, math.inf, math.inf))
        sc = generate_scene(5, scene_spec)
        fr = train.forward_full(sc.image, params.init_params(cfg, seed=0), cfg)
        assert fr.s1out.trace.tokens_per_level(cfg.coarse_tokens)[1:] == [0, 0, 0]


class TestAdam:
    def test_converges_on_quadratic(self):
        store = params.ParamStore(array_specs({"w": np.array([5.0, -3.0])}))
        opt = train.Adam(store, lr=0.1)
        for _ in range(200):
            opt.step(2 * store.flat)
        assert np.max(np.abs(store["w"].data)) < 1e-3

    def test_lr_zero_keeps_loss_constant(self, nano_cfg, scene_spec):
        store = params.init_params(nano_cfg, seed=0)
        # batch == corpus so every step sees the same samples
        corpus = scenes.generate_corpus(5, 2, scene_spec)
        hist = train.train(nano_cfg, store, corpus, steps=3, lr=0.0, batch_size=2, seed=0, log=None)
        losses = [h["loss"] for h in hist]
        assert max(losses) - min(losses) < 1e-12


class TestParamArena:
    def test_every_parameter_is_a_view_of_the_arena(self, nano_cfg, tmp_path):
        path = tmp_path / "params.bin"
        params.save_params(path, params.init_params(nano_cfg, seed=0), nano_cfg)
        specs = array_specs({"w": np.array([5.0, -3.0])})
        params._linear(specs, 0, "fuse", 4, 2)
        for store in (params.init_params(nano_cfg, seed=0), params.load_params(path, nano_cfg), params.ParamStore(specs)):
            assert store.flat.size == sum(t.data.size for _, t in store.items())
            for name, t in store.items():
                assert np.shares_memory(t.data, store.flat), name
                assert t.data.flags.c_contiguous and t.data.flags.writeable
            name = store.names()[-1]
            before = store.flat.copy()
            store[name].data[(0,) * store[name].data.ndim] += 1.0
            assert np.flatnonzero(store.flat != before).tolist() == [store.flat.size - store[name].data.size]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter w"):
            params.ParamStore(array_specs({"w": np.zeros(2)}) + [("w", (1,), None)])


def _param_digest(store) -> str:
    h = hashlib.sha256()
    for name in sorted(store.names()):
        h.update(store[name].data.tobytes())
    return h.hexdigest()


class TestRngFor:
    def test_draws_pinned(self):
        # the seed words are read little-endian, so every host draws these
        assert params.rng_for(0, "x").integers(0, 2**32, size=4).tolist() == [4033195167, 3995429725, 4178030657, 2380386566]
        assert params.rng_for(0, "x").standard_normal(2).tolist() == [0.7753760077983348, 0.4787334768960535]
        assert params.rng_for(7, "ratio", 3, 1, 2).random() == 0.3984335454470407


class TestTrainingPinned:
    # SHA-256 of the final parameters after 12 nano steps at batch 4 (by
    # sorted name, raw float64 bytes). oracle_mix 0.5 leaves the allocation
    # rounds' scorer and child parameters off the tape on oracle batches;
    # their gradient there is zero, not the last step's.
    DIGESTS = {
        "random_ratio": "24e078f5469673d0d69ce0dcbd66d5cee97dae7398498eea21a523e7ba1e074d",
        "oracle_mix": "a01b646d822805b6b41c5482d5d52969356629f7536daf882410bd579141eab4",
        "dense": "ab68c5146018c2ef4d660e1f65cfb4a95763aaf24d1261cf5b728e1495d5e90e",
    }

    @pytest.mark.parametrize("policy", sorted(DIGESTS))
    def test_final_parameters_bit_identical(self, policy):
        extra = {"oracle_rate": 0.5} if policy == "oracle_mix" else {}
        cfg = config.nano().with_overrides(policy=policy, **extra)
        store = params.init_params(cfg, seed=0)
        corpus = scenes.generate_corpus(0, 8, SceneSpec())
        train.train(cfg, store, corpus, steps=12, batch_size=4, seed=0, log=None)
        assert _param_digest(store) == self.DIGESTS[policy]

    def test_non_finite_gradient_stops_before_any_update(self, nano_cfg, scene_spec, monkeypatch):
        store = params.init_params(nano_cfg, seed=0)
        corpus = scenes.generate_corpus(5, 2, scene_spec)
        backward = train.tensor.backward

        def poisoned(loss, tape, params=None):
            grads = backward(loss, tape, params=params)
            grads["s2.r3.blk0.q.w"][1, 2] = np.nan
            return grads

        monkeypatch.setattr(train.tensor, "backward", poisoned)
        before = store.flat.copy()
        with pytest.raises(RuntimeError, match=r"training diverged at step 0: non-finite gradient in s2\.r3\.blk0\.q\.w$"):
            train.train(nano_cfg, store, corpus, steps=2, batch_size=2, seed=0, log=None)
        assert np.array_equal(store.flat, before)


    @pytest.mark.parametrize("bad", ["image", "labels"])
    def test_mis_shaped_scene_rejected_before_step_0(self, nano_cfg, scene_spec, bad):
        store = params.init_params(nano_cfg, seed=0)
        corpus = scenes.generate_corpus(5, 4, scene_spec)
        sc = corpus[2]
        corpus[2] = dataclasses.replace(sc, **{bad: getattr(sc, bad)[:32]})
        before = store.flat.copy()
        with pytest.raises(ValueError, match=r"^corpus scene 2: "):
            train.train(nano_cfg, store, corpus, steps=2, batch_size=2, seed=0, log=None)
        assert np.array_equal(store.flat, before)


def spy_forwards(monkeypatch):
    """Wrap `train.forward_batch` so that each call first checks that no
    earlier call's BatchForward is still alive (the graph, its loss and
    gradients hang off it); returns the list of weak references."""
    forward_batch, refs = train.forward_batch, []

    def spy(*args, **kwargs):
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"forward {len(refs)} starts with forwards {alive} alive"
        out = forward_batch(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(train, "forward_batch", spy)
    return refs


@pytest.fixture
def no_gc():
    # lifetimes end by reference count alone: no cycle waits for the collector
    gc.disable()
    yield
    gc.enable()


class TestStepTape:
    def test_batch8_nano_step_composition(self, monkeypatch):
        # nodes per kind (the op that recorded each, from its vjp) of one
        # README-recipe step; each MLP is one node with its residual, and each
        # residual or key-scale add is folded into its projection
        kinds = []
        backward = train.tensor.backward

        def counting(loss, tape, params=None):
            kinds.append(collections.Counter(node._vjp.__qualname__.split(".")[0] for node in tape.nodes))
            return backward(loss, tape, params=params)

        monkeypatch.setattr(train.tensor, "backward", counting)
        cfg = config.nano().with_overrides(policy="random_ratio")
        corpus = scenes.generate_corpus(0, 16, SceneSpec())
        train.train(cfg, params.init_params(cfg, 0), corpus, steps=1, batch_size=8, seed=0, log=None)
        assert kinds == [
            {
                "add": 8,
                "concat": 9,
                "gather_rows": 31,
                "layer_norm": 16,
                "linear": 49,
                "mlp": 14,
                "mse": 1,
                "scale": 2,
                "sigmoid": 3,
                "softmax_cross_entropy": 1,
                "sum_all": 1,
                "window_attention": 8,
            }
        ]
        assert sum(kinds[0].values()) == 143


class TestStepLifetimes:
    def test_step_graph_dead_when_next_forward_starts(self, nano_cfg, scene_spec, monkeypatch, no_gc):
        store = params.init_params(nano_cfg, seed=0)
        refs = spy_forwards(monkeypatch)
        train.train(nano_cfg, store, scenes.generate_corpus(5, 4, scene_spec), steps=3, batch_size=2, seed=0, log=None)
        assert len(refs) == 3 and refs[-1]() is None

    def test_live_peak_flat_across_steps(self, scene_spec):
        # a batch-8 step's live peak is its own graph and backward: step 1's
        # peak already includes every first-use allocation, so a later step
        # that still held its predecessor's graph would read megabytes more
        cfg = config.nano().with_overrides(policy="random_ratio")
        store = params.init_params(cfg, seed=0)
        corpus = scenes.generate_corpus(9, 16, scene_spec)
        peaks = []

        def log(_line):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            train.train(cfg, store, corpus, steps=6, batch_size=8, seed=0, log_every=1, log=log)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks[1:]) - peaks[0] <= 0.5e6, [round(p / 1e6, 2) for p in peaks]

    def test_no_parameter_gradient_outlives_its_step(self, nano_cfg, scene_spec):
        # each parameter's .grad is a view of the step's flat gradient
        # buffer: one left behind pins an arena-sized array for the store's life
        store = params.init_params(nano_cfg, seed=0)
        train.train(nano_cfg, store, scenes.generate_corpus(5, 2, scene_spec), steps=1, batch_size=2, seed=0, log=None)
        held = [name for name, t in store.items() if t.grad is not None]
        assert not held, f"{len(held)} parameters hold a .grad, e.g. {held[:3]}"


class TestRankingAuc:
    def test_perfect_separation(self):
        assert train.ranking_auc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_random_is_half(self, rng):
        scores = rng.random(4000)
        labels = rng.random(4000) < 0.5
        assert abs(train.ranking_auc(scores, labels) - 0.5) < 0.05

    def test_ties_give_half_credit(self):
        assert train.ranking_auc([0.5, 0.5], [True, False]) == 0.5

    def test_matches_tie_loop(self, rng):
        def loop_auc(scores, positives):
            # the per-group while loop the vectorised ranks replace
            scores, positives = np.asarray(scores, dtype=np.float64), np.asarray(positives, dtype=bool)
            order = np.argsort(scores, kind="mergesort")
            ranks = np.empty(scores.size)
            sorted_scores = scores[order]
            i = 0
            while i < scores.size:
                j = i
                while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            n_pos = int(positives.sum())
            u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
            return float(u / (n_pos * (positives.size - n_pos)))

        for n, levels in ((2, 1), (7, 2), (500, 5), (3000, 40), (3000, 3000)):
            scores = rng.integers(0, levels, n) / levels
            labels = rng.random(n) < 0.4
            labels[:2] = [True, False]
            assert train.ranking_auc(scores, labels) == loop_auc(scores, labels)


class TestOverlays:
    def test_overlay_fidelity(self, nano_cfg, nano_store, scene_spec, tmp_path):
        sc = generate_scene(80, scene_spec)
        fr = train.forward_full(sc.image, nano_store, nano_cfg, sc.labels)
        masks = evaluate.overlay_masks(fr.s1out.trace, 64, 64)
        for rec, mask in zip(fr.s1out.trace.rounds, masks):
            expect = np.zeros((64, 64, 3), dtype=np.uint8)
            for k in rec.selected:
                y0, x0, y1, x1 = k.rect()
                expect[y0:y1, x0:x1] = 255
            assert np.array_equal(mask, expect)
            path = tmp_path / "m.ppm"
            pnm.write_ppm8(path, mask)
            assert np.array_equal(pnm.read_ppm8(path), expect)

    def test_uniform_scene_with_calibrated_scorer_black_masks(self, nano_cfg, scene_spec):
        store = params.init_params(nano_cfg, seed=0)
        # a scorer that never fires stands in for a trained one here
        for r in (1, 2, 3):
            store[f"s1.r{r}.score2.b"].data[:] = -12.0
        sc = generate_scene(81, SceneSpec(max_regions=0, uniform_fraction=1.0))
        fr = train.forward_full(sc.image, store, nano_cfg, sc.labels)
        for mask in evaluate.overlay_masks(fr.s1out.trace, 64, 64):
            assert mask.sum() == 0


class TestEvaluate:
    def test_manifest_deterministic_bytes(self, nano_cfg, nano_store, scene_spec, tmp_path):
        sc = scenes.generate_corpus(9, 4, scene_spec)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            evaluate.evaluate(nano_cfg, nano_store, sc, seed=3, out_dir=str(out), n_overlays=2)
        b1 = (out1 / "manifest.json").read_bytes()
        b2 = (out2 / "manifest.json").read_bytes()
        assert b1 == b2
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_golden_manifest(self, scene_spec, tmp_path):
        # pinned outputs of a fixed oracle-allocation run: a refactor that
        # keeps the engine's behaviour keeps every one of these values
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=0)
        man = evaluate.evaluate(
            cfg, store, scenes.generate_corpus(7, 16, scene_spec), seed=7, out_dir=str(tmp_path), n_overlays=2
        )
        m = man["metrics"]
        assert (m["flops_mean"], m["flops_std"], m["comparisons_mean"]) == (5385474.75, 1486843.811, 5575.75)
        assert m["tokens_per_level_mean"] == [4.0, 8.75, 22.5, 55.5]
        assert m["tokens_per_level_hist"] == {
            "0": {"4": 16},
            "1": {"0": 3, "4": 2, "8": 3, "12": 5, "16": 3},
            "2": {"0": 3, "8": 2, "16": 1, "24": 1, "28": 2, "32": 4, "36": 1, "40": 1, "44": 1},
            "3": {"0": 3, "16": 1, "24": 1, "40": 1, "44": 1, "64": 1, "72": 3, "76": 1, "80": 1, "104": 1, "112": 2},
        }
        floats = {
            "allocator_mse": 0.0171911079,
            "boundary_token_auc": 0.472104,
            "miou": 0.006529579287023888,
            "pixel_acc": 0.0205078125,
            "per_class_iou": [0.010854, 0.0, 0.013037, 0.0, 0.015287, 0.0],
            "per_class_pixel_acc": [0.010913, 0.0, 0.708333, 0.0, 0.162162, 0.0],
        }
        for name, want in floats.items():
            assert np.allclose(m[name], want, rtol=0, atol=1e-9), name
        digests = {
            "overlay_0000_round1.ppm": "ec84457e8d02885a383fb564de1f48090d1472d7aecfd3a07c50341cddc1d68e",
            "overlay_0000_round2.ppm": "f71dcc2b6df3fbf507b2f3eeb6b8c4669164d536c4b567bd896195c3deefb185",
            "overlay_0000_round3.ppm": "fda19762eee8be0f5138c775a605f926332f0fc9f21ac87cfbccdd9cd7fefa43",
            "overlay_0001_round1.ppm": "a62eca617c35d85e929492c13bee05774e97d86e0c9130db4386bd57de302260",
            "overlay_0001_round2.ppm": "a62eca617c35d85e929492c13bee05774e97d86e0c9130db4386bd57de302260",
            "overlay_0001_round3.ppm": "c222c12520c84359cd48a62b4005ad52ae8a8578235983ba174c48c4c5140206",
        }
        assert man["overlays"] == sorted(digests)
        for name, want in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    @pytest.mark.parametrize(
        "overrides",
        [{"policy": "adaptive"}, {"policy": "random_ratio"}, {"policy": "oracle_mix", "oracle_rate": 0.5}],
        ids=["adaptive", "random_ratio", "oracle_mix_0.5"],
    )
    def test_batch_composition_changes_no_output(self, scene_spec, tmp_path, monkeypatch, overrides):
        # 40 nano scenes run one at a time, then as stacked batches of 32 + 8;
        # each scene is keyed by its index, so not one output byte may differ.
        # These thresholds split some untrained tokens and not others.
        cfg = config.nano().with_overrides(thresholds=(0.0285, 0.2, 0.105), **overrides)
        store = params.init_params(cfg, seed=0)
        corpus = scenes.generate_corpus(13, 40, scene_spec)
        forward_batch, batches, outputs = train.forward_batch, [], {}

        def spy(images, *args, **kwargs):
            batches.append(len(images))
            return forward_batch(images, *args, **kwargs)

        monkeypatch.setattr(train, "forward_batch", spy)
        for name, pixels, sizes in (("solo", 64 * 64, [1] * 40), ("stacked", evaluate.BATCH_PIXELS, [32, 8])):
            monkeypatch.setattr(evaluate, "BATCH_PIXELS", pixels)
            batches.clear()
            out = tmp_path / name
            man = evaluate.evaluate(cfg, store, corpus, seed=1, out_dir=str(out), n_overlays=40, n_feature_dumps=40)
            assert batches == sizes
            # random_ratio splits a fixed share of equal frontiers
            mixed = any(len(hist) > 1 for hist in man["metrics"]["tokens_per_level_hist"].values())
            assert mixed == (cfg.policy != "random_ratio")
            outputs[name] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        assert len(outputs["solo"]) == 1 + 3 * 40 + 40
        assert outputs["solo"] == outputs["stacked"]

    def test_batched_flop_check_names_the_scenes_and_section(self, nano_cfg, nano_store, scene_spec, monkeypatch):
        # one extra MAC in one scene's analytic report, inside a batch of three
        count_forward, reports = flops.count_forward, []

        def off_by_one(cfg, trace):
            reports.append(count_forward(cfg, trace))
            if len(reports) == 2:
                reports[-1].sections["stage2.r2"].macs += 1
            return reports[-1]

        monkeypatch.setattr(flops, "count_forward", off_by_one)
        with pytest.raises(RuntimeError, match=r"^scenes 0-2, section stage2\.r2: analytic count"):
            evaluate.evaluate(nano_cfg, nano_store, scenes.generate_corpus(3, 3, scene_spec), seed=0)
        assert len(reports) == 3

    @pytest.mark.parametrize("consumer", ["evaluate", "flops"])
    def test_batch_dead_when_next_forward_starts(self, nano_cfg, nano_store, scene_spec, monkeypatch, no_gc, consumer):
        monkeypatch.setattr(evaluate, "BATCH_PIXELS", 2 * 64 * 64)
        refs = spy_forwards(monkeypatch)
        if consumer == "evaluate":
            evaluate.evaluate(nano_cfg, nano_store, scenes.generate_corpus(3, 6, scene_spec), seed=0)
        else:
            assert cli.main(["flops", "--count", "6", "--policies", "adaptive"]) == 0
        assert len(refs) == 3 and refs[-1]() is None

    def test_live_peak_over_128_scenes(self):
        # 128 nano scenes under ground-truth allocation run as four stacked
        # batches of 32, each freed before the next forward: 8.18 MB live
        cfg = config.nano().with_overrides(policy="oracle_mix", oracle_rate=1.0)
        store = params.init_params(cfg, seed=9)
        corpus = scenes.generate_corpus(9, 128, SceneSpec(max_regions=8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate.evaluate(cfg, store, corpus, seed=9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 9e6, peak / 1e6

    def test_segmentation_metrics_hand_case(self):
        conf = np.array([[3, 1], [0, 4]])
        m = evaluate.segmentation_metrics(conf)
        assert abs(m["per_class_iou"][0] - 3 / 4) < 1e-12
        assert abs(m["per_class_iou"][1] - 4 / 5) < 1e-12
        assert abs(m["miou"] - (3 / 4 + 4 / 5) / 2) < 1e-6

    def test_confusion_update_matches_pixel_loop(self, rng):
        c = 5
        gt = rng.integers(0, c, 300)
        gt[::7] = IGNORE
        pred = rng.integers(0, c, 300)
        conf = np.ones((c, c), dtype=np.int64)
        evaluate._confusion_update(conf, pred, gt)
        expect = np.ones((c, c), dtype=np.int64)
        for g, p in zip(gt, pred):
            if g != IGNORE:
                expect[g, p] += 1
        assert conf.dtype == np.int64
        assert np.array_equal(conf, expect)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_gen_writes_pairs(self, tmp_path):
        out = tmp_path / "corpus"
        assert self.run("gen", "--count", "3", "--out", str(out)) == 0
        names = sorted(os.listdir(out))
        assert "corpus.json" in names
        assert sum(n.endswith(".ppm") for n in names) == 3
        assert sum(n.endswith(".pgm") for n in names) == 3

    def test_train_eval_flops_pipeline(self, tmp_path):
        run_dir = tmp_path / "run"
        assert (
            self.run(
                "train",
                "--steps", "3",
                "--count", "8",
                "--batch", "2",
                "--out", str(run_dir),
            )
            == 0
        )
        assert (run_dir / "params.bin").exists()
        eval_dir = tmp_path / "eval"
        assert (
            self.run(
                "eval",
                "--params", str(run_dir / "params.bin"),
                "--count", "4",
                "--out", str(eval_dir),
                "--overlays", "1",
            )
            == 0
        )
        manifest = json.loads((eval_dir / "manifest.json").read_text())
        assert manifest["config_digest"] == config.nano().digest()
        assert self.run("flops", "--count", "3", "--out", str(tmp_path / "fl")) == 0
        data = json.loads((tmp_path / "fl" / "flops.json").read_text())
        assert {r["policy"] for r in data} == {"adaptive", "dense"}

    def test_random_ratio_container_serves_other_policies(self, tmp_path):
        # the README recipe: train under random_ratio, then evaluate and
        # meter the container adaptively, also at another τ
        run_dir = tmp_path / "run"
        params_path = str(run_dir / "params.bin")
        assert self.run("train", "--policy", "random_ratio", "--steps", "3", "--count", "4", "--batch", "2", "--out", str(run_dir)) == 0
        assert self.run("eval", "--params", params_path, "--count", "2", "--out", str(tmp_path / "ev")) == 0
        assert self.run("eval", "--params", params_path, "--tau", "0.01,0.02,0.04", "--count", "2", "--out", str(tmp_path / "ev_tau")) == 0
        policies = ["adaptive", "dense", "random_ratio"]
        assert self.run("flops", "--params", params_path, "--count", "2", "--policies", ",".join(policies), "--out", str(tmp_path / "fl")) == 0
        rows = json.loads((tmp_path / "fl" / "flops.json").read_text())
        assert [r["policy"] for r in rows] == policies
        # one stacked batch in the CLI; here each scene alone, under its own meter
        corpus = scenes.generate_corpus(7, 2, SceneSpec())
        for row in rows:
            cfg = config.nano().with_overrides(policy=row["policy"])
            store = params.load_params(params_path, cfg)
            totals = []
            for i, sc in enumerate(corpus):
                with flops.meter() as m:
                    train.forward_full(sc.image, store, cfg, sc.labels, batch_index=i)
                totals.append(m.total().flops)
            assert (row["flops_mean"], row["flops_std"]) == flops.corpus_stats(totals)

    def test_tau_and_policy_flags(self, tmp_path):
        out = tmp_path / "ev"
        assert (
            self.run(
                "eval",
                "--policy", "dense",
                "--tau", "0.1,0.2,0.3",
                "--count", "2",
                "--out", str(out),
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["thresholds"] == [0.1, 0.2, 0.3]
        assert manifest["policy"] == "dense"

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--seed", "5"),
            ("gen", "--policy", "dense"),
            ("gen", "--tau", "0.1,0.2,0.3"),
            ("gen", "--oracle-rate", "0.5"),
            ("flops", "--policy", "dense"),
        ],
        ids=["gen_seed", "gen_policy", "gen_tau", "gen_oracle_rate", "flops_policy"],
    )
    def test_flag_no_command_reads_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv, "--count", "1", "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--batch", "0"), "batch_size"),
            (("--lr", "nan"), "lr"),
            (("--lr", "inf"), "lr"),
            (("--lr", "-1"), "lr"),
            (("--steps", "0"), "steps"),
            (("--steps", "-3"), "steps"),
            (("--allocator-weight", "nan"), "allocator_weight"),
            (("--allocator-weight", "inf"), "allocator_weight"),
            (("--allocator-weight", "-5"), "allocator_weight"),
        ],
        ids=[
            "batch_0",
            "lr_nan",
            "lr_inf",
            "lr_negative",
            "steps_0",
            "steps_negative",
            "allocator_weight_nan",
            "allocator_weight_inf",
            "allocator_weight_negative",
        ],
    )
    def test_bad_training_argument_rejected_before_step_0(self, tmp_path, capsys, flags, name):
        # the flag under test comes last, so it overrides the valid default
        record = self.error_record(capsys, "train", "--steps", "1", "--count", "2", "--out", str(tmp_path / "run"), *flags)
        assert record["error"] == "ValueError" and record["message"].startswith(f"{name} must be")
        assert not (tmp_path / "run").exists()

    def test_error_record_and_exit_code(self, capsys):
        rc = self.run("eval", "--config", "/nonexistent/path.json")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] and record["message"]

    def error_record(self, capsys, *argv):
        assert self.run(*argv) == 1
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    @pytest.mark.parametrize(
        "text, cause",
        [('{"name": "nano",\n', "Expecting property name"), ('{"bogus": 1}', "unexpected keyword argument 'bogus'")],
        ids=["malformed_json", "unknown_field"],
    )
    def test_bad_json_config_error_names_the_file(self, tmp_path, capsys, text, cause):
        path = tmp_path / "bad.json"
        path.write_text(text)
        record = self.error_record(capsys, "eval", "--config", str(path), "--count", "1", "--out", str(tmp_path / "ev"))
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}: ") and cause in record["message"]

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        record = self.error_record(capsys, "eval", "--config", str(path), "--count", "1", "--out", str(tmp_path / "ev"))
        assert record == {"command": "eval", "error": "ValueError", "message": f"{path}: a config must be a JSON object, got list"}
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gen_count_below_1_rejected(self, tmp_path, capsys, count):
        record = self.error_record(capsys, "gen", "--count", count, "--out", str(tmp_path / "corpus"))
        assert record["error"] == "ValueError" and record["message"] == f"count must be >= 1, got {count}"
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("field, name", [("input_h", "height"), ("input_w", "width")])
    def test_scene_extent_below_1_rejected(self, tmp_path, capsys, field, name):
        # the config names its own field before a scene spec is built
        path = tmp_path / "flat.json"
        for value in (0, -32):
            path.write_text(json.dumps({**config.nano().to_json_dict(), field: value}))
            for command in ("gen", "eval"):
                record = self.error_record(capsys, command, "--config", str(path), "--count", "1", "--out", str(tmp_path / "out"))
                assert record["error"] == "ValueError"
                assert record["message"] == f"{path}: {field} must be a positive multiple of 32, got {value}"
                assert f"scene spec {name}" not in record["message"] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("n_classes", 0), ("stage1_blocks", [1, 1, 1, -1]), ("stage2_blocks", [-1, 1, 2, 1]), ("stage1_dims", [0, 0, 0, 0])],
        ids=["n_classes_0", "stage1_blocks_negative", "stage2_blocks_negative", "stage1_dims_0"],
    )
    def test_bad_config_field_rejected(self, tmp_path, capsys, field, value):
        fields = {**config.nano().to_json_dict(), field: value}
        if field == "stage1_dims":
            fields["stage2_dims"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(fields))
        record = self.error_record(capsys, "eval", "--config", str(path), "--count", "2", "--out", str(tmp_path / "out"))
        assert record["error"] == "ValueError" and record["message"].startswith(f"{path}: {field} must")
        assert not (tmp_path / "out").exists()

    def test_one_class_config(self, tmp_path, capsys):
        # a region takes a class other than the background, so one class
        # allows only uniform scenes
        path = tmp_path / "one.json"
        config.save_config(path, config.nano(classes=1))
        record = self.error_record(capsys, "gen", "--config", str(path), "--count", "3", "--out", str(tmp_path / "bad"))
        assert record["error"] == "ValueError" and "scene spec n_classes must be at least 2" in record["message"]
        assert not (tmp_path / "bad").exists()
        assert self.run("gen", "--config", str(path), "--count", "3", "--uniform-fraction", "1", "--out", str(tmp_path / "flat")) == 0
        assert self.run("eval", "--config", str(path), "--corpus-dir", str(tmp_path / "flat"), "--out", str(tmp_path / "ev")) == 0

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (("flops", "--policies", "adaptive,bogus"), "policy must be one of adaptive, dense, random_ratio, oracle_mix, got 'bogus'"),
            (("ablate", "--steps", "1", "--variants", "baseline,bogus"), "unknown ablation 'bogus'"),
            (("ablate", "--steps", "1", "--variants", "baseline", "--eval-count", "0"), "held-out corpus is empty"),
            (("gen", "--max-regions", "-1"), "max_regions must"),
            (("gen", "--uniform-fraction", "3"), "uniform_fraction must"),
            (("gen", "--uniform-fraction", "nan"), "uniform_fraction must"),
            (("gen", "--noise", "-1"), "noise must"),
            (("gen", "--noise", "nan"), "noise must"),
            (("eval", "--noise", "nan"), "noise must"),
            (("eval", "--noise", "inf"), "noise must"),
            (("eval", "--overlays", "-1"), "n_overlays must"),
            (("eval", "--dump-features", "-1"), "n_feature_dumps must"),
            (("eval", "--tau", "nan,0.01,0.02"), "thresholds must be positive"),
            (("flops", "--tau", "0.005,0.01,-1"), "thresholds must be positive"),
            (("eval", "--tau", ""), "thresholds must be comma-separated numbers, got ''"),
            (("eval", "--tau", "0.1,abc,0.2"), "thresholds must be comma-separated numbers, got '0.1,abc,0.2'"),
        ],
        ids=[
            "flops_policy",
            "ablate_variant",
            "ablate_eval_count_0",
            "gen_max_regions_negative",
            "gen_uniform_fraction_3",
            "gen_uniform_fraction_nan",
            "gen_noise_negative",
            "gen_noise_nan",
            "eval_noise_nan",
            "eval_noise_inf",
            "eval_overlays_negative",
            "eval_dump_features_negative",
            "eval_tau_nan",
            "flops_tau_negative",
            "eval_tau_empty",
            "eval_tau_not_a_number",
        ],
    )
    def test_bad_argument_rejected_before_the_first_forward(self, tmp_path, capsys, monkeypatch, argv, cause):
        forwards = []
        monkeypatch.setattr(train, "_forward", lambda *args: forwards.append(args))
        record = self.error_record(capsys, *argv, "--count", "2", "--out", str(tmp_path / "out"))
        assert record["error"] == "ValueError" and cause in record["message"]
        assert forwards == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "flops"])
    def test_container_for_another_config_rejected(self, tmp_path, capsys, command):
        # a 6-class nano container under a 5-class nano config
        path = tmp_path / "params.bin"
        params.save_params(path, params.init_params(config.nano(), seed=0), config.nano())
        cfg_path = tmp_path / "five.json"
        config.save_config(cfg_path, config.nano(classes=5))
        record = self.error_record(capsys, command, "--config", str(cfg_path), "--params", str(path), "--count", "1")
        assert "built for a different config" in record["message"] and str(path) in record["message"]

    @pytest.mark.parametrize(
        "corrupt, cause",
        [
            (lambda blob: blob[:-5], "truncated parameter container"),
            (lambda blob: blob + b"\0", "1 trailing bytes"),
            (lambda blob: b"NOTPARAM" + blob[8:], "not a parameter container"),
            (lambda blob: blob[:8] + struct.pack("<I", 99) + blob[12:], "unsupported container version 99"),
            (lambda blob: blob[:-8] + struct.pack("<d", math.nan), "has non-finite values"),
        ],
        ids=["cut_by_5_bytes", "trailing_byte", "bad_magic", "bad_version", "nan_value"],
    )
    def test_bad_container_error_names_the_file(self, tmp_path, capsys, corrupt, cause):
        path = tmp_path / "params.bin"
        params.save_params(path, params.init_params(config.nano(), seed=0), config.nano())
        path.write_bytes(corrupt(path.read_bytes()))
        record = self.error_record(capsys, "eval", "--params", str(path), "--count", "1", "--out", str(tmp_path / "ev"))
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}: ") and cause in record["message"]

    @pytest.mark.parametrize(
        "image_hw, label_hw, cause",
        [((64, 64), (40, 64), "label map 40x64"), ((96, 96), (96, 96), "pads to 96x96")],
        ids=["sizes_differ", "wrong_extent"],
    )
    def test_bad_corpus_pair_rejected(self, tmp_path, capsys, image_hw, label_hw, cause):
        pnm.write_ppm8(tmp_path / "scene_00000.ppm", np.zeros(image_hw + (3,)))
        pnm.write_pgm16(tmp_path / "scene_00000.pgm", np.zeros(label_hw, dtype=np.uint16))
        record = self.error_record(capsys, "eval", "--corpus-dir", str(tmp_path), "--out", str(tmp_path / "ev"))
        assert record["error"] == "ValueError"
        assert cause in record["message"] and "scene_00000.ppm" in record["message"]

    @pytest.mark.parametrize("corpus", ["empty_dir", "count_0"])
    @pytest.mark.parametrize("command", ["train", "eval", "flops"])
    def test_empty_corpus_rejected(self, tmp_path, capsys, command, corpus):
        empty = tmp_path / "empty"
        empty.mkdir()
        source = ["--corpus-dir", str(empty)] if corpus == "empty_dir" else ["--count", "0"]
        record = self.error_record(capsys, command, *source, "--out", str(tmp_path / "out"))
        assert record["error"] == "ValueError" and "corpus is empty" in record["message"]
        assert (str(empty) in record["message"]) == (corpus == "empty_dir")
        assert not (tmp_path / "out").exists()

    def test_truncated_pnm_rejected(self, tmp_path, capsys):
        pnm.write_ppm8(tmp_path / "scene_00000.ppm", np.zeros((64, 64, 3)))
        pnm.write_pgm16(tmp_path / "scene_00000.pgm", np.zeros((64, 64), dtype=np.uint16))
        blob = (tmp_path / "scene_00000.pgm").read_bytes()
        (tmp_path / "scene_00000.pgm").write_bytes(blob[:-1])
        record = self.error_record(capsys, "flops", "--corpus-dir", str(tmp_path))
        assert "scene_00000.pgm" in record["message"] and "payload" in record["message"]

    def test_ablate_smoke(self, tmp_path):
        assert (
            self.run(
                "ablate",
                "--steps", "2",
                "--count", "6",
                "--eval-count", "3",
                "--batch", "2",
                "--variants", "baseline,no_residual",
                "--out", str(tmp_path / "ab"),
            )
            == 0
        )
        table = json.loads((tmp_path / "ab" / "ablations.json").read_text())
        assert [r["variant"] for r in table] == ["baseline", "no_residual"]

    def test_ablate_oracle_rate_sweep_logged(self, tmp_path):
        assert (
            self.run(
                "ablate",
                "--steps", "2",
                "--count", "6",
                "--eval-count", "2",
                "--batch", "2",
                "--variants", "baseline,oracle_mix_10,oracle_mix,oracle_mix_100",
                "--out", str(tmp_path / "sweep"),
            )
            == 0
        )
        table = json.loads((tmp_path / "sweep" / "ablations.json").read_text())
        rates = [r["oracle_rate"] for r in table]
        assert rates == [None, 0.1, 0.5, 1.0]
        assert all("miou" in r for r in table)
