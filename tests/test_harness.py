import dataclasses
import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest

from adaptok import cli, config, evaluate, params, pnm, scenes, train
from adaptok.boundary import IGNORE, boundary_map
from adaptok.config import load_config
from adaptok.scenes import SceneSpec, generate_scene


class TestSceneGeneration:
    def test_zero_regions_uniform(self):
        spec = SceneSpec(max_regions=0, uniform_fraction=0.0)
        sc = generate_scene(5, spec)
        assert len(np.unique(sc.labels)) == 1
        assert boundary_map(sc.labels).sum() == 0

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

    def test_presets_valid(self):
        for name in ("nano", "tiny", "small", "base"):
            cfg = load_config(name)
            assert cfg.stage1_blocks[3] == 0
            assert cfg.stage2_dims == tuple(reversed(cfg.stage1_dims))

    def test_thresholds_default_match_protocol(self, nano_cfg):
        assert nano_cfg.thresholds == (0.005, 0.01, 0.02)
        assert nano_cfg.rounds == 3
        assert len(nano_cfg.thresholds) == nano_cfg.rounds

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            config.nano().with_overrides(stage1_dims=(64, 32, 16, 4))
        with pytest.raises(ValueError):
            config.nano().with_overrides(thresholds=(0.0, 0.01, 0.02))
        with pytest.raises(ValueError):
            config.nano().with_overrides(policy="always")
        with pytest.raises(ValueError):
            config.nano(h=50)


class TestAdam:
    def test_converges_on_quadratic(self):
        store = params.ParamStore()
        store.add("w", np.array([5.0, -3.0]))
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
        incremental = params.ParamStore()
        incremental.add("w", np.array([5.0, -3.0]))
        params._linear(incremental, 0, "fuse", 4, 2)
        for store in (params.init_params(nano_cfg, seed=0), params.load_params(path, nano_cfg), incremental):
            assert store.flat.size == sum(t.data.size for _, t in store.items())
            for name, t in store.items():
                assert np.shares_memory(t.data, store.flat), name
                assert t.data.flags.c_contiguous and t.data.flags.writeable
            name = store.names()[-1]
            before = store.flat.copy()
            store[name].data[(0,) * store[name].data.ndim] += 1.0
            assert np.flatnonzero(store.flat != before).tolist() == [store.flat.size - store[name].data.size]

    def test_add_keeps_values_and_tensors(self):
        store = params.ParamStore()
        w = store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = store.add("b", np.array([5.0]))
        assert store["w"] is w and store["b"] is b
        assert store.flat.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(1))


def _param_digest(store) -> str:
    h = hashlib.sha256()
    for name in sorted(store.names()):
        h.update(store[name].data.tobytes())
    return h.hexdigest()


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
        assert self.run("flops", "--params", params_path, "--count", "2") == 0

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
        ],
        ids=["batch_0", "lr_nan", "lr_inf", "lr_negative", "steps_0", "steps_negative"],
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
