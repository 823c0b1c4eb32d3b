import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptok import boundary, pnm, scenes
from adaptok.boundary import IGNORE, allocator_loss, boundary_map, target_scores
from adaptok.geometry import TokenKey, coarse_grid

from conftest import cell_majority_oracle


def brute_force_boundary(labels, connectivity):
    h, w = labels.shape
    if connectivity == 4:
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            if labels[y, x] == IGNORE:
                continue
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w:
                    if labels[ny, nx] != IGNORE and labels[ny, nx] != labels[y, x]:
                        out[y, x] = 1
                        break
    return out


class TestBoundaryMap:
    def test_uniform_is_all_zero(self):
        assert boundary_map(np.full((9, 7), 3)).sum() == 0

    def test_half_split_4conn(self):
        lab = np.zeros((4, 4), dtype=int)
        lab[:, 2:] = 1
        bmap = boundary_map(lab, connectivity=4)
        expect = brute_force_boundary(lab, 4)
        assert np.array_equal(bmap, expect)
        assert bmap.sum() == 8
        assert np.array_equal(np.nonzero(bmap.sum(axis=0))[0], [1, 2])

    def test_single_differing_pixel(self):
        lab = np.zeros((7, 7), dtype=int)
        lab[3, 3] = 1
        bmap = boundary_map(lab, connectivity=4)
        assert np.array_equal(bmap, brute_force_boundary(lab, 4))
        assert bmap.sum() == 5

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_against_brute_force(self, connectivity, rng):
        for _ in range(40):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            lab = rng.integers(0, 4, size=(h, w)).astype(np.int64)
            lab[rng.random((h, w)) < 0.1] = IGNORE
            assert np.array_equal(
                boundary_map(lab, connectivity), brute_force_boundary(lab, connectivity)
            )

    def test_ignore_never_boundary_nor_inducing(self):
        lab = np.zeros((3, 3), dtype=int)
        lab[1, 1] = IGNORE
        assert boundary_map(lab).sum() == 0
        lab2 = np.full((3, 3), IGNORE)
        lab2[0, 0] = 2
        assert boundary_map(lab2).sum() == 0

    def test_label_permutation_invariance(self, rng):
        lab = rng.integers(0, 5, size=(16, 16))
        perm = rng.permutation(5)
        relabeled = perm[lab]
        assert np.array_equal(boundary_map(lab), boundary_map(relabeled))

    def test_transpose_symmetry(self, rng):
        lab = rng.integers(0, 3, size=(12, 20))
        assert np.array_equal(boundary_map(lab).T, boundary_map(lab.T))


class TestTargetScores:
    def test_zero_region(self):
        bmap = np.zeros((64, 64), dtype=np.uint8)
        keys = coarse_grid(64, 64).keys
        assert np.array_equal(target_scores(bmap, keys), np.zeros(len(keys)))

    def test_half_split_token(self):
        lab = np.zeros((4, 4), dtype=int)
        lab[:, 2:] = 1
        bmap = boundary_map(lab)
        assert target_scores(bmap, [TokenKey(3, 0, 0)])[0] == 8 / 16

    def test_matches_counting_oracle(self, rng):
        bmap = (rng.random((64, 64)) < 0.3).astype(np.uint8)
        keys = [TokenKey(lvl, int(rng.integers(0, 64 // (32 >> lvl))), int(rng.integers(0, 64 // (32 >> lvl)))) for lvl in rng.integers(0, 4, size=50)]
        scores = target_scores(bmap, keys)
        for k, s in zip(keys, scores):
            y0, x0, y1, x1 = k.rect()
            count = sum(int(bmap[y, x]) for y in range(y0, y1) for x in range(x0, x1))
            assert s == count / ((y1 - y0) * (x1 - x0))

    def test_whole_image_token_equals_fraction(self, rng):
        lab = rng.integers(0, 3, size=(32, 32))
        bmap = boundary_map(lab)
        assert target_scores(bmap, [TokenKey(0, 0, 0)])[0] == bmap.mean()

    def test_monotone_under_added_region(self):
        lab = np.zeros((64, 64), dtype=int)
        before = target_scores(boundary_map(lab), coarse_grid(64, 64).keys)
        lab[10:30, 10:30] = 1
        after = target_scores(boundary_map(lab), coarse_grid(64, 64).keys)
        assert np.all(after >= before)
        assert after.sum() > 0


class TestAllocatorLoss:
    def test_exact_match_is_zero(self):
        assert allocator_loss([0.2, 0.4], [0.2, 0.4]) == 0.0

    def test_hand_value(self):
        assert allocator_loss([1.0, 0.0], [0.0, 0.0]) == 0.5

    def test_empty_input_is_zero(self):
        assert allocator_loss([], []) == 0.0


class TestCellMajority:
    def test_uniform(self):
        lab = np.full((8, 8), 2)
        assert np.array_equal(boundary.cell_majority_labels(lab), np.full((2, 2), 2))

    def test_majority_and_tiebreak(self):
        lab = np.zeros((4, 4), dtype=int)
        lab[:, :2] = 5  # 8 pixels of 5, 8 of 0: tie goes to the smaller id
        assert boundary.cell_majority_labels(lab)[0, 0] == 0
        lab[0, 2] = 5  # now 5 wins 9 to 7
        assert boundary.cell_majority_labels(lab)[0, 0] == 5

    def test_ignore_excluded(self):
        lab = np.full((4, 4), IGNORE, dtype=np.int64)
        assert boundary.cell_majority_labels(lab)[0, 0] == IGNORE
        lab[0, 0] = 3
        assert boundary.cell_majority_labels(lab)[0, 0] == 3


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid_h=st.integers(1, 4),
    grid_w=st.integers(1, 4),
    n_classes=st.integers(1, 4),
    ignore_frac=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    dtype=st.sampled_from([np.uint16, np.int64]),
)
def test_cell_majority_matches_per_class_oracle(seed, grid_h, grid_w, n_classes, ignore_frac, dtype):
    rng = np.random.default_rng(seed)
    pool = np.array([0, 1, 2, 5, 300, 65534])
    classes = rng.choice(pool, size=n_classes, replace=False)
    lab = classes[rng.integers(0, n_classes, size=(4 * grid_h, 4 * grid_w))]
    lab[rng.random(lab.shape) < ignore_frac] = IGNORE
    # forced ties in some cells: 8/8, or 6/6 beside 4 IGNORE pixels, with
    # the larger id written first
    for cy in range(grid_h):
        for cx in range(grid_w):
            if n_classes > 1 and rng.random() < 0.4:
                lo, hi = np.sort(rng.choice(classes, size=2, replace=False))
                n_ignore = int(rng.choice([0, 4]))
                half = (16 - n_ignore) // 2
                cell = np.array([hi] * half + [lo] * half + [IGNORE] * n_ignore)
                lab[4 * cy : 4 * cy + 4, 4 * cx : 4 * cx + 4] = rng.permutation(cell).reshape(4, 4)
    lab = lab.astype(dtype)
    got = boundary.cell_majority_labels(lab)
    assert got.dtype == np.int64
    assert np.array_equal(got, cell_majority_oracle(lab))


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_tables_equal_per_sample_maps(connectivity, rng):
    # a stack of random label maps with IGNORE pixels and one unlabelled
    # sample, derived two maps at a time
    h, w = 64, 96
    labels = [rng.integers(0, 4, size=(h, w)) for _ in range(4)]
    for lab in labels:
        lab[rng.random((h, w)) < 0.2] = IGNORE
    labels[2] = None
    tables = boundary.LabelTables.build(labels, (h, w), connectivity, chunk=2)
    assert tables.bmaps.dtype == np.uint8 and tables.labelled.tolist() == [True, True, False, True]
    # every token of each sample's grid, coarse to fine, scored on the stack
    keys = [TokenKey(lvl, r, c) for lvl in range(4) for r in range(h >> (5 - lvl)) for c in range(w >> (5 - lvl))]
    samples = np.repeat(np.arange(4), len(keys))
    stacked = target_scores(boundary.SummedArea(tables.bmaps), keys * 4, samples).reshape(4, -1)
    for i, lab in enumerate(labels):
        if lab is None:
            assert not tables.bmaps[i].any() and np.all(tables.cells[i] == IGNORE)
            assert not stacked[i].any()
            continue
        bmap = boundary_map(lab, connectivity)
        assert np.array_equal(tables.bmaps[i], bmap)
        assert np.array_equal(tables.cells[i], boundary.cell_majority_labels(lab))
        assert np.array_equal(stacked[i], target_scores(bmap, keys))
    assert np.array_equal(boundary_map(np.stack([labels[0], labels[1]]), connectivity), tables.bmaps[:2])
    assert np.array_equal(tables.take([3, 0]).cells, tables.cells[[3, 0]])


def test_corpus_tables_take_a_quarter_of_the_label_bytes():
    # a training run keeps these for its whole corpus: a uint8 map per
    # scene and labels per 4x4 cell, not an int64 summed-area table
    corpus = scenes.generate_corpus(0, 8, scenes.SceneSpec())
    tables = boundary.LabelTables.build([sc.labels for sc in corpus], (64, 64), chunk=3)
    kept = tables.bmaps.nbytes + tables.cells.nbytes + tables.labelled.nbytes
    assert kept <= sum(sc.labels.nbytes for sc in corpus) / 4


def test_stacked_maps_need_each_tokens_sample():
    stack = boundary.SummedArea(np.zeros((2, 32, 32), dtype=np.uint8))
    with pytest.raises(ValueError, match="each token's sample"):
        target_scores(stack, [TokenKey(0, 0, 0)])


def test_target_scores_reject_tokens_past_the_map():
    bmap = np.zeros((64, 32), dtype=np.uint8)
    with pytest.raises(ValueError, match="extends past"):
        target_scores(bmap, [TokenKey(0, 0, 0), TokenKey(0, 0, 1)])
    with pytest.raises(ValueError, match="extends past"):
        target_scores(boundary.SummedArea(bmap), coarse_grid(64, 64).table)


def test_pgm16_roundtrip(tmp_path, rng):
    lab = rng.integers(0, 6, size=(48, 32)).astype(np.uint16)
    lab[0, 0] = IGNORE
    path = tmp_path / "labels.pgm"
    pnm.write_pgm16(path, lab)
    assert np.array_equal(pnm.read_pgm16(path), lab)


def test_ppm8_roundtrip(tmp_path, rng):
    img = rng.random((16, 24, 3))
    path = tmp_path / "img.ppm"
    pnm.write_ppm8(path, img)
    back = pnm.read_ppm8(path)
    assert back.shape == (16, 24, 3)
    assert np.max(np.abs(back.astype(float) / 255 - img)) < 1 / 255 + 1e-9


@pytest.fixture(scope="module")
def pnm_files(tmp_path_factory):
    """A valid 3x5 PGM and PPM: format -> (path to rewrite, its bytes, its reader)."""
    root = tmp_path_factory.mktemp("pnm")
    rng = np.random.default_rng(0)
    pnm.write_pgm16(root / "labels.pgm", rng.integers(0, 6, size=(3, 5)).astype(np.uint16))
    pnm.write_ppm8(root / "image.ppm", rng.random((3, 5, 3)))
    return {
        "pgm": (root / "labels.pgm", (root / "labels.pgm").read_bytes(), pnm.read_pgm16),
        "ppm": (root / "image.ppm", (root / "image.ppm").read_bytes(), pnm.read_ppm8),
    }


@pytest.mark.parametrize("fmt", ["pgm", "ppm"])
@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0), extra=st.binary(max_size=64))
def test_malformed_pnm_raises_value_error(pnm_files, fmt, cut, extra):
    # cut at any byte, or intact with bytes appended: always a ValueError
    # that names the file
    path, blob, read = pnm_files[fmt]
    path.write_bytes(blob + extra if extra else blob[: cut % len(blob)])
    with pytest.raises(ValueError, match=path.name):
        read(path)


@pytest.mark.parametrize("size", [b"1099511627776 1099511627776", b"0 0", b"4 -2"], ids=["2^40", "zero", "negative"])
def test_pnm_size_checked_before_the_payload(tmp_path, size):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + size + b"\n65535\n" + bytes(16))
    with pytest.raises(ValueError, match="bad.pgm"):
        pnm.read_pgm16(path)


def test_pad_labels_uses_ignore():
    lab = np.ones((40, 50), dtype=np.int64)
    img, padded = scenes.pad_to_grid(np.ones((40, 50, 3)), lab)
    assert img.shape == (64, 64, 3) and padded.shape == (64, 64)
    assert np.all(padded[40:] == IGNORE) and np.all(padded[:, 50:] == IGNORE)
    # padding never creates boundary pixels
    assert boundary_map(padded).sum() == 0
