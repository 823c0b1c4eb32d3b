import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptok import boundary, flops, geometry, scenes
from adaptok.errors import ContractError
from adaptok.geometry import TokenKey, canonical_order, coarse_grid, finest_cover

from conftest import (
    batch_grow_oracle,
    canonical_rank_oracle,
    finest_cover_oracle,
    grow_random_set,
    parent_of,
    rows_of,
    split,
    target_scores_oracle,
    validate,
    with_children,
    with_children_oracle,
)


class TestCoarseGrid:
    def test_256(self):
        s = coarse_grid(256, 256)
        assert s.n_valid == 64
        assert len(s.frontier) == 64

    def test_rectangular(self):
        assert coarse_grid(64, 32).n_valid == 2

    def test_is_a_one_segment_token_batch(self):
        s = coarse_grid(64, 96)
        assert type(s) is geometry.TokenBatch
        assert s.segments == (6,) and s.pad_levels == () and s.n_rows == 6

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            coarse_grid(100, 64)
        _, labels = scenes.pad_to_grid(np.zeros((100, 64, 3)), np.zeros((100, 64), dtype=np.int64))
        assert labels.shape == (128, 64)

    def test_pixel_coverage_512(self):
        s = coarse_grid(512, 512)
        assert s.n_valid == 256
        counter = np.zeros((512, 512), dtype=int)
        for k in s.keys:
            y0, x0, y1, x1 = k.rect()
            counter[y0:y1, x0:x1] += 1
        assert np.all(counter == 1)


class TestSplit:
    def test_root_children(self):
        kids = split(TokenKey(0, 0, 0))
        assert set(kids) == {TokenKey(1, 0, 0), TokenKey(1, 0, 1), TokenKey(1, 1, 0), TokenKey(1, 1, 1)}

    def test_children_tile_parent(self, rng):
        for _ in range(50):
            level = int(rng.integers(0, 3))
            parent = TokenKey(level, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            y0, x0, y1, x1 = parent.rect()
            counter = np.zeros((y1 - y0, x1 - x0), dtype=int)
            for c in split(parent):
                cy0, cx0, cy1, cx1 = c.rect()
                assert (cy1 - cy0) * (cx1 - cx0) * 4 == (y1 - y0) * (x1 - x0)
                counter[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0] += 1
            assert np.all(counter == 1)

    def test_finest_level_refuses(self):
        with pytest.raises(ContractError):
            split(TokenKey(3, 0, 0))
        with pytest.raises(ContractError):
            parent_of(TokenKey(0, 0, 0))


class TestCanonicalOrder:
    def test_single(self):
        k = TokenKey(1, 2, 3)
        assert canonical_order([k]) == [k]

    def test_permutation_invariant(self, rng):
        keys = list(coarse_grid(256, 256).keys) + [TokenKey(1, 3, 5), TokenKey(2, 0, 0)]
        for _ in range(10):
            perm = [keys[i] for i in rng.permutation(len(keys))]
            assert canonical_order(perm) == canonical_order(keys)

    def test_against_sort_oracle(self, rng):
        keys = []
        for _ in range(100):
            level = int(rng.integers(0, 4))
            side = 32 >> level
            keys.append(TokenKey(level, int(rng.integers(0, 512 // side)), int(rng.integers(0, 512 // side))))

        def slow_morton(y, x):
            code = 0
            for bit in range(16):
                code |= ((x >> bit) & 1) << (2 * bit)
                code |= ((y >> bit) & 1) << (2 * bit + 1)
            return code

        def oracle_key(k):
            # patch center in doubled pixel coordinates
            cy, cx = (2 * k.row + 1) * k.patch_side, (2 * k.col + 1) * k.patch_side
            return (slow_morton(cy, cx), k.level, k.row, k.col)

        assert canonical_order(keys) == sorted(keys, key=oracle_key)

    def test_morton_range_rejected(self):
        canonical_order([TokenKey(3, 8191, 0)])
        with pytest.raises(ValueError):
            canonical_order([TokenKey(3, 8192, 0)])


class TestMixedSet:
    def test_with_children_structure(self, rng):
        old = coarse_grid(64, 64)
        parents = [old.frontier[2], old.frontier[0]]
        s, perm = with_children(old, parents)
        kids = [c for p in parents for c in split(p)]
        assert len(kids) == 8
        assert s.frontier == tuple(canonical_order(kids))
        # perm indexes the old rows followed by the children in parents x split order
        assert s.keys == tuple((list(old.keys) + kids)[i] for i in perm)
        validate(s)

    def test_with_children_perm_and_cost(self, rng):
        for _ in range(20):
            old, _ = grow_random_set(64, 64, float(rng.uniform(0.2, 0.8)), rng)
            split_already = {parent_of(k) for k in old.keys if k.level}
            cand = [k for k in old.keys if k.level < 3 and k not in split_already]
            parents = [cand[i] for i in rng.permutation(len(cand))[: int(rng.integers(1, len(cand) + 1))]]
            with flops.meter() as m:
                s, perm = with_children(old, parents)
            merged = list(old.keys) + [c for p in parents for c in split(p)]
            assert s.keys == tuple(canonical_order(merged))
            assert sorted(perm.tolist()) == list(range(len(merged)))
            assert [merged[i] for i in perm] == list(s.keys)
            validate(s)
            n = len(merged)
            assert m.total().comparisons == flops.sort_comparisons(n) + flops.sort_comparisons(n - old.n_valid)

    def test_sibling_completeness_and_counts(self, rng):
        for _ in range(25):
            s, selections = grow_random_set(64, 64, 0.5, rng)
            validate(s)
            counts = s.counts_per_level()
            for lvl, sel in enumerate(selections, start=1):
                assert counts[lvl] == 4 * len(sel)

    def test_no_same_level_overlap(self, rng):
        for _ in range(10):
            s, _ = grow_random_set(64, 64, 0.6, rng)
            for lvl in range(4):
                counter = np.zeros((64, 64), dtype=int)
                for k in s.keys:
                    if k.level != lvl:
                        continue
                    y0, x0, y1, x1 = k.rect()
                    counter[y0:y1, x0:x1] += 1
                assert counter.max() <= 1

    def test_level_tiling_union_equals_selected_parents(self, rng):
        s, selections = grow_random_set(64, 64, 0.5, rng)
        for lvl, sel in enumerate(selections, start=1):
            child_cover = np.zeros((64, 64), dtype=bool)
            parent_cover = np.zeros((64, 64), dtype=bool)
            for k in s.keys:
                if k.level == lvl:
                    y0, x0, y1, x1 = k.rect()
                    child_cover[y0:y1, x0:x1] = True
            for p in sel:
                y0, x0, y1, x1 = p.rect()
                parent_cover[y0:y1, x0:x1] = True
            assert np.array_equal(child_cover, parent_cover)


class TestFinestCover:
    def brute_force(self, s):
        cover = np.full((s.height, s.width), -1, dtype=int)
        for y in range(s.height):
            for x in range(s.width):
                best = -1
                best_level = -1
                for i, k in enumerate(s.keys):
                    y0, x0, y1, x1 = k.rect()
                    if y0 <= y < y1 and x0 <= x < x1 and k.level > best_level:
                        best, best_level = i, k.level
                cover[y, x] = best
        return cover

    def test_coarse_only(self):
        s = coarse_grid(64, 64)
        cover = finest_cover(s)[0]
        for i, k in enumerate(s.keys):
            y0, x0, y1, x1 = k.rect()
            assert np.all(cover[y0:y1, x0:x1] == i)

    def test_one_split_parent(self):
        s = coarse_grid(64, 64)
        parent = s.frontier[1]
        s, _ = with_children(s, [parent])
        cover = finest_cover(s)[0]
        y0, x0, y1, x1 = parent.rect()
        inside = cover[y0:y1, x0:x1]
        assert {s.keys[i].level for i in np.unique(inside)} == {1}
        outside_levels = {s.keys[i].level for i in np.unique(cover)} - {1}
        assert outside_levels == {0}

    def test_against_brute_force(self, rng):
        for _ in range(5):
            s, _ = grow_random_set(64, 64, 0.4, rng)
            assert np.array_equal(finest_cover(s)[0], self.brute_force(s))

    def test_batch_cover_stacks_each_samples_cover(self, rng):
        sets = [grow_random_set(64, 96, p, rng)[0] for p in (0.0, 0.6, 1.0)]
        cover = finest_cover(geometry.TokenBatch.stack(sets))
        assert cover.shape == (3, 64, 96)
        for got, s in zip(cover, sets):
            assert np.array_equal(got, finest_cover(s)[0])

    def test_one_segment_cover_has_a_sample_axis(self, rng):
        s, _ = grow_random_set(64, 96, 0.5, rng)
        assert finest_cover(s).shape == (1, 64, 96)

    def test_total_and_idempotent(self, rng):
        s, _ = grow_random_set(64, 64, 0.5, rng)
        c1 = finest_cover(s)[0]
        c2 = finest_cover(s)[0]
        assert c1.min() >= 0
        assert np.array_equal(c1, c2)


class TestTokenBatch:
    """The stacked batch against its samples' sets, over random batches of
    1-8 samples and three rounds; some samples split nothing."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), grid_h=st.integers(1, 3), grid_w=st.integers(1, 3))
    def test_grow_matches_composed_set_grows(self, seed, n, grid_h, grid_w):
        rng = np.random.default_rng(seed)
        sets = [coarse_grid(32 * grid_h, 32 * grid_w)] * n
        batch = geometry.TokenBatch.stack(sets)
        for _ in range(3):
            local = [s.frontier_rows[rng.permutation(len(s.frontier_rows))] for s in sets]
            local = [rows[: int(rng.integers(0, len(rows) + 1))] if rng.random() < 0.7 else rows[:0] for rows in local]
            with flops.meter() as want_cost:
                sets, want_perm = batch_grow_oracle(sets, local)
            with flops.meter() as cost:
                batch, perm = batch.grow(np.concatenate([o + rows for o, rows in zip(batch.offsets, local)]))
            assert np.array_equal(perm, want_perm)
            assert np.array_equal(batch.table, np.concatenate([s.table for s in sets]))
            assert batch.segments == tuple(s.n_valid for s in sets)
            want_frontier = [o + s.frontier_rows for o, s in zip(batch.offsets, sets)]
            assert np.array_equal(batch.frontier_rows, np.concatenate(want_frontier))
            assert batch.frontier == tuple(k for s in sets for k in s.frontier)
            comparisons = sum(
                flops.sort_comparisons(s.n_valid) + flops.sort_comparisons(4 * len(rows))
                for s, rows in zip(sets, local)
                if len(rows)
            )
            assert cost.total().comparisons == want_cost.total().comparisons == comparisons
            for got, want in zip(batch.sets, sets):
                assert np.array_equal(got.table, want.table) and np.array_equal(got.frontier_rows, want.frontier_rows)
                assert type(got) is geometry.TokenBatch and got.segments == (want.n_valid,)
            assert batch.counts_per_level() == batch.level_counts().sum(axis=0).tolist()
        # take keeps ascending rows per sample, emission order is level-major
        rows = np.flatnonzero(rng.random(batch.n_valid) < 0.5)
        taken = batch.take(rows)
        assert taken.keys == batch.keys_at(rows) and not len(taken.frontier_rows)
        assert taken.segments == tuple(int(np.sum((rows >= o) & (rows < o + m))) for o, m in zip(batch.offsets, batch.segments))
        order = batch.finest_first()
        samples = np.repeat(np.arange(n), batch.segments)
        assert sorted(order.tolist()) == list(range(batch.n_valid))
        assert [(-batch.table[i, 0], samples[i], i) for i in order] == sorted((-batch.table[i, 0], samples[i], i) for i in order)


class TestColumnsAgainstPerKeyOracles:
    """The token-table implementation against the per-key oracles in
    conftest, over random allocation traces."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        grid_h=st.integers(1, 4),
        grid_w=st.integers(1, 4),
        p=st.floats(0.0, 1.0),
    )
    def test_grown_sets_match(self, seed, grid_h, grid_w, p):
        rng = np.random.default_rng(seed)
        h, w = 32 * grid_h, 32 * grid_w
        final, selections = grow_random_set(h, w, p, rng)
        coarse = [TokenKey(0, r, c) for r in range(grid_h) for c in range(grid_w)]
        keys = tuple(coarse[i] for i in canonical_rank_oracle(coarse))
        s, frontier = coarse_grid(h, w), keys
        assert s.keys == keys and s.frontier == frontier
        bmap = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        for sel in selections:
            if sel:
                # parents in any order; perm follows the given order
                sel = [sel[i] for i in rng.permutation(len(sel))]
                s, perm = with_children(s, sel)
                keys, frontier, want_perm = with_children_oracle(keys, sel)
                assert np.array_equal(perm, want_perm)
            else:
                s, frontier = s.without_frontier(), ()
            assert s.keys == keys
            assert s.frontier == frontier
            assert s.row_levels().tolist() == [k.level for k in keys]
            assert s.counts_per_level() == [sum(k.level == lvl for k in keys) for lvl in range(4)]
            probe = [keys[i] for i in rng.permutation(len(keys))[: int(rng.integers(1, len(keys) + 1))]]
            assert rows_of(s, probe).tolist() == [keys.index(k) for k in probe]
            assert np.array_equal(finest_cover(s)[0], finest_cover_oracle(h, w, keys))
            want = target_scores_oracle(bmap, frontier)
            assert np.array_equal(boundary.target_scores(bmap, frontier), want)
            assert np.array_equal(boundary.target_scores(boundary.SummedArea(bmap), s.table[s.frontier_rows]), want)
        assert s.keys == final.keys and s.frontier == final.frontier
        validate(s)

    def test_rows_of_rejects_keys_outside_the_set(self):
        s = coarse_grid(64, 64)
        with pytest.raises(ContractError, match="not in the set"):
            rows_of(s, [s.keys[0], TokenKey(1, 0, 0)])

    def test_coarse_grid_is_shared_and_read_only(self):
        a, b = coarse_grid(64, 96), coarse_grid(64, 96)
        assert a is b
        with pytest.raises(ValueError):
            a.table[0, 0] = 1
        with pytest.raises(ValueError):
            a.frontier_rows[0] = 1

    def test_each_coarse_grid_call_charges_its_sort(self):
        coarse_grid(64, 96)
        with flops.meter() as m:
            coarse_grid(64, 96)
            coarse_grid(64, 96)
        assert m.total().comparisons == 2 * flops.sort_comparisons(6)

    def test_patches_match_slicing(self, rng):
        image = rng.random((64, 96, 3))
        for level in range(4):
            side = 32 >> level
            keys = [TokenKey(level, 0, 0), TokenKey(level, 64 // side - 1, 96 // side - 1), TokenKey(level, 1, 2)]
            got = geometry.patches(image, level, np.array([k.row for k in keys]), np.array([k.col for k in keys]))
            want = [image[y0:y1, x0:x1].reshape(-1) for y0, x0, y1, x1 in (k.rect() for k in keys)]
            assert np.array_equal(got, np.stack(want))
