import numpy as np
import pytest

from adaptok import boundary, config, geometry, params, scenes, tensor
from adaptok.errors import ContractError
from adaptok.geometry import TokenKey
from adaptok.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def nano_cfg():
    return config.nano()


@pytest.fixture
def nano_store(nano_cfg):
    return params.init_params(nano_cfg, seed=0)


@pytest.fixture
def scene_spec():
    return scenes.SceneSpec()


def split(parent):
    """The four level+1 children tiling the parent's rectangle, row-major:
    the child order of `TokenBatch.children`."""
    if parent.level >= geometry.MAX_LEVEL:
        raise ContractError(f"cannot split a level-{geometry.MAX_LEVEL} token")
    lvl, r, c = parent.level + 1, 2 * parent.row, 2 * parent.col
    return (TokenKey(lvl, r, c), TokenKey(lvl, r, c + 1), TokenKey(lvl, r + 1, c), TokenKey(lvl, r + 1, c + 1))


def parent_of(key):
    if key.level == 0:
        raise ContractError("level-0 token has no parent")
    return TokenKey(key.level - 1, key.row // 2, key.col // 2)


def rows_of(s, keys):
    """Row of each key in the set `s`; ContractError for a key not in it."""
    cols = geometry.key_columns(keys)
    want = geometry._order_keys(*cols.T)
    order = s.table[:, 3]
    rows = np.searchsorted(order, want)
    found = rows < len(order)
    found[found] = order[rows[found]] == want[found]
    if not found.all():
        missing = [TokenKey._make(k) for k in cols[~found].tolist()]
        raise ContractError(f"tokens not in the set: {missing}")
    return rows


def with_children(s, parents):
    """`s.grow` by splitting the TokenKeys `parents`, each a token of `s`;
    `perm` follows `parents` x `split` order."""
    return s.grow(rows_of(s, parents))


def validate(s):
    """Check a token set's structural invariants; ContractError on a
    violation."""
    seen = set(s.keys)
    if len(seen) != len(s.keys):
        raise ContractError("duplicate token keys")
    n0 = (s.height // geometry.COARSE_SIDE) * (s.width // geometry.COARSE_SIDE)
    if s.counts_per_level()[0] != n0:
        raise ContractError("level-0 tokens do not tile the image")
    for k in s.keys:
        side = k.patch_side
        if not (0 <= k.row < s.height // side and 0 <= k.col < s.width // side):
            raise ContractError(f"token {k} out of bounds")
        if k.level > 0 and parent_of(k) not in seen:
            raise ContractError(f"token {k} is missing its parent")
    # all-or-none sibling groups
    by_parent: dict[TokenKey, int] = {}
    for k in s.keys:
        if k.level > 0:
            by_parent[parent_of(k)] = by_parent.get(parent_of(k), 0) + 1
    for p, n in by_parent.items():
        if n != 4:
            raise ContractError(f"parent {p} has {n} children, expected 4")
    order = s.table[:, 3]
    if not np.array_equal(order, geometry._order_keys(*s.table[:, :3].T)) or np.any(np.diff(order) <= 0):
        raise ContractError("keys are not in canonical order")


def grow_random_set(h, w, p, rng):
    """Random allocation trace over pure geometry: each frontier token is
    selected with probability p per round."""
    s = geometry.coarse_grid(h, w)
    selections = []
    for _ in range(3):
        sel = [k for k in s.frontier if rng.random() < p]
        selections.append(sel)
        if not sel:
            s = s.without_frontier()
            continue
        s, _ = with_children(s, sel)
    return s, selections


def canonical_rank_oracle(keys):
    """Per-key canonical rank: lexsort of the Morton code of the doubled
    patch center, then level, row and col."""
    lvl, row, col = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    side = 32 >> lvl
    code = (geometry._part1by1((2 * row + 1) * side) << 1) | geometry._part1by1((2 * col + 1) * side)
    return np.lexsort((col, row, lvl, code))


def with_children_oracle(keys, parents):
    """Per-key `with_children`: the grown keys, the frontier and `perm`."""
    merged = list(keys) + [c for p in parents for c in split(p)]
    perm = canonical_rank_oracle(merged)
    grown = tuple(merged[i] for i in perm)
    return grown, tuple(k for k, i in zip(grown, perm) if i >= len(keys)), perm


def batch_grow_oracle(sets, parent_rows):
    """Per-set `grow`s composed into one stacked batch: sample i's grown rows
    are its old rows, offset to where they sit in the batch, and its
    children, which follow every old row. `parent_rows` holds each sample's
    parents as rows of its own set. Returns the grown sets and `perm`."""
    child_row, offset, perm, grown = sum(s.n_valid for s in sets), 0, [], []
    for s, rows in zip(sets, parent_rows):
        if not len(rows):
            grown.append(s.without_frontier())
            perm.append(offset + np.arange(s.n_valid))
        else:
            s_new, p = s.grow(rows)
            perm.append(np.where(p < s.n_valid, offset + p, child_row + p - s.n_valid))
            child_row += 4 * len(rows)
            grown.append(s_new)
        offset += s.n_valid
    return grown, np.concatenate(perm)


def finest_cover_oracle(height, width, keys):
    """Per-key `finest_cover`: paint every token, coarse levels first."""
    cover = np.full((height, width), -1, dtype=np.int64)
    for i in np.argsort([k.level for k in keys], kind="stable"):
        y0, x0, y1, x1 = keys[i].rect()
        cover[y0:y1, x0:x1] = i
    return cover


def target_scores_oracle(bmap, tokens):
    """Per-key `target_scores`: boundary pixels of each patch over its area."""
    scores = []
    for k in tokens:
        y0, x0, y1, x1 = k.rect()
        scores.append(float(bmap[y0:y1, x0:x1].sum()) / ((y1 - y0) * (x1 - x0)))
    return np.asarray(scores, dtype=np.float64)


def cell_majority_oracle(labels, cell=4):
    """Per-class `cell_majority_labels`: one compare-and-sum pass per class."""
    h, w = labels.shape
    blocks = labels.reshape(h // cell, cell, w // cell, cell).transpose(0, 2, 1, 3).reshape(h // cell, w // cell, -1)
    out = np.full((h // cell, w // cell), boundary.IGNORE, dtype=np.int64)
    best = np.zeros((h // cell, w // cell), dtype=np.int64)
    classes = np.unique(labels)
    for cls in classes[classes != boundary.IGNORE]:
        count = (blocks == cls).sum(axis=2)
        wins = count > best
        out[wins] = cls
        best[wins] = count[wins]
    return out


def array_specs(arrays):
    """`params.ParamStore` specs that copy each named array into its slot."""
    return [(name, np.shape(a), lambda out, a=a: np.copyto(out, a)) for name, a in arrays.items()]


def finite_difference(f, t, idx, h=1e-5):
    """Central difference of scalar-valued f with respect to t.data[idx]."""
    orig = t.data[idx]
    t.data[idx] = orig + h
    up = f()
    t.data[idx] = orig - h
    down = f()
    t.data[idx] = orig
    return (up - down) / (2 * h)


def mul(a, b):
    """Elementwise product as a tape node: a test-only op for building
    scalar losses out of any primitive's output."""
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    tensor._record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def reshape(a, shape):
    """Reshape as a tape node whose gradient is a view (test-only)."""
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape
    tensor._record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)
