import dataclasses

import numpy as np
import pytest

from adaptok import config, geometry, params, scenes, tensor
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


def grow_random_set(h, w, p, rng):
    """Random allocation trace over pure geometry: each frontier token is
    selected with probability p per round."""
    s = geometry.coarse_grid(h, w)
    selections = []
    for _ in range(3):
        sel = [k for k in s.frontier if rng.random() < p]
        selections.append(sel)
        if not sel:
            s = dataclasses.replace(s, frontier=())
            continue
        s, _ = s.with_children(sel)
    return s, selections


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
