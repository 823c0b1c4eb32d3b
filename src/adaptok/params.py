"""Model parameters: named f64 arrays, seeded deterministic init, and a
little-endian binary container keyed to the architecture digest.

Every parameter's init stream is derived from (seed, name) through a
counter-style hash, so adding or reordering parameters never shifts the
values of existing ones.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .config import EncoderConfig
from .tensor import Tensor

MAGIC = b"ADTKPAR1"
VERSION = 1
MLP_RATIO = 4
EMB_SCALE = 0.02
SCORER_BIAS_INIT = -3.0  # targets are rare small fractions; start scores low


def rng_for(seed: int, *tags) -> np.random.Generator:
    h = hashlib.sha256(str(int(seed)).encode())
    for t in tags:
        h.update(b"/")
        h.update(str(t).encode())
    # four little-endian words, so every host draws the same streams
    return np.random.default_rng(np.random.SeedSequence(struct.unpack("<4I", h.digest()[:16])))


class ParamStore:
    """Named float64 parameters laid out in one arena, `flat`: each
    parameter's `data` is a writable C-contiguous view of its slot, in
    spec order, so a write through `store[name].data` moves `flat` and
    whole-model passes (Adam, finite checks) are single vector ops.

    The store is laid out once from `specs`, (name, shape, fill) triples,
    where fill(out) writes the values into their slot (None: zeros). The
    arena is sized exactly and nothing is made outside it, so a big model
    is never held twice."""

    def __init__(self, specs):
        specs = [(name, tuple(shape), fill) for name, shape, fill in specs]
        self.flat = np.zeros(sum(math.prod(shape) for _, shape, _ in specs))
        self._params: dict[str, Tensor] = {}
        lo = 0
        for name, shape, fill in specs:
            if name in self._params:
                raise ValueError(f"duplicate parameter {name}")
            view = self.flat[lo : lo + math.prod(shape)].reshape(shape)
            self._params[name] = Tensor(view, requires_grad=True)
            if fill is not None:
                fill(view)
            lo += view.size

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)


def _linear(specs, seed, name, d_in, d_out, bias: float = 0.0):
    def weights(out):
        rng_for(seed, name, "w").standard_normal(out=out)
        out /= np.sqrt(d_in)

    specs.append((f"{name}.w", (d_in, d_out), weights))
    specs.append((f"{name}.b", (d_out,), lambda out: out.fill(bias)))


def _layer_norm(specs, name, d):
    specs.append((f"{name}.g", (d,), lambda out: out.fill(1.0)))
    specs.append((f"{name}.b", (d,), None))


def _embedding(specs, seed, name, shape):
    def values(out):
        rng_for(seed, name).standard_normal(out=out)
        out *= EMB_SCALE

    specs.append((name, shape, values))


def _block(specs, seed, prefix, d, key_scale: bool):
    _layer_norm(specs, f"{prefix}.ln1", d)
    for nm in ("q", "k", "v", "o"):
        _linear(specs, seed, f"{prefix}.{nm}", d, d)
    if key_scale:
        _embedding(specs, seed, f"{prefix}.key_scale", (4, d))
    _layer_norm(specs, f"{prefix}.ln2", d)
    _linear(specs, seed, f"{prefix}.mlp1", d, MLP_RATIO * d)
    _linear(specs, seed, f"{prefix}.mlp2", MLP_RATIO * d, d)


def init_coarse_embed(specs, cfg: EncoderConfig, seed: int):
    d0 = cfg.stage1_dims[0]
    _linear(specs, seed, "s1.embed", 32 * 32 * cfg.channels, d0)
    _embedding(specs, seed, "s1.embed.pos", (cfg.coarse_tokens, d0))


def init_params(cfg: EncoderConfig, seed: int) -> ParamStore:
    specs = []
    init_coarse_embed(specs, cfg, seed)
    d0 = cfg.stage1_dims[0]
    for i in range(cfg.stage1_blocks[0]):
        _block(specs, seed, f"s1.pre.{i}", d0, key_scale=False)
    for r in (1, 2, 3):
        d = cfg.stage1_dims[r]
        side = 32 >> r
        _linear(specs, seed, f"s1.r{r}.proj", cfg.stage1_dims[r - 1], d)
        hid = cfg.scorer_hidden(r)
        _linear(specs, seed, f"s1.r{r}.score1", d, hid)
        _linear(specs, seed, f"s1.r{r}.score2", hid, 1, bias=SCORER_BIAS_INIT)
        if not cfg.no_aux_image:
            _linear(specs, seed, f"s1.r{r}.child.pix", side * side * cfg.channels, d)
            _linear(specs, seed, f"s1.r{r}.child.mlp1", d, d)
            _linear(specs, seed, f"s1.r{r}.child.mlp2", d, d)
        _embedding(specs, seed, f"s1.r{r}.scale_emb", (d,))
        _embedding(specs, seed, f"s1.r{r}.slot_emb", (4, d))
        for i in range(cfg.stage1_blocks[r]):
            _block(specs, seed, f"s1.r{r}.blk{i}", d, key_scale=True)
    head_dim = cfg.stage2_dims[0]
    if cfg.stage1_only:
        _block(specs, seed, "s1x.blk", cfg.stage1_dims[3], key_scale=True)
        for lvl in (2, 1, 0):
            _linear(specs, seed, f"s1x.align{lvl}", cfg.stage1_dims[3], cfg.stage1_dims[3])
    else:
        for k in (1, 2, 3, 4):
            d = cfg.stage2_dims[k - 1]
            if k >= 2:
                _linear(specs, seed, f"s2.r{k}.proj", cfg.stage2_dims[k - 2], d)
                _linear(specs, seed, f"s2.r{k}.fuse", 2 * d, d)
            for i in range(cfg.stage2_blocks[k - 1]):
                _block(specs, seed, f"s2.r{k}.blk{i}", d, key_scale=k < 4)
        for lvl in (2, 1, 0):
            _linear(specs, seed, f"dens.align{lvl}", cfg.stage2_dims[3 - lvl], head_dim)
    _embedding(specs, seed, "dens.pos", (cfg.head_cells, head_dim))
    _linear(specs, seed, "head", head_dim, cfg.n_classes)
    return ParamStore(specs)


def save_params(path, store: ParamStore, cfg: EncoderConfig):
    digest = bytes.fromhex(cfg.architecture_digest())
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(digest)
        names = sorted(store.names())
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = store[name].data
            enc = name.encode()
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.astype("<f8").tobytes())


class _Reader:
    """Cursor over the bytes of a container (`noun` names its kind); running
    short or stopping short of the end is a ValueError that names the file
    and what was being read."""

    def __init__(self, blob: bytes, path, noun: str = "parameter container"):
        self.blob = blob
        self.path = path
        self.noun = noun
        self.pos = 0

    def skip(self, n: int, what: str) -> int:
        """Step over n bytes; returns their offset."""
        if self.pos + n > len(self.blob):
            raise ValueError(
                f"{self.path}: truncated {self.noun}: {what} needs {n} bytes at offset {self.pos}, "
                f"{len(self.blob) - self.pos} left"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int, what: str) -> bytes:
        lo = self.skip(n, what)
        return self.blob[lo : lo + n]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def finish(self, what: str):
        """Check that no bytes follow what was read, `what` describing it."""
        if self.pos != len(self.blob):
            raise ValueError(f"{self.path}: {self.noun} has {len(self.blob) - self.pos} trailing bytes {what}")


def load_params(path, cfg: EncoderConfig) -> ParamStore:
    """Read a container built for `cfg`'s architecture; raises ValueError
    naming the file and the cause (and the parameter) for a bad magic or
    version, an architecture mismatch, a truncated file, trailing bytes or
    non-finite values. Containers keyed to the full config digest, as
    written before the architecture digest, still load. Values are copied
    from the file's bytes straight into the arena."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a parameter container")
    r.take(8, "magic")
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    digest = r.take(32, "config digest")
    if digest not in (bytes.fromhex(cfg.architecture_digest()), bytes.fromhex(cfg.digest())):
        raise ValueError(f"{path}: parameter container was built for a different config")
    (count,) = r.unpack("<I", "parameter count")
    specs = []
    for i in range(count):
        (name_len,) = r.unpack("<H", f"name length of parameter {i}")
        name = r.take(name_len, f"name of parameter {i}").decode()
        (ndim,) = r.unpack("<B", f"rank of parameter {name}")
        shape = r.unpack(f"<{ndim}I", f"shape of parameter {name}")
        n = math.prod(shape)
        lo = r.skip(8 * n, f"values of parameter {name}")
        values = np.frombuffer(r.blob, dtype="<f8", count=n, offset=lo).reshape(shape)
        specs.append((name, shape, lambda out, values=values: np.copyto(out, values)))
    r.finish(f"after {count} parameters")
    store = ParamStore(specs)
    if not np.isfinite(store.flat).all():
        name = next(name for name, t in store.items() if not np.isfinite(t.data).all())
        raise ValueError(f"{path}: parameter {name} has non-finite values")
    return store
