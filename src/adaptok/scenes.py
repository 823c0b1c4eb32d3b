"""Synthetic desk-scale scenes: axis-aligned rectangles and ellipses of
flat-colored classes over a background, with per-pixel labels. Boundary
density is controlled by region count and size; everything is derived
deterministically from (seed, index)."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import pnm
from .boundary import IGNORE
from .config import check_fields
from .geometry import COARSE_SIDE
from .params import rng_for


@dataclass(frozen=True)
class SceneSpec:
    height: int = 64
    width: int = 64
    n_classes: int = 6  # class 0 is the background
    max_regions: int = 4
    min_region: int = 10
    uniform_fraction: float = 0.125  # scenes forced to a single class
    noise: float = 0.002

    def __post_init__(self):
        check_fields(self, _SPEC_RULES, prefix="scene spec ")
        # a region draws its class from 1..n_classes-1
        if self.n_classes < 2 and self.max_regions > 0 and self.uniform_fraction < 1:
            raise ValueError(
                f"scene spec n_classes must be at least 2 when regions can be drawn "
                f"(max_regions > 0 and uniform_fraction < 1), got {self.n_classes}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SceneSpec":
        return cls(**d)


_SPEC_RULES = {
    **dict.fromkeys(("height", "width", "n_classes", "min_region"), ("lie in [1, inf)", lambda v: v >= 1)),
    "max_regions": ("lie in [0, inf)", lambda v: v >= 0),
    "uniform_fraction": ("lie in [0, 1]", lambda v: 0 <= v <= 1),
    "noise": ("lie in [0, inf)", lambda v: 0 <= v < math.inf),
}


@dataclass
class SyntheticScene:
    image: np.ndarray  # (H, W, 3) float64 in [0, 1]
    labels: np.ndarray  # (H, W) int64
    seed: int


def class_color(cls: int) -> np.ndarray:
    # fixed low-discrepancy palette; distinct enough for flat regions
    return np.array(
        [
            (0.12 + 0.618033 * cls) % 1.0,
            (0.45 + 0.381966 * cls) % 1.0,
            (0.78 + 0.218033 * cls) % 1.0,
        ]
    )


def generate_scene(seed: int, spec: SceneSpec) -> SyntheticScene:
    """Each region writes only its clipped bounding box; the noise draw is
    the one full-frame temporary."""
    rng = rng_for(seed, "scene")
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.int64)
    uniform = rng.random() < spec.uniform_fraction
    n_regions = 0 if uniform else int(rng.integers(0, spec.max_regions + 1))
    for _ in range(n_regions):
        cls = int(rng.integers(1, spec.n_classes))
        kind = rng.random() < 0.5
        ry = int(rng.integers(spec.min_region, max(h // 2, spec.min_region + 1)))
        rx = int(rng.integers(spec.min_region, max(w // 2, spec.min_region + 1)))
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        # both kinds lie in |y - cy| <= ry // 2, |x - cx| <= rx // 2: outside
        # it one ellipse term alone exceeds 1
        y0, x0 = max(cy - ry // 2, 0), max(cx - rx // 2, 0)
        box = labels[y0 : cy + ry // 2 + 1, x0 : cx + rx // 2 + 1]
        if kind:
            box[...] = cls
        else:
            yy = np.arange(y0, y0 + box.shape[0])[:, None]
            xx = np.arange(x0, x0 + box.shape[1])[None, :]
            box[((yy - cy) / (ry / 2)) ** 2 + ((xx - cx) / (rx / 2)) ** 2 <= 1.0] = cls
    palette = np.array([class_color(c) for c in range(spec.n_classes)])
    image = palette[labels]
    noise = rng.standard_normal((h, w, 3))
    noise *= spec.noise
    image += noise
    return SyntheticScene(image=np.clip(image, 0.0, 1.0, out=image), labels=labels, seed=seed)


def scene_seed(corpus_seed: int, index: int) -> int:
    return int(rng_for(corpus_seed, "corpus", index).integers(0, 2**63 - 1))


def generate_corpus(corpus_seed: int, count: int, spec: SceneSpec) -> list[SyntheticScene]:
    return [generate_scene(scene_seed(corpus_seed, i), spec) for i in range(count)]


def corpus_descriptor(corpus_seed: int, count: int, spec: SceneSpec) -> dict:
    return {
        "kind": "synthetic",
        "seed": corpus_seed,
        "count": count,
        "scene_spec": spec.to_json_dict(),
    }


def corpus_from_descriptor(desc: dict) -> list[SyntheticScene]:
    if desc.get("kind") != "synthetic":
        raise ValueError(f"unsupported corpus descriptor kind {desc.get('kind')!r}")
    spec = SceneSpec.from_json_dict(desc["scene_spec"])
    return generate_corpus(desc["seed"], desc["count"], spec)


def save_corpus(out_dir, scenes: list[SyntheticScene], desc: dict | None = None):
    """Materialize image/label pairs (PPM + 16-bit PGM) plus the descriptor."""
    os.makedirs(out_dir, exist_ok=True)
    for i, sc in enumerate(scenes):
        pnm.write_ppm8(os.path.join(out_dir, f"scene_{i:05d}.ppm"), sc.image)
        pnm.write_pgm16(os.path.join(out_dir, f"scene_{i:05d}.pgm"), sc.labels.astype(np.uint16))
    if desc is not None:
        with open(os.path.join(out_dir, "corpus.json"), "w") as f:
            json.dump(desc, f, indent=2, sort_keys=True)
            f.write("\n")


def pad_to_grid(image: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad bottom/right to the next multiple of the coarse patch side;
    padded label pixels become IGNORE so they never contribute boundaries."""
    h, w = labels.shape
    hp, wp = -(-h // COARSE_SIDE) * COARSE_SIDE, -(-w // COARSE_SIDE) * COARSE_SIDE
    if (hp, wp) == (h, w):
        return image, labels
    img = np.zeros((hp, wp, image.shape[2]), dtype=image.dtype)
    img[:h, :w] = image
    lab = np.full((hp, wp), IGNORE, dtype=labels.dtype)
    lab[:h, :w] = labels
    return img, lab


def load_corpus_dir(path, shape: tuple[int, int]) -> list[SyntheticScene]:
    """Read back image/label pairs written by save_corpus (or any PPM/PGM
    pairs following the same naming). Ragged sizes are padded to the token
    grid, which must come to `shape`, the config's (H, W); a pair that
    does not raises ValueError naming its file, as does a directory with no
    .ppm image."""
    scenes = []
    names = sorted(n for n in os.listdir(path) if n.endswith(".ppm"))
    if not names:
        raise ValueError(f"corpus is empty: {path} holds no .ppm image")
    for n in names:
        file = os.path.join(path, n)
        img = pnm.read_ppm8(file).astype(np.float64)
        img /= 255.0
        lab = pnm.read_pgm16(file[:-4] + ".pgm").astype(np.int64)
        if img.shape[:2] != lab.shape:
            raise ValueError(f"{file}: image is {img.shape[0]}x{img.shape[1]}, its label map {lab.shape[0]}x{lab.shape[1]}")
        img, lab = pad_to_grid(img, lab)
        if lab.shape != tuple(shape):
            raise ValueError(f"{file}: pads to {lab.shape[0]}x{lab.shape[1]}, the config takes {shape[0]}x{shape[1]}")
        scenes.append(SyntheticScene(image=img, labels=lab, seed=-1))
    return scenes
