"""Encoder configuration: dims/blocks per round, allocation thresholds, and
the allocation-policy switches, with JSON round-tripping and digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

POLICIES = ("adaptive", "dense", "random_ratio", "oracle_mix")
# fields of the allocation policy: none of them shapes a parameter
POLICY_FIELDS = ("policy", "thresholds", "ratio_schedule", "oracle_rate", "policy_seed")
ROUNDS = 3  # allocation rounds after the pre-allocation pass


@dataclass(frozen=True)
class EncoderConfig:
    name: str
    input_h: int
    input_w: int
    n_classes: int
    stage1_dims: tuple[int, int, int, int]
    stage1_blocks: tuple[int, int, int, int]
    stage2_dims: tuple[int, int, int, int]
    stage2_blocks: tuple[int, int, int, int]
    thresholds: tuple[float, float, float] = (0.005, 0.01, 0.02)
    cluster_size: int = 32
    connectivity: int = 4
    channels: int = 3
    policy: str = "adaptive"
    ratio_schedule: tuple[float, float, float] = (0.25, 0.25, 0.25)
    oracle_rate: float = 0.0
    policy_seed: int = 0
    # ablation switches
    stage1_only: bool = False
    no_aux_image: bool = False
    no_residual: bool = False

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        for nm in ("stage1_dims", "stage1_blocks", "stage2_dims", "stage2_blocks"):
            if len(getattr(self, nm)) != 4:
                raise ValueError(f"{nm} must list 4 rounds")
        for nm in ("stage1_blocks", "stage2_blocks"):
            if min(getattr(self, nm)) < 0:
                raise ValueError(f"{nm} must not be negative, got {getattr(self, nm)}")
        if min(self.stage1_dims) < 1:
            raise ValueError(f"stage1_dims must be at least 1, got {self.stage1_dims}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be at least 1, got {self.n_classes}")
        if len(self.thresholds) != ROUNDS:
            raise ValueError(f"need {ROUNDS} thresholds")
        # NaN fails `t > 0`; inf passes and splits nothing
        if not all(t > 0 for t in self.thresholds):
            raise ValueError(f"thresholds must be positive, got {self.thresholds}")
        if len(self.ratio_schedule) != ROUNDS:
            raise ValueError(f"need {ROUNDS} ratios")
        if not all(0.0 <= r <= 1.0 for r in self.ratio_schedule):
            raise ValueError("ratios must lie in [0, 1]")
        if not 0.0 <= self.oracle_rate <= 1.0:
            raise ValueError("oracle rate must lie in [0, 1]")
        if self.input_h % 32 or self.input_w % 32:
            raise ValueError("configured input extent must be divisible by 32")
        for a, b in zip(self.stage1_dims, self.stage1_dims[1:]):
            if a != 2 * b:
                raise ValueError("stage-1 dims must halve per round")
        if tuple(self.stage2_dims) != tuple(reversed(self.stage1_dims)):
            raise ValueError("stage-2 dims must mirror stage-1 dims")
        if self.stage1_blocks[3] != 0:
            raise ValueError("the final allocation round carries no attention blocks")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")

    def scorer_hidden(self, round_index: int) -> int:
        """Allocator-MLP hidden width for allocation round 1..3."""
        return max(self.stage1_dims[round_index] // 2, 1)

    def heads_for(self, dim: int) -> int:
        return max(dim // 32, 1)

    @property
    def coarse_tokens(self) -> int:
        return (self.input_h // 32) * (self.input_w // 32)

    @property
    def head_cells(self) -> int:
        return (self.input_h // 4) * (self.input_w // 4)

    def to_json_dict(self) -> dict:
        # every field is a scalar or a flat sequence of scalars, so a shallow
        # walk copies as much as `dataclasses.asdict` would
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), (tuple, list)) else v for f in fields(self)
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EncoderConfig":
        kwargs = dict(d)
        for nm in (
            "stage1_dims",
            "stage1_blocks",
            "stage2_dims",
            "stage2_blocks",
            "thresholds",
            "ratio_schedule",
        ):
            if nm in kwargs:
                kwargs[nm] = tuple(kwargs[nm])
        return cls(**kwargs)

    def digest(self) -> str:
        return _digest(self.to_json_dict())

    def architecture_digest(self) -> str:
        """Digest of every field but the allocation policy's
        (`POLICY_FIELDS`): equal for configs that share parameters."""
        return _digest({k: v for k, v in self.to_json_dict().items() if k not in POLICY_FIELDS})

    def with_overrides(self, **kw) -> "EncoderConfig":
        return replace(self, **kw)


def _digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _preset(name, h, w, d1, b1, b2, cluster, classes=6):
    return EncoderConfig(
        name=name,
        input_h=h,
        input_w=w,
        n_classes=classes,
        stage1_dims=d1,
        stage1_blocks=b1,
        stage2_dims=tuple(reversed(d1)),
        stage2_blocks=b2,
        cluster_size=cluster,
    )


def nano(h: int = 64, w: int = 64, classes: int = 6) -> EncoderConfig:
    """Desk-scale config, small enough for finite-difference checks."""
    return _preset("nano", h, w, (64, 32, 16, 8), (1, 1, 1, 0), (1, 1, 2, 1), 8, classes)


def tiny(h: int = 512, w: int = 512, classes: int = 150) -> EncoderConfig:
    return _preset("tiny", h, w, (512, 256, 128, 64), (1, 1, 1, 0), (4, 4, 16, 4), 32, classes)


def small(h: int = 512, w: int = 512, classes: int = 150) -> EncoderConfig:
    return _preset("small", h, w, (512, 256, 128, 64), (2, 2, 2, 0), (4, 6, 24, 3), 32, classes)


def base(h: int = 512, w: int = 512, classes: int = 150) -> EncoderConfig:
    return _preset("base", h, w, (768, 384, 192, 96), (2, 2, 2, 0), (8, 6, 18, 4), 32, classes)


PRESETS = {"nano": nano, "tiny": tiny, "small": small, "base": base}


def load_config(source: str) -> EncoderConfig:
    """Accepts a preset name or a path to a JSON config file."""
    if source in PRESETS:
        return PRESETS[source]()
    with open(source) as f:
        try:
            d = json.load(f)
            if not isinstance(d, dict):
                raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
            return EncoderConfig.from_json_dict(d)
        except (TypeError, ValueError) as exc:  # malformed JSON, not an object, an unknown field or a bad value
            raise ValueError(f"{source}: {exc}") from exc


def save_config(path, cfg: EncoderConfig):
    with open(path, "w") as f:
        json.dump(cfg.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
