"""Encoder configuration: dims/blocks per round, allocation thresholds, and
the allocation-policy switches, with JSON round-tripping and digests."""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import typing
from dataclasses import dataclass

POLICIES = ("adaptive", "dense", "random_ratio", "oracle_mix")
# fields of the allocation policy: none of them shapes a parameter
POLICY_FIELDS = ("policy", "thresholds", "ratio_schedule", "oracle_rate", "policy_seed")
ROUNDS = 3  # allocation rounds after the pre-allocation pass

# a scalar kind's noun and the types of its values; a number is also not NaN
_SCALARS = {bool: ("a bool", {bool}), int: ("an int", {int}), float: ("a number", {int, float}), str: ("a string", {str})}


@functools.cache
def _kind(annotation) -> tuple[str, set, int | None]:
    """(noun, types, item count) of a scalar kind, whose count is None, or
    of a `tuple` of n items of one scalar kind."""
    if not (items := typing.get_args(annotation)):
        return (*_SCALARS[annotation], None)
    noun, types = _SCALARS[items[0]]
    return f"{len(items)} {noun.split()[-1]}s", types, len(items)


@functools.cache
def _field_kinds(cls) -> tuple:
    return tuple((name, _kind(hint)) for name, hint in typing.get_type_hints(cls).items())


def _check(name: str, value, kind, rule, prefix: str):
    noun, types, n = kind
    # `v == v` fails only for NaN
    if n is None:
        fits = type(value) in types and value == value
        if fits and (rule is None or rule[1](value)):
            return
    else:
        fits = type(value) is tuple and len(value) == n and types.issuperset(map(type, value)) and all(map(operator.eq, value, value))
        if fits and (rule is None or all(map(rule[1], value))):
            return
    text = rule[0] if fits else f"be {noun}" if rule is None else f"{rule[0]} ({noun})"
    raise ValueError(f"{prefix}{name} must {text}, got {value!r}")


def check(name: str, value, annotation, rule: tuple[str, typing.Callable] | None = None):
    """Raise ValueError "{name} must {text}, got {value!r}" unless `value`
    is of the annotated kind and passes the test of `rule`, a (text, test)
    pair, item by item for a tuple; when the kind fails, the text names it
    too. A kind is exact: `int` (not a bool), `float` (an int or float, not
    NaN), `bool`, `str`, or a `tuple` of n of one of them."""
    _check(name, value, _kind(annotation), rule, "")


def check_fields(obj, rules: dict, prefix: str = ""):
    """`check` on every field of dataclass `obj`, against its annotation
    (resolved once per class) and `rules[name]`, the message led by
    `prefix`."""
    for name, kind in _field_kinds(type(obj)):
        _check(name, getattr(obj, name), kind, rules.get(name), prefix)


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
        check_fields(self, _RULES)
        d1 = self.stage1_dims
        if any(a != 2 * b for a, b in zip(d1, d1[1:])):
            raise ValueError(f"stage1_dims must halve per round, got {d1}")
        if self.stage2_dims != d1[::-1]:
            raise ValueError(f"stage2_dims must be the stage-1 dims reversed, {d1[::-1]}, got {self.stage2_dims}")
        if self.stage1_blocks[3]:
            raise ValueError(f"stage1_blocks must end in 0: the final allocation round has no blocks, got {self.stage1_blocks}")

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
        """Every field as JSON, a number as a float: equal configs share a digest."""
        d = {}
        for name, (_, types, n) in _field_kinds(type(self)):
            v = getattr(self, name)
            if float in types:
                v = float(v) if n is None else map(float, v)
            d[name] = v if n is None else list(v)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})

    def digest(self) -> str:
        return _digest(self.to_json_dict())

    def architecture_digest(self) -> str:
        """Digest of every field but the allocation policy's
        (`POLICY_FIELDS`): equal for configs that share parameters."""
        return _digest({k: v for k, v in self.to_json_dict().items() if k not in POLICY_FIELDS})

    def with_overrides(self, **kw) -> "EncoderConfig":
        return EncoderConfig(**{**vars(self), **kw})


# `EncoderConfig`'s field rules beyond their kinds; a tuple's hold item by item
_RULES = {
    **dict.fromkeys(("input_h", "input_w"), ("be a positive multiple of 32", lambda v: v >= 32 and v % 32 == 0)),
    **dict.fromkeys(("n_classes", "stage1_dims", "cluster_size"), ("be at least 1", lambda v: v >= 1)),
    **dict.fromkeys(("stage1_blocks", "stage2_blocks"), ("not be negative", lambda v: v >= 0)),
    **dict.fromkeys(("ratio_schedule", "oracle_rate"), ("lie in [0, 1]", lambda v: 0 <= v <= 1)),
    "thresholds": ("be positive", lambda v: v > 0),  # inf passes and splits nothing
    "connectivity": ("be 4 or 8", lambda v: v in (4, 8)),
    "channels": ("be 3", lambda v: v == 3),  # every reader makes RGB
    "policy": (f"be one of {', '.join(POLICIES)}", lambda v: v in POLICIES),
}


def _digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _preset(name, h, w, d1, b1, b2, cluster, classes=6):
    return EncoderConfig(
        name=name, input_h=h, input_w=w, n_classes=classes, stage1_dims=d1, stage1_blocks=b1,
        stage2_dims=d1[::-1], stage2_blocks=b2, cluster_size=cluster,
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
