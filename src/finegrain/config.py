"""Run configuration: plain key=value sections, lossless round-trip, hashing.

`RunConfig` is the one table of settings: each setting's default is
declared there once, its type is read from the field annotation, and each
numeric setting's lowest value is declared once, in `LOWEST_VALUES`.  What
no run varies is a constant, not a setting: PEVL's position-bin count is
`vocab.POSITION_BINS` and the initial contrastive temperature is
`model.TEMPERATURE_INIT`.  The model keeps the config, and its training
step and the losses read it there.  The seed is mandatory (nothing falls
back to wall-clock time) and the canonical rendering of a config, with
`sources` in `DATA_SOURCES` order, is hashed into every artifact the run
writes, so reusing a run directory or checkpoint with another config is a
hard error.  A loss arm is one key, `losses`, whose value names a row of
`LOSS_ARMS`.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .errors import ValidationError
from .fileio import atomic_open
from .synthdata import DATA_SOURCES
from .vocab import Vocabulary

# each config section and its first key: a section holds the `RunConfig`
# fields from its first key to the next section's, in field order
_SECTION_STARTS = {"run": "seed", "model": "patch_grid", "ablation": "losses",
                   "data": "data_seed", "train": "learning_rate"}


class LossArm(NamedTuple):
    """What a loss arm adds to the base losses (contrastive, matching, masked LM)."""
    vma: bool  # the same passes on box-masked images (X-VLM)
    bbox: bool  # box regression from the matched [CLS] (X-VLM)
    pevl: bool  # position tokens in detection texts (PEVL)


LOSS_ARMS = {
    "A": LossArm(vma=False, bbox=False, pevl=False),
    "A+VMA": LossArm(vma=True, bbox=False, pevl=False),
    "A+bbox": LossArm(vma=False, bbox=True, pevl=False),
    "full": LossArm(vma=True, bbox=True, pevl=False),
    "pevl": LossArm(vma=False, bbox=False, pevl=True),
}

# each numeric setting's lowest value; `learning_rate` has its own rule (> 0)
LOWEST_VALUES = {
    # numpy rejects a negative seed
    "seed": 0, "data_seed": 0, "eval_seed": 0,
    "steps": 1, "cadence": 1,
    # a 1x1 grid holds one object, so no scene supports the two-object subtasks
    "patch_grid": 2,
    "hidden_dim": 1, "vision_layers": 1, "text_layers": 1, "cross_layers": 1, "heads": 1,
    "proj_dim": 1, "mlp_dim": 1, "max_len": 1,
    "caption_count": 0, "detection_scene_count": 0,
    # the losses need in-batch negatives
    "caption_batch": 2, "detection_batch": 2,
    "eval_per_subtask": 1,
    "retrieval_count": 0,  # 0 means no retrieval table
    # a negative clip norm flips the update's sign; 0 turns clipping off
    "clip_norm": 0,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    steps: int = 900
    cadence: int = 300
    patch_grid: int = 4
    hidden_dim: int = 64
    vision_layers: int = 2
    text_layers: int = 2
    cross_layers: int = 2
    heads: int = 4
    proj_dim: int = 32
    mlp_dim: int = 128
    max_len: int = 32
    losses: str = "full"
    sources: str = ",".join(DATA_SOURCES)
    data_seed: int = 1
    caption_count: int = 64
    detection_scene_count: int = 48
    caption_batch: int = 4
    detection_batch: int = 4
    eval_seed: int = 9000
    eval_per_subtask: int = 20
    retrieval_count: int = 8
    learning_rate: float = 1e-2
    clip_norm: float = 1.0

    def __post_init__(self):
        # first: the rules below divide by cadence and heads
        for key, lowest in LOWEST_VALUES.items():
            value = getattr(self, key)
            if _TYPES[key] is float and not math.isfinite(value):
                raise ValidationError(f"{_SECTION_OF[key]}.{key} must be finite, got {value}")
            if value < lowest:
                raise ValidationError(
                    f"{_SECTION_OF[key]}.{key} must be at least {lowest}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"train.learning_rate must be positive and finite, got {self.learning_rate}")
        if self.steps % self.cadence != 0:
            raise ValidationError(
                f"run.cadence {self.cadence} must divide run.steps {self.steps}")
        if self.hidden_dim % self.heads != 0:
            raise ValidationError(
                f"model.heads {self.heads} must divide model.hidden_dim {self.hidden_dim}")
        active = self.source_set()  # validates the source names
        object.__setattr__(self, "sources", ",".join(s for s in DATA_SOURCES if s in active))
        if self.losses not in LOSS_ARMS:
            raise ValidationError(f"unknown loss arm ablation.losses={self.losses!r}, "
                                  f"expected one of {', '.join(LOSS_ARMS)}")
        if self.losses != "A" and all(DATA_SOURCES[s].kind == "caption" for s in active):
            raise ValidationError(
                f"the {self.losses} arm's detection losses need a detection data source")

    def source_set(self) -> frozenset:
        """The active data sources; unknown names or none at all are rejected."""
        active = frozenset(p.strip() for p in self.sources.split(",") if p.strip())
        unknown = active - DATA_SOURCES.keys()
        if unknown:
            raise ValidationError(f"unknown data sources {sorted(unknown)}")
        if not active:
            raise ValidationError("at least one data source must be active")
        return active

    @property
    def arm(self) -> LossArm:
        return LOSS_ARMS[self.losses]

    @property
    def num_patches(self) -> int:
        return self.patch_grid * self.patch_grid

    @cached_property
    def vocab(self) -> Vocabulary:
        """The base inventory, plus the position tokens when they are in use."""
        return Vocabulary(position_tokens=self.arm.pevl)

    def model_config(self) -> RunConfig:
        """The config itself, which the model reads; perfbench still builds models through this."""
        return self

    def render(self) -> str:
        """Canonical key=value text; parsing it back is lossless."""
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {getattr(self, key)}" for key in keys]
            lines.append("")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()[:12]


_TYPES = get_type_hints(RunConfig)
_KEYS = [f.name for f in fields(RunConfig)]
_STARTS = [_KEYS.index(key) for key in _SECTION_STARTS.values()] + [len(_KEYS)]
# the keys of each config section, in render order
_SCHEMA: dict[str, tuple[str, ...]] = {
    section: tuple(_KEYS[start:end])
    for section, start, end in zip(_SECTION_STARTS, _STARTS, _STARTS[1:])}
_SECTION_OF = {key: section for section, keys in _SCHEMA.items() for key in keys}


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a `%` is a plain character
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse {origin}: {exc}") from exc
    unknown = set(parser.sections()) - _SCHEMA.keys()
    if unknown:
        raise ValidationError(f"{origin}: unknown section(s) {sorted(unknown)}")
    kwargs = {}
    for section, keys in _SCHEMA.items():
        if not parser.has_section(section):
            raise ValidationError(f"{origin}: missing section [{section}]")
        extra = set(parser.options(section)) - set(keys)
        if extra:
            raise ValidationError(
                f"{origin}: unknown option(s) {sorted(extra)} in section [{section}]")
        for key in keys:
            if not parser.has_option(section, key):
                raise ValidationError(f"{origin}: missing option {section}.{key}")
            raw = parser.get(section, key)
            kind = _TYPES[key]
            try:
                kwargs[key] = kind(raw)
            except ValueError as exc:
                raise ValidationError(
                    f"{origin}: option {section}.{key}={raw!r} is not a valid {kind.__name__}"
                ) from exc
    return RunConfig(**kwargs)


def load_config(path: Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def save_config(config: RunConfig, path: Path) -> None:
    with atomic_open(path) as fh:
        fh.write(config.render())
