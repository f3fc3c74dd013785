"""Run configuration: plain key=value sections, lossless round-trip, hashing.

`RunConfig` is the one table of settings: each setting and its default is
declared there once, and its type is read from the field annotation.  The
model keeps it, and its training step and the losses read it there.  The
seed is mandatory (nothing falls back to wall-clock time) and the canonical
rendering of a config, with `sources` in `DATA_SOURCES` order, is hashed
into every artifact the run writes, so reusing a run directory or
checkpoint with another config is a hard error.  A loss arm is one key,
`losses`, whose value names a row of `LOSS_ARMS`.
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
from .synthdata import DATA_SOURCES, active_sources
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
    pevl_bins: int = 32
    temperature_init: float = 0.07
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
        for key in ("seed", "data_seed", "eval_seed"):  # numpy rejects a negative seed
            if getattr(self, key) < 0:
                raise ValidationError(f"{key} must be at least 0, got {getattr(self, key)}")
        if self.steps <= 0 or self.cadence <= 0:
            raise ValidationError("run.steps and run.cadence must be positive")
        if self.steps % self.cadence != 0:
            raise ValidationError(
                f"run.cadence {self.cadence} must divide run.steps {self.steps}")
        if self.caption_batch < 2 or self.detection_batch < 2:
            raise ValidationError("data.caption_batch and data.detection_batch must be "
                                  "at least 2: the losses need in-batch negatives")
        # a 1x1 grid holds one object, so no scene supports the two-object subtasks
        if self.patch_grid < 2:
            raise ValidationError(
                f"model.patch_grid must be at least 2, got {self.patch_grid}")
        if self.eval_per_subtask < 1:
            raise ValidationError("data.eval_per_subtask must be at least 1")
        # 0 means no retrieval table
        if self.retrieval_count < 0:
            raise ValidationError(
                f"data.retrieval_count must be at least 0, got {self.retrieval_count}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"train.learning_rate must be positive and finite, got {self.learning_rate}")
        # a negative clip norm flips the update's sign; 0 turns clipping off
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ValidationError(
                f"train.clip_norm must be finite and at least 0, got {self.clip_norm}")
        for name in ("hidden_dim", "heads", "proj_dim", "mlp_dim", "max_len",
                     "vision_layers", "text_layers", "cross_layers"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.pevl_bins < 2:
            raise ValidationError(f"pevl_bins must be at least 2, got {self.pevl_bins}")
        if self.hidden_dim % self.heads != 0:
            raise ValidationError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}")
        if not (math.isfinite(self.temperature_init) and self.temperature_init > 0):
            raise ValidationError(
                f"temperature_init must be positive and finite, got {self.temperature_init}")
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
        return active_sources(p.strip() for p in self.sources.split(",") if p.strip())

    @property
    def arm(self) -> LossArm:
        return LOSS_ARMS[self.losses]

    @property
    def num_patches(self) -> int:
        return self.patch_grid * self.patch_grid

    @cached_property
    def vocab(self) -> Vocabulary:
        """The base inventory, plus the position tokens when they are in use."""
        return Vocabulary(self.pevl_bins if self.arm.pevl else None)

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
