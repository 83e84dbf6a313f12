"""Model and training configuration, plus plain-text key=value config files."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .autodiff import ConfigError


@dataclass
class ModelConfig:
    input_size: int = 128
    ffar_stride: int = 4                      # FFAR patchify stride and kernel
    base_width: int = 16                      # channels of the fused FFAR output
    stage_widths: tuple = (32, 64, 128, 256)  # four stacked stages, stride 2 each
    ssm_state: int = 8
    ssm_expand: int = 2
    num_classes: int = 5

    def __post_init__(self):
        if len(self.stage_widths) != 4:
            raise ConfigError("exactly four stage widths are required")
        sizes = dict(input_size=self.input_size, ffar_stride=self.ffar_stride,
                     base_width=self.base_width, stage_widths=min(self.stage_widths),
                     ssm_state=self.ssm_state, ssm_expand=self.ssm_expand,
                     num_classes=self.num_classes)
        for name, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.input_size % (self.ffar_stride * 16):
            raise ConfigError(
                f"input size {self.input_size} must be divisible by total stride "
                f"{self.ffar_stride * 16}")

    @property
    def level_widths(self):
        # features handed to the neck: stages 2..4
        return self.stage_widths[1:]

    @property
    def level_strides(self):
        s = self.ffar_stride
        return (s * 4, s * 8, s * 16)


# seeds key 64-bit Philox streams
SEED_MAX = 2 ** 64 - 1

TINY = dict(base_width=8, stage_widths=(16, 24, 32, 48), ssm_state=4)


def tiny_config(**overrides) -> ModelConfig:
    kw = dict(TINY)
    kw.update(overrides)
    return ModelConfig(**kw)


@dataclass
class TrainConfig:
    """What a training run varies; the optimizer recipe is fixed in ``train``."""
    batch_size: int = 8
    steps: int = 500
    seed: int = 0
    # inert: training runs on one thread whatever this says.  Callers still
    # pass it (threads=1 in the acceptance tests, threads=2 in the
    # benchmark's train_tiny128_threads2 workload), so it stays until that
    # workload goes
    threads: int = 1

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("steps", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, "
                                  f"got {getattr(self, name)}")
        if self.seed > SEED_MAX:
            raise ConfigError(f"seed must be at most {SEED_MAX}, got {self.seed}")


_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(field_obj, raw: str):
    t = field_obj.type
    try:
        if t == "int":
            return int(raw)
        if t == "tuple":
            return tuple(int(x) for x in raw.replace(",", " ").split())
    except ValueError as e:
        raise ConfigError(f"bad value {raw!r} for {field_obj.name}: {e}") from e
    return raw


def parse_config_text(text: str) -> tuple[dict, dict]:
    """Parse key=value lines into (model kwargs, train kwargs)."""
    model_kw, train_kw = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _MODEL_FIELDS:
            model_kw[key] = _coerce(_MODEL_FIELDS[key], raw)
        elif key in _TRAIN_FIELDS:
            train_kw[key] = _coerce(_TRAIN_FIELDS[key], raw)
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    return model_kw, train_kw


def load_config(path) -> tuple[ModelConfig, TrainConfig]:
    with open(path) as f:
        model_kw, train_kw = parse_config_text(f.read())
    return ModelConfig(**model_kw), TrainConfig(**train_kw)


def dump_config(model: ModelConfig, train: TrainConfig) -> str:
    lines = []
    for obj in (model, train):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, tuple):
                v = " ".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
