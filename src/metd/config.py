"""Flat key=value run configuration.

One ``key = value`` pair per line; ``#`` starts a comment (whole line or
trailing); blank lines are ignored.  Unknown keys, duplicate keys, type
errors, and out-of-range values are all rejected at parse time with the
offending key and line number.  Every key has a default, so an empty
file is a valid config.
"""

import math
from dataclasses import dataclass

from .data import SynthConfig
from .errors import ConfigError
from .harness import STRATEGY_KINDS
from .model import ENCODER_KINDS, IDENTITY_MEAN
from .training import COUNT_SCOPES, OPTIMIZER_KINDS, SCHEDULE_KINDS, StageConfig


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_strategies(text: str):
    kinds = [part.strip() for part in text.split(",")]
    if not kinds or any(not k for k in kinds):
        raise ValueError("expected a comma-separated list of strategies")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy {kind!r}, expected one of {STRATEGY_KINDS}"
            )
    return tuple(kinds)


def _positive(value):
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _nonnegative(value):
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _positive_real(value):
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _angle(value):
    if not 0.0 <= value <= 180.0:
        raise ValueError(f"must be in [0, 180], got {value}")
    return value


def _enum(choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value

    return check


def _identity(value):
    return value


# key -> (parser, validator, default-as-string)
_SCHEMA = {
    "seed": (_parse_int, _identity, "7"),
    # synthetic benchmark geometry
    "n_classes": (_parse_int, _positive, "3"),
    "subclusters_per_class": (_parse_int, _positive, "2"),
    "samples_per_subcluster": (_parse_int, _positive, "125"),
    "feature_dim": (_parse_int, _positive, "16"),
    "sigma": (_parse_float, _nonnegative, "0.1"),
    "inter_class_min_angle": (_parse_float, _angle, "45"),
    "intra_class_angle": (_parse_float, _angle, "0"),
    # model dimensions
    "token_dim": (_parse_int, _positive, "16"),
    "embed_dim": (_parse_int, _positive, "16"),
    "context_length": (_parse_int, _positive, "4"),
    "n_subclasses": (_parse_int, _positive, "5"),
    "n_tokens": (_parse_int, _positive, "4"),
    "encoder_kind": (_identity, _enum(ENCODER_KINDS), IDENTITY_MEAN),
    "residual_adapter": (_parse_bool, _identity, "true"),
    "temperature": (_parse_float, _positive_real, "0.01"),
    # stage 1
    "stage1_epochs": (_parse_int, _nonnegative, "2"),
    "stage1_lr": (_parse_float, _positive_real, "0.01"),
    "stage1_weight_decay": (_parse_float, _nonnegative, "0"),
    "stage1_optimizer": (_identity, _enum(OPTIMIZER_KINDS), "adaptive-moments-decoupled-decay"),
    "stage1_schedule": (_identity, _enum(SCHEDULE_KINDS), "constant"),
    "stage1_batch_size": (_parse_int, _positive, "128"),
    # stage 2
    "stage2_epochs": (_parse_int, _nonnegative, "50"),
    "stage2_lr": (_parse_float, _positive_real, "5e-6"),
    "stage2_weight_decay": (_parse_float, _nonnegative, "0.1"),
    "stage2_optimizer": (_identity, _enum(OPTIMIZER_KINDS), "adaptive-moments-decoupled-decay"),
    "stage2_schedule": (_identity, _enum(SCHEDULE_KINDS), "cosine"),
    "stage2_batch_size": (_parse_int, _positive, "128"),
    # training extras
    "count_scope": (_identity, _enum(COUNT_SCOPES), "epoch"),
    "oversample": (_parse_bool, _identity, "false"),
    # comparison harness
    "strategies": (_parse_strategies, _identity, ",".join(STRATEGY_KINDS)),
    "probe_epochs": (_parse_int, _positive, "40"),
    "probe_lr": (_parse_float, _positive_real, "0.05"),
    # decoding
    "decode_top_n": (_parse_int, _positive, "3"),
    # gradient checking
    "fdcheck_instances": (_parse_int, _positive, "20"),
    "fdcheck_step": (_parse_float, _positive_real, "1e-5"),
    "fdcheck_tolerance": (_parse_float, _positive_real, "1e-4"),
    "fdcheck_corrupt": (_parse_bool, _identity, "false"),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    n_classes: int
    subclusters_per_class: int
    samples_per_subcluster: int
    feature_dim: int
    sigma: float
    inter_class_min_angle: float
    intra_class_angle: float
    token_dim: int
    embed_dim: int
    context_length: int
    n_subclasses: int
    n_tokens: int
    encoder_kind: str
    residual_adapter: bool
    temperature: float
    stage1_epochs: int
    stage1_lr: float
    stage1_weight_decay: float
    stage1_optimizer: str
    stage1_schedule: str
    stage1_batch_size: int
    stage2_epochs: int
    stage2_lr: float
    stage2_weight_decay: float
    stage2_optimizer: str
    stage2_schedule: str
    stage2_batch_size: int
    count_scope: str
    oversample: bool
    strategies: tuple
    probe_epochs: int
    probe_lr: float
    decode_top_n: int
    fdcheck_instances: int
    fdcheck_step: float
    fdcheck_tolerance: float
    fdcheck_corrupt: bool

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_classes=self.n_classes,
            subclusters_per_class=self.subclusters_per_class,
            samples_per_subcluster=self.samples_per_subcluster,
            feature_dim=self.feature_dim,
            sigma=self.sigma,
            inter_class_min_angle=self.inter_class_min_angle,
            intra_class_angle=self.intra_class_angle,
            seed=self.seed,
        )

    def stage_config(self, stage: int) -> StageConfig:
        if stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {stage}")

        def field(name):
            return getattr(self, f"stage{stage}_{name}")

        return StageConfig(
            stage=stage,
            epochs=field("epochs"),
            learning_rate=field("lr"),
            weight_decay=field("weight_decay"),
            optimizer=field("optimizer"),
            lr_schedule=field("schedule"),
            batch_size=field("batch_size"),
            seed=self.seed,
            count_scope=self.count_scope,
        )


def parse_config_text(text: str) -> RunConfig:
    values = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError("unknown key", key=key or "<empty>", line=line_no)
        if key in values:
            raise ConfigError(
                f"duplicate key (first set on line {lines[key]})", key=key, line=line_no
            )
        if not value:
            raise ConfigError("empty value", key=key, line=line_no)
        parser, validator, _ = _SCHEMA[key]
        try:
            values[key] = validator(parser(value))
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from None
        lines[key] = line_no
    for key, (parser, validator, default) in _SCHEMA.items():
        if key not in values:
            values[key] = validator(parser(default))
    config = RunConfig(**values)
    _cross_validate(config)
    return config


def _cross_validate(config: RunConfig):
    if config.encoder_kind == IDENTITY_MEAN and config.token_dim != config.embed_dim:
        raise ConfigError(
            f"identity-mean requires token_dim == embed_dim "
            f"(got {config.token_dim} vs {config.embed_dim})",
            key="encoder_kind",
        )
    if config.residual_adapter and config.feature_dim != config.embed_dim:
        raise ConfigError(
            f"residual_adapter requires feature_dim == embed_dim "
            f"(got {config.feature_dim} vs {config.embed_dim})",
            key="residual_adapter",
        )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text)
