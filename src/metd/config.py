"""Flat key=value run configuration.

One ``key = value`` pair per line; ``#`` starts a comment (whole line or
trailing); blank lines are ignored.  Every key has a default, so an empty
file is a valid config.  A ``RunConfig`` checks each value's type and
range, and the conflicts between keys, whenever it is built, from a file
or by ``dataclasses.replace``: a ``ConfigError`` names the key, and the
file parser adds that key's line.
"""

import math
from dataclasses import dataclass, fields

from .data import SynthConfig
from .errors import ConfigError
from .harness import STRATEGY_KINDS
from .model import ENCODER_KINDS, IDENTITY_MEAN
from .training import COUNT_SCOPES, OPTIMIZER_KINDS, SCHEDULE_KINDS


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


def _parse_list(text: str):
    return tuple(part.strip() for part in text.split(","))


# A type's text parser, and what a value of the type is called.
_KINDS = {
    int: (_parse_int, "an integer"),
    float: (_parse_float, "a finite number"),
    bool: (_parse_bool, "true or false"),
    str: (str, "a string"),
    tuple: (_parse_list, "a tuple"),
}


def _check_type(kind, value):
    if kind is float:
        # An integer is a number too; a float must be finite.
        ok = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    else:
        ok = isinstance(value, kind)
    # bool is an int in Python, but true/false is not a count.
    if not ok or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"expected {_KINDS[kind][1]}, got {value!r}")


def _strategies(kinds):
    if not kinds or any(not k for k in kinds):
        raise ValueError("expected a comma-separated list of strategies")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy {kind!r}, expected one of {STRATEGY_KINDS}"
            )


def _positive(value):
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")


def _nonnegative(value):
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")


def _positive_real(value):
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def _angle(value):
    if not 0.0 <= value <= 180.0:
        raise ValueError(f"must be in [0, 180], got {value}")


def _enum(choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")

    return check


def _any(value):
    pass


# key -> (check, default).  A key's type is its RunConfig field's.
_SCHEMA = {
    "seed": (_any, 7),
    # synthetic benchmark geometry
    "n_classes": (_positive, 3),
    "subclusters_per_class": (_positive, 2),
    "samples_per_subcluster": (_positive, 125),
    "feature_dim": (_positive, 16),
    "sigma": (_nonnegative, 0.1),
    "inter_class_min_angle": (_angle, 45.0),
    "intra_class_angle": (_angle, 0.0),
    # model dimensions
    "token_dim": (_positive, 16),
    "embed_dim": (_positive, 16),
    "context_length": (_positive, 4),
    "n_subclasses": (_positive, 5),
    "n_tokens": (_positive, 4),
    "encoder_kind": (_enum(ENCODER_KINDS), IDENTITY_MEAN),
    "residual_adapter": (_any, True),
    "temperature": (_positive_real, 0.01),
    # stage 1
    "stage1_epochs": (_nonnegative, 2),
    "stage1_lr": (_positive_real, 0.01),
    "stage1_weight_decay": (_nonnegative, 0.0),
    "stage1_optimizer": (_enum(OPTIMIZER_KINDS), "adaptive-moments-decoupled-decay"),
    "stage1_schedule": (_enum(SCHEDULE_KINDS), "constant"),
    "stage1_batch_size": (_positive, 128),
    # stage 2
    "stage2_epochs": (_nonnegative, 50),
    "stage2_lr": (_positive_real, 5e-6),
    "stage2_weight_decay": (_nonnegative, 0.1),
    "stage2_optimizer": (_enum(OPTIMIZER_KINDS), "adaptive-moments-decoupled-decay"),
    "stage2_schedule": (_enum(SCHEDULE_KINDS), "cosine"),
    "stage2_batch_size": (_positive, 128),
    # training extras
    "count_scope": (_enum(COUNT_SCOPES), "epoch"),
    "oversample": (_any, False),
    # comparison harness
    "strategies": (_strategies, STRATEGY_KINDS),
    "probe_epochs": (_positive, 40),
    "probe_lr": (_positive_real, 0.05),
    # decoding
    "decode_top_n": (_positive, 3),
    # gradient checking
    "fdcheck_instances": (_positive, 20),
    "fdcheck_step": (_positive_real, 1e-5),
    "fdcheck_tolerance": (_positive_real, 1e-4),
    "fdcheck_corrupt": (_any, False),
}


class _BadValue(ConfigError):
    """The value of ``key`` fails its type or its check; ``problem`` says how."""

    def __init__(self, key: str, problem: str):
        super().__init__(problem, key=key)
        self.problem = problem


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, checked when built; a variant is ``dataclasses.replace``."""

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

    def __post_init__(self):
        for key, (check, _) in _SCHEMA.items():
            value = getattr(self, key)
            try:
                _check_type(_TYPES[key], value)
                check(value)
            except ValueError as exc:
                raise _BadValue(key, str(exc)) from None
        if self.encoder_kind == IDENTITY_MEAN and self.token_dim != self.embed_dim:
            raise ConfigError(
                f"identity-mean requires token_dim == embed_dim "
                f"(got {self.token_dim} vs {self.embed_dim})",
                key="encoder_kind",
            )
        if self.residual_adapter and self.feature_dim != self.embed_dim:
            raise ConfigError(
                f"residual_adapter requires feature_dim == embed_dim "
                f"(got {self.feature_dim} vs {self.embed_dim})",
                key="residual_adapter",
            )

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


_TYPES = {field.name: field.type for field in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    values = {key: default for key, (_, default) in _SCHEMA.items()}
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
        if key in lines:
            raise ConfigError(
                f"duplicate key (first set on line {lines[key]})", key=key, line=line_no
            )
        if not value:
            raise ConfigError("empty value", key=key, line=line_no)
        try:
            values[key] = _KINDS[_TYPES[key]][0](value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from None
        lines[key] = line_no
    try:
        return RunConfig(**values)
    except _BadValue as exc:
        raise ConfigError(exc.problem, key=exc.key, line=lines.get(exc.key)) from None


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text)
