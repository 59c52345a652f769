"""Flat key=value run configuration.

One ``key = value`` pair per line; ``#`` starts a comment (whole line or
trailing); blank lines are ignored.  Every key has a default, so an empty
file is a valid config.  Each key is declared once, as a ``RunConfig``
field that carries its type, its default and its check.  The allowed
values of the kind keys (optimizers, schedules, count scopes and
strategies) are declared here too, and ``training`` and ``harness``
import them, so reading a config executes neither.  A ``RunConfig``
checks each value's type and range, and the conflicts between keys,
whenever it is built, from a file or by ``dataclasses.replace``: a
``ConfigError`` names the key, and the file parser adds that key's line.
"""

import math
from dataclasses import dataclass, field, fields

from .data import SynthConfig
from .errors import ConfigError
from .model import ENCODER_KINDS, IDENTITY_MEAN, _utf8_fault

ADAPTIVE = "adaptive-moments-decoupled-decay"
SGD = "sgd-momentum"
OPTIMIZER_KINDS = (SGD, ADAPTIVE)
SCHEDULE_KINDS = ("constant", "cosine")
COUNT_SCOPES = ("epoch", "batch")
STRATEGY_KINDS = ("zero-shot-fixed", "linear-probe", "full-finetune", "learnable-context", "metd")


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
    for i, kind in enumerate(kinds):
        if kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy {kind!r}, expected one of {STRATEGY_KINDS}"
            )
        # metd compare would train it twice and print the same row twice.
        if kind in kinds[:i]:
            raise ValueError(f"duplicate strategy {kind!r}")


def _positive(value):
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")


def _nonnegative(value):
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")


def _positive_real(value):
    if not value > 0:
        raise ValueError(f"must be > 0, got {value}")


def _angle(top):
    def check(value):
        if not 0.0 <= value <= top:
            raise ValueError(f"must be in [0, {top:g}], got {value}")

    return check


def _enum(choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")

    return check


def _any(value):
    pass


def _key(check, default):
    """A config key: its RunConfig field, with the check its value must pass."""
    return field(default=default, metadata={"check": check})


class _BadValue(ConfigError):
    """The value of ``key`` fails its type or its check; ``problem`` says how."""

    def __init__(self, key: str, problem: str):
        super().__init__(problem, key=key)
        self.problem = problem


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, checked when built; a variant is ``dataclasses.replace``."""

    seed: int = _key(_nonnegative, 7)
    # synthetic benchmark geometry
    n_classes: int = _key(_positive, 3)
    subclusters_per_class: int = _key(_positive, 2)
    samples_per_subcluster: int = _key(_positive, 125)
    feature_dim: int = _key(_positive, 16)
    sigma: float = _key(_nonnegative, 0.1)
    # Synthetic cross-class means are orthogonal, so 90 is the widest bound.
    inter_class_min_angle: float = _key(_angle(90.0), 45.0)
    intra_class_angle: float = _key(_angle(180.0), 0.0)
    # model dimensions
    token_dim: int = _key(_positive, 16)
    embed_dim: int = _key(_positive, 16)
    context_length: int = _key(_positive, 4)
    n_subclasses: int = _key(_positive, 5)
    n_tokens: int = _key(_positive, 4)
    encoder_kind: str = _key(_enum(ENCODER_KINDS), IDENTITY_MEAN)
    residual_adapter: bool = _key(_any, True)
    temperature: float = _key(_positive_real, 0.01)
    # stage 1
    stage1_epochs: int = _key(_nonnegative, 2)
    stage1_lr: float = _key(_positive_real, 0.01)
    stage1_weight_decay: float = _key(_nonnegative, 0.0)
    stage1_optimizer: str = _key(_enum(OPTIMIZER_KINDS), ADAPTIVE)
    stage1_schedule: str = _key(_enum(SCHEDULE_KINDS), "constant")
    stage1_batch_size: int = _key(_positive, 128)
    # stage 2
    stage2_epochs: int = _key(_nonnegative, 50)
    stage2_lr: float = _key(_positive_real, 5e-6)
    stage2_weight_decay: float = _key(_nonnegative, 0.1)
    stage2_optimizer: str = _key(_enum(OPTIMIZER_KINDS), ADAPTIVE)
    stage2_schedule: str = _key(_enum(SCHEDULE_KINDS), "cosine")
    stage2_batch_size: int = _key(_positive, 128)
    # training extras
    count_scope: str = _key(_enum(COUNT_SCOPES), "epoch")
    oversample: bool = _key(_any, False)
    # comparison harness
    strategies: tuple = _key(_strategies, STRATEGY_KINDS)
    probe_epochs: int = _key(_positive, 40)
    probe_lr: float = _key(_positive_real, 0.05)
    # decoding
    decode_top_n: int = _key(_positive, 3)
    # gradient checking
    fdcheck_instances: int = _key(_positive, 20)
    fdcheck_step: float = _key(_positive_real, 1e-5)
    fdcheck_tolerance: float = _key(_positive_real, 1e-4)
    fdcheck_corrupt: bool = _key(_any, False)

    def __post_init__(self):
        # In field order, so the first bad key is the first one declared.
        for key in fields(self):
            value = getattr(self, key.name)
            try:
                _check_type(key.type, value)
                key.metadata["check"](value)
            except ValueError as exc:
                raise _BadValue(key.name, str(exc)) from None
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
            **{key.name: getattr(self, key.name) for key in fields(SynthConfig)}
        )


_KEYS = {key.name: key for key in fields(RunConfig)}


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
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key or "<empty>", line=line_no)
        if key in lines:
            raise ConfigError(
                f"duplicate key (first set on line {lines[key]})", key=key, line=line_no
            )
        if not value:
            raise ConfigError("empty value", key=key, line=line_no)
        try:
            values[key] = _KINDS[_KEYS[key].type][0](value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from None
        lines[key] = line_no
    try:
        return RunConfig(**values)
    except _BadValue as exc:
        raise ConfigError(exc.problem, key=exc.key, line=lines.get(exc.key)) from None


def parse_config(path: str) -> RunConfig:
    """The config in file ``path``; a file that is not UTF-8 is a ConfigError at its line."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # Every line, split as parse_config_text splits them, before any is parsed.
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        if reason := _utf8_fault(line):
            raise ConfigError(f"not UTF-8 text: {reason}", line=line_no)
    return parse_config_text(text)
