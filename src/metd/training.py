"""Two-stage training with per-subclass sample counting.

Stage 1 optimizes the descriptor tokens with everything else frozen;
stage 2 optimizes the image adapter with the descriptors frozen.  Both
stages minimize the same per-sample loss (fine-grained + margin) and
reduce batches by arithmetic mean.

One loop, ``fit``, runs both stages and the comparison baselines: it
owns the seeded per-epoch shuffle, the batches, the learning-rate
schedule, the optimizer state and the global step, and calls
``optimizer_step`` once per batch.  Each caller passes only its
parameter arrays, a batch-gradient function and its random-stream
prefix, so a fixed seed and config reproduce training bit for bit.

The subclass counter tracks, per class, how many samples landed on each
subclass; it feeds the modulating factor and is updated for the current
sample BEFORE its loss is computed, which guarantees the assigned
subclass count is at least one.  Counts reset every epoch by default
(``count_scope="epoch"``), or every batch behind the config flag.

Optimizers are implemented here directly: an adaptive-moments variant
with decoupled weight decay (moments 0.9/0.999, eps 1e-8, bias
correction, decay applied to the parameter separately from the gradient
step) and plain momentum SGD (momentum 0.9).  The cosine schedule decays
the learning rate per optimizer step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .data import EmbeddingDataset, Unit
from .errors import ContractViolation
from .inference import check_compatible, evaluate, temporal_mean_pool, unit_embedding
from .model import (
    IDENTITY_MEAN,
    PROJECTED_MEAN,
    STREAM_FDCHECK,
    STREAM_SHUFFLE,
    DescriptorBank,
    ImageAdapter,
    Model,
    adapter_gradients,
    bank_embeddings,
    build_model,
    parameter_partition,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9

ADAPTIVE = "adaptive-moments-decoupled-decay"
SGD = "sgd-momentum"
OPTIMIZER_KINDS = (SGD, ADAPTIVE)
SCHEDULE_KINDS = ("constant", "cosine")
COUNT_SCOPES = ("epoch", "batch")


@dataclass
class SubclassCounter:
    """Per-class, per-subclass assignment counts for the modulating factor."""

    counts: np.ndarray
    epoch_scope: bool = True

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ContractViolation(
                f"counts must be 2-D (classes, subclasses), got {self.counts.shape}"
            )
        if np.any(self.counts < 0):
            raise ContractViolation("counts must be nonnegative")

    def reset(self):
        self.counts[:] = 0


def fresh_counter(n_classes: int, n_subclasses: int, epoch_scope: bool = True) -> SubclassCounter:
    return SubclassCounter(
        counts=np.zeros((n_classes, n_subclasses), dtype=np.int64),
        epoch_scope=epoch_scope,
    )


def update_counts(counter: SubclassCounter, target: int, closest: int) -> SubclassCounter:
    """Count the current sample's subclass assignment (before its loss)."""
    n, k = counter.counts.shape
    if not 0 <= target < n:
        raise ContractViolation(f"target {target} out of range for {n} classes")
    if not 0 <= closest < k:
        raise ContractViolation(f"closest {closest} out of range for {k} subclasses")
    counter.counts[target, closest] += 1
    return counter


@dataclass(frozen=True)
class StageConfig:
    stage: int
    epochs: int
    learning_rate: float
    weight_decay: float
    optimizer: str = ADAPTIVE
    lr_schedule: str = "constant"
    batch_size: int = 128
    seed: int = 0
    count_scope: str = "epoch"

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ContractViolation(f"stage must be 1 or 2, got {self.stage}")
        if int(self.epochs) != self.epochs or self.epochs < 0:
            raise ContractViolation(f"epochs must be a nonnegative integer, got {self.epochs}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ContractViolation(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ContractViolation(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ContractViolation(f"unknown optimizer {self.optimizer!r}")
        if self.lr_schedule not in SCHEDULE_KINDS:
            raise ContractViolation(f"unknown lr_schedule {self.lr_schedule!r}")
        if int(self.batch_size) != self.batch_size or self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")
        if self.count_scope not in COUNT_SCOPES:
            raise ContractViolation(f"unknown count_scope {self.count_scope!r}")

    @classmethod
    def stage_one(cls, **overrides) -> "StageConfig":
        """Stage-1 defaults: lr 1e-2, no weight decay, constant schedule."""
        base = dict(
            stage=1,
            epochs=2,
            learning_rate=1e-2,
            weight_decay=0.0,
            lr_schedule="constant",
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def stage_two(cls, **overrides) -> "StageConfig":
        """Stage-2 defaults: lr 5e-6, weight decay 0.1, cosine schedule."""
        base = dict(
            stage=2,
            epochs=50,
            learning_rate=5e-6,
            weight_decay=0.1,
            lr_schedule="cosine",
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class OptimizerState:
    """Per-parameter accumulators; ``first`` is moments or velocity."""

    kind: str
    step: int
    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]


def init_optimizer_state(params: dict[str, np.ndarray], kind: str) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise ContractViolation(f"unknown optimizer {kind!r}")
    first = {name: np.zeros_like(arr) for name, arr in params.items()}
    second = (
        {name: np.zeros_like(arr) for name, arr in params.items()}
        if kind == ADAPTIVE
        else {}
    )
    return OptimizerState(kind=kind, step=0, first=first, second=second)


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
    weight_decay: float,
):
    """One in-place update of every parameter array.

    Decoupled weight decay (p <- p - lr*wd*p) is applied first, then the
    gradient step; with a zero gradient only the decay acts, and with
    zero decay only the gradient step does.
    """
    if set(params) != set(grads) or set(params) != set(state.first):
        raise ContractViolation("params, grads, and state must share the same keys")
    if not (learning_rate >= 0 and math.isfinite(learning_rate)):
        raise ContractViolation(f"bad learning_rate {learning_rate}")
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ContractViolation(f"bad weight_decay {weight_decay}")
    for name, param in params.items():
        if grads[name].shape != param.shape:
            raise ContractViolation(
                f"{name}: grad shape {grads[name].shape} != param shape {param.shape}"
            )
    state.step += 1
    t = state.step
    for name in sorted(params):
        param = params[name]
        grad = grads[name]
        if weight_decay != 0.0:
            param -= (learning_rate * weight_decay) * param
        if state.kind == ADAPTIVE:
            m = state.first[name]
            v = state.second[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (grad * grad)
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            param -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        else:
            velocity = state.first[name]
            velocity *= SGD_MOMENTUM
            velocity += grad
            param -= learning_rate * velocity


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr (step 0) to 0 (step == total_steps)."""
    if total_steps < 1:
        raise ContractViolation(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractViolation(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _schedule_lr(config: StageConfig, step: int, total_steps: int) -> float:
    if config.lr_schedule == "cosine":
        return cosine_lr(config.learning_rate, step, total_steps)
    return config.learning_rate


@dataclass(frozen=True)
class EpochStats:
    """One metrics-log line: epoch index, mean losses, train WAR, epoch lr."""

    epoch: int
    fg: float
    margin: float
    total: float
    war: float
    lr: float


def format_metrics_log(trace: list[EpochStats]) -> str:
    lines = ["epoch\tfg\tmargin\ttotal\twar\tlr"]
    for stats in trace:
        lines.append(
            f"{stats.epoch}\t{stats.fg:.10g}\t{stats.margin:.10g}"
            f"\t{stats.total:.10g}\t{stats.war:.10g}\t{stats.lr:.10g}"
        )
    return "\n".join(lines) + "\n"


def _check_run(model: Model, dataset: EmbeddingDataset, config: StageConfig, stage: int):
    if config.stage != stage:
        raise ContractViolation(f"config.stage {config.stage} != {stage}")
    if len(dataset) == 0:
        raise ContractViolation("cannot train on an empty dataset")
    check_compatible(dataset, model)


def _sample_loss_and_grads(model, stack, unit, counter, sums):
    """Per-sample gradients, counting the sample first; adds its losses to sums."""
    v = unit_embedding(model, unit)
    target = unit.label
    grid = losses.similarity_grid(v, stack, model.temperature)
    closest = losses.select_closest(grid, target)
    update_counts(counter, target, closest)
    row = counter.counts[target]
    breakdown = losses.total_loss(grid, target, row)
    sums += (breakdown.fg, breakdown.margin, breakdown.total)
    return losses.loss_gradients(v, stack, target, row, model.temperature)


def _pull_token_gradient(model: Model, grad_t: np.ndarray) -> np.ndarray:
    """Map descriptor-embedding gradients onto the token grid.

    Every token position of a descriptor receives the same gradient: the
    encoder is a mean over (context ++ tokens), optionally projected, so
    the per-token pullback is P^T g / (C + M), broadcast over M.
    """
    length = model.bank.context_length + model.bank.n_tokens
    if model.encoder.kind == PROJECTED_MEAN:
        pulled = (grad_t @ model.encoder.projection) / length
    else:
        pulled = grad_t / length
    return np.broadcast_to(
        pulled[:, :, None, :], model.bank.tokens.shape
    ).copy()


def fit(params, batch_gradients, n_items: int, config: StageConfig, stream):
    """The one optimisation loop, shared by both stages and the baselines.

    Each epoch draws a permutation of ``range(n_items)`` from
    ``default_rng([*stream, epoch])`` and cuts it into batches of
    ``config.batch_size``.  Every batch is one ``optimizer_step`` on
    ``params`` (updated in place) with the gradient dict returned by
    ``batch_gradients(batch)``, at the scheduled learning rate of the
    global step.  Yields ``(epoch, lr)`` after each epoch, ``lr`` being
    the rate of the epoch's first step, so the caller can evaluate and log
    between epochs.
    """
    state = init_optimizer_state(params, config.optimizer)
    total_steps = max(1, config.epochs * math.ceil(n_items / config.batch_size))
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([*stream, epoch]).permutation(n_items)
        epoch_lr = _schedule_lr(config, step, total_steps)
        for start in range(0, n_items, config.batch_size):
            grads = batch_gradients(order[start : start + config.batch_size])
            lr = _schedule_lr(config, step, total_steps)
            optimizer_step(params, grads, state, lr, config.weight_decay)
            step += 1
        yield epoch, epoch_lr


def _run_stage(model, dataset, config, params, batch_gradients) -> list[EpochStats]:
    """Fit one stage; log each epoch's mean losses, train WAR, and lr.

    ``batch_gradients(units, counter, sums)`` gets the batch's units, the
    subclass counter (already reset when ``count_scope`` is ``"batch"``),
    and the epoch's running (fg, margin, total) loss sums.
    """
    units = dataset.units()
    counter = fresh_counter(
        model.n_classes, model.n_subclasses, config.count_scope == "epoch"
    )
    sums = np.zeros(3)

    def gradients(batch):
        if not counter.epoch_scope:
            counter.reset()
        return batch_gradients([units[int(i)] for i in batch], counter, sums)

    trace: list[EpochStats] = []
    stream = (STREAM_SHUFFLE, config.seed, config.stage)
    for epoch, lr in fit(params, gradients, len(units), config, stream):
        fg, margin, total = sums / len(units)
        war = evaluate(dataset, model).war
        trace.append(EpochStats(epoch, fg, margin, total, war, lr))
        sums[:] = 0.0
        if counter.epoch_scope:
            counter.reset()
    return trace


def run_stage1(
    model: Model, dataset: EmbeddingDataset, config: StageConfig
) -> tuple[DescriptorBank, list[EpochStats]]:
    """Train the descriptor tokens; everything else stays bit-identical."""
    _check_run(model, dataset, config, stage=1)

    def batch_gradients(units, counter, sums):
        stack = bank_embeddings(model.bank, model.encoder)
        grad_t_sum = np.zeros_like(stack)
        for unit in units:
            _, grad_t = _sample_loss_and_grads(model, stack, unit, counter, sums)
            grad_t_sum += grad_t
        return {"bank.tokens": _pull_token_gradient(model, grad_t_sum / len(units))}

    params = {"bank.tokens": model.bank.tokens}
    return model.bank, _run_stage(model, dataset, config, params, batch_gradients)


def run_stage2(
    model: Model, dataset: EmbeddingDataset, config: StageConfig
) -> tuple[ImageAdapter, list[EpochStats]]:
    """Train the adapter against the frozen, stage-1-trained descriptors."""
    _check_run(model, dataset, config, stage=2)
    # Descriptors are frozen in this stage, so their embeddings are too.
    stack = bank_embeddings(model.bank, model.encoder)

    def batch_gradients(units, counter, sums):
        grad_w = np.zeros_like(model.adapter.weight)
        grad_b = np.zeros_like(model.adapter.bias)
        for unit in units:
            grad_v, _ = _sample_loss_and_grads(model, stack, unit, counter, sums)
            pooled = temporal_mean_pool(unit.frames)
            gw, gb = adapter_gradients(model.adapter, pooled, grad_v)
            grad_w += gw
            grad_b += gb
        return {
            "adapter.weight": grad_w / len(units),
            "adapter.bias": grad_b / len(units),
        }

    params = {
        "adapter.weight": model.adapter.weight,
        "adapter.bias": model.adapter.bias,
    }
    return model.adapter, _run_stage(model, dataset, config, params, batch_gradients)


def central_difference(fn, array: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of a scalar closure w.r.t. one array.

    Perturbs entries in place (restoring them exactly) and calls ``fn``
    twice per entry.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ContractViolation(f"h must be > 0, got {h}")
    flat = array.reshape(-1)
    grad = np.zeros_like(array)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + h
        f_plus = fn()
        flat[idx] = original - h
        f_minus = fn()
        flat[idx] = original
        grad_flat[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


# Entries whose analytic and FD values are both below this scale are
# compared against the floor instead, which absorbs the subtractive
# cancellation noise of the finite differences on near-flat directions.
FD_ERROR_FLOOR = 1e-3


@dataclass(frozen=True)
class FdGroupReport:
    name: str
    n_entries: int
    max_rel_err: float


@dataclass(frozen=True)
class FdReport:
    stage: int
    groups: list[FdGroupReport]
    max_rel_err: float
    worst_group: str
    tolerance: float
    passed: bool


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.abs(analytic - numeric) / np.maximum(scale, FD_ERROR_FLOOR)


def fd_check(
    model: Model,
    sample: Unit,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    *,
    target_counts=None,
    stage: int = 1,
    corrupt: bool = False,
) -> FdReport:
    """Compare analytic gradients with central differences for one stage.

    Every trainable parameter entry of the stage is perturbed by +/-h and
    the loss re-evaluated from scratch; the analytic gradient must agree
    within ``tolerance`` relative error.  ``corrupt`` deliberately breaks
    the first analytic entry (negative control: the report must fail).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ContractViolation(f"h must be > 0, got {h}")
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ContractViolation(f"tolerance must be > 0, got {tolerance}")
    if target_counts is None:
        target_counts = np.ones(model.n_subclasses, dtype=np.int64)
    counts = np.asarray(target_counts)
    target = sample.label

    stack = bank_embeddings(model.bank, model.encoder)
    v = unit_embedding(model, sample)
    grad_v, grad_t = losses.loss_gradients(
        v, stack, target, counts, model.temperature
    )

    def loss_value() -> float:
        # Re-embed only the side the stage's parameters can change.
        live_v = v if stage == 1 else unit_embedding(model, sample)
        live_stack = bank_embeddings(model.bank, model.encoder) if stage == 1 else stack
        grid = losses.similarity_grid(live_v, live_stack, model.temperature)
        return losses.total_loss(grid, target, counts).total

    if stage == 1:
        analytic = {"bank.tokens": _pull_token_gradient(model, grad_t)}
        arrays = {"bank.tokens": model.bank.tokens}
    elif stage == 2:
        pooled = temporal_mean_pool(sample.frames)
        gw, gb = adapter_gradients(model.adapter, pooled, grad_v)
        analytic = {"adapter.weight": gw, "adapter.bias": gb}
        arrays = {
            "adapter.weight": model.adapter.weight,
            "adapter.bias": model.adapter.bias,
        }
    else:
        raise ContractViolation(f"stage must be 1 or 2, got {stage}")

    partition = parameter_partition(model, stage)
    assert set(arrays) == set(partition.trainable)

    if corrupt:
        first = sorted(analytic)[0]
        worst_scale = max(float(np.max(np.abs(g))) for g in analytic.values())
        analytic[first].reshape(-1)[0] += 0.05 * (1.0 + worst_scale)

    groups = []
    worst = ("", -1.0)
    for name in sorted(arrays):
        numeric = central_difference(loss_value, arrays[name], h)
        errors = _relative_errors(analytic[name], numeric)
        max_err = float(np.max(errors))
        groups.append(
            FdGroupReport(name=name, n_entries=int(errors.size), max_rel_err=max_err)
        )
        if max_err > worst[1]:
            worst = (name, max_err)
    return FdReport(
        stage=stage,
        groups=groups,
        max_rel_err=worst[1],
        worst_group=worst[0],
        tolerance=tolerance,
        passed=worst[1] < tolerance,
    )


def random_fd_instance(seed: int, stage: int):
    """A well-conditioned random (model, sample, counts) triple.

    Dimensions stay small (N<=5, K<=3, M<=3, dims<=16) so the full FD
    sweep is fast; parameters are O(1) scale and the temperature is drawn
    from [0.05, 1] to keep the loss surface away from float-noise flats.
    """
    rng = np.random.default_rng([STREAM_FDCHECK, seed, stage])
    n_classes = int(rng.integers(2, 6))
    n_subclasses = int(rng.integers(1, 4))
    n_tokens = int(rng.integers(1, 4))
    token_dim = int(rng.integers(2, 17))
    if rng.random() < 0.5:
        kind = IDENTITY_MEAN
        embed_dim = token_dim
    else:
        kind = PROJECTED_MEAN
        embed_dim = int(rng.integers(2, 17))
    residual = bool(rng.random() < 0.5)
    feature_dim = embed_dim if residual else int(rng.integers(2, 17))
    context_length = int(rng.integers(1, 5))
    temperature = float(10.0 ** rng.uniform(math.log10(0.05), 0.0))
    model = build_model(
        n_classes=n_classes,
        n_subclasses=n_subclasses,
        n_tokens=n_tokens,
        token_dim=token_dim,
        embed_dim=embed_dim,
        feature_dim=feature_dim,
        context_length=context_length,
        encoder_kind=kind,
        residual=residual,
        temperature=temperature,
        seed=seed,
    )
    model.bank.tokens[:] = rng.normal(size=model.bank.tokens.shape)
    model.bank.context[:] = rng.normal(size=model.bank.context.shape)
    model.adapter.weight[:] = rng.normal(0.0, 0.3, size=model.adapter.weight.shape)
    model.adapter.bias[:] = rng.normal(0.0, 0.1, size=model.adapter.bias.shape)
    n_frames = int(rng.integers(1, 4))
    frames = rng.normal(size=(n_frames, feature_dim))
    target = int(rng.integers(0, n_classes))
    counts = rng.integers(1, 9, size=n_subclasses)
    sample = Unit(frames=frames, label=target)
    return model, sample, counts
