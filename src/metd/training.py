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

The subclass counts are one (n_classes, n_subclasses) int64 array per
stage: entry [i, k] is how many samples of class i landed on subclass k.
They feed the modulating factor, and the current sample is counted
BEFORE its loss is computed, which guarantees the assigned subclass
count is at least one.  Counts reset every epoch by default
(``count_scope="epoch"``), or every batch behind the config flag.

Each batch is one call of the batched loss kernel: the parameters, and
so every selection, are fixed within a batch, so sample b's counts are
those before the batch plus a running sum of the batch's assignments.

Each stage is defined once, by ``_Stage``: the arrays it trains, the
side it re-embeds (the descriptor stack in stage 1, the unit embeddings
in stage 2) and how per-sample (dL/dV, dL/dT) become batch-mean
parameter gradients.  ``fd_check`` is its one-sample batch, so it checks
the gradients that ``run_stage1`` and ``run_stage2`` apply, and it scores
the re-embedded sides of all its +/-h perturbations in one batch.

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
# ``evaluate`` is unused here, but perfbench's binding test reads it from this module.
from .inference import _score, check_compatible, evaluate, temporal_mean_pool, unit_embedding
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
    encode_image,
    encode_text_token_gradient,
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


def _pull_token_gradient(model: Model, grad_t: np.ndarray) -> np.ndarray:
    """Map descriptor-embedding gradients onto the token grid.

    The encoder is a mean over (context ++ tokens), so every token
    position of a descriptor receives the same pullback, broadcast over M.
    """
    length = model.bank.context_length + model.bank.n_tokens
    pulled = encode_text_token_gradient(model.encoder, grad_t, length)
    return np.broadcast_to(pulled[:, :, None, :], model.bank.tokens.shape).copy()


def fit(params, batch_gradients, n_items: int, config, stage: int, stream):
    """The one optimisation loop, shared by both stages and the baselines.

    ``config`` is a ``RunConfig``, read for its ``stage<stage>_*`` keys.
    Each epoch draws a permutation of ``range(n_items)`` from
    ``default_rng([*stream, epoch])`` and cuts it into batches of the
    stage's batch size.  Every batch is one ``optimizer_step`` on
    ``params`` (updated in place) with the gradient dict returned by
    ``batch_gradients(batch)``, at the scheduled learning rate of the
    global step.  Yields ``(epoch, lr)`` after each epoch, ``lr`` being
    the rate of the epoch's first step, so the caller can evaluate and log
    between epochs.  A ContractViolation from ``batch_gradients`` is
    raised again with the epoch and step (from 1) added to its message.
    """

    def setting(name):
        return getattr(config, f"stage{stage}_{name}")

    epochs, batch_size = setting("epochs"), setting("batch_size")
    base_lr, weight_decay = setting("lr"), setting("weight_decay")
    cosine = setting("schedule") == "cosine"
    state = init_optimizer_state(params, setting("optimizer"))
    total_steps = max(1, epochs * math.ceil(n_items / batch_size))

    def scheduled_lr(step):
        return cosine_lr(base_lr, step, total_steps) if cosine else base_lr

    step = 0
    for epoch in range(1, epochs + 1):
        order = np.random.default_rng([*stream, epoch]).permutation(n_items)
        epoch_lr = scheduled_lr(step)
        for start in range(0, n_items, batch_size):
            try:
                grads = batch_gradients(order[start : start + batch_size])
            except ContractViolation as exc:
                raise type(exc)(f"{exc} (epoch {epoch}, step {step + 1})") from exc
            optimizer_step(params, grads, state, scheduled_lr(step), weight_decay)
            step += 1
        yield epoch, epoch_lr


class _Stage:
    """Stage 1 or 2 of ``model`` over ``units``: ``params`` are the arrays it trains.

    The side those arrays cannot change is embedded once, here.
    """

    def __init__(self, model: Model, units: list[Unit], number: int):
        self.model = model
        self.number = number
        self.labels = np.array([unit.label for unit in units])
        if number == 1:
            # The adapter is frozen in this stage, so the unit embeddings are too.
            self.embeddings = np.stack([unit_embedding(model, unit) for unit in units])
            self.params = {"bank.tokens": model.bank.tokens}
        elif number == 2:
            # Descriptors are frozen in this stage, so their embeddings are
            # too; the frames never change, so each unit is pooled once.
            self.stack = bank_embeddings(model.bank, model.encoder)
            self.pooled = np.stack([temporal_mean_pool(unit.frames) for unit in units])
            self.params = {
                "adapter.weight": model.adapter.weight,
                "adapter.bias": model.adapter.bias,
            }
        else:
            raise ContractViolation(f"stage must be 1 or 2, got {number}")

    def embed(self, rows):
        """The side this stage trains, embedded from the arrays' current values.

        Stage 1 gives the descriptor stack (N, K, D).  Stage 2 gives the
        embeddings of units ``rows``: (D,) for one index, (B, D) for an
        index array or a slice.
        """
        if self.number == 1:
            return bank_embeddings(self.model.bank, self.model.encoder)
        return encode_image(self.model.adapter, self.pooled[rows])

    def score(self, rows, embedded, targets, target_counts):
        """Units ``rows``' embeddings, descriptor stack, grid and LossBreakdown.

        ``embedded`` is what ``embed`` returned, scored against the side
        the stage holds frozen.  ``target_counts(grid, targets)`` gives
        each sample's (B, K) counts.
        """
        if self.number == 1:
            embeddings, stack = self.embeddings[rows], embedded
        else:
            embeddings, stack = embedded, self.stack
        grid = losses.similarity_grid(embeddings, stack, self.model.temperature)
        breakdown = losses.total_loss(grid, targets, target_counts(grid, targets))
        return embeddings, stack, grid, breakdown

    def loss(self, batch, target_counts):
        """The batch's embeddings (B, D), descriptor stack, grid and LossBreakdown."""
        return self.score(batch, self.embed(batch), self.labels[batch], target_counts)

    def gradients(self, batch, target_counts):
        """The batch's LossBreakdown and the batch-mean gradient of each of ``params``."""
        embeddings, stack, grid, breakdown = self.loss(batch, target_counts)
        grad_v, grad_t = losses.loss_gradients(
            embeddings, stack, grid, self.labels[batch], breakdown
        )
        n = len(batch)
        if self.number == 1:
            pulled = _pull_token_gradient(self.model, grad_t.sum(axis=0) / n)
            return breakdown, {"bank.tokens": pulled}
        grad_w, grad_b = adapter_gradients(self.model.adapter, self.pooled[batch], grad_v)
        return breakdown, {
            "adapter.weight": grad_w.sum(axis=0) / n,
            "adapter.bias": grad_b.sum(axis=0) / n,
        }


def _counted_gradients(stage: _Stage, batch, counts: np.ndarray, sums: np.ndarray):
    """Count a training batch, then return its batch-mean parameter gradients.

    Sample b's loss sees the (n_classes, n_subclasses) ``counts`` plus the
    batch's assignments to closest subclasses up to and including b.
    ``counts`` then moves past the batch, and each sample's (fg, margin,
    total) is added to ``sums`` in batch order.
    """

    def count(grid, targets):
        rows = np.arange(len(targets))
        assigned = np.zeros((len(targets), *counts.shape), dtype=np.int64)
        assigned[rows, targets, losses.select_closest(grid, targets)] = 1
        running = counts + np.cumsum(assigned, axis=0)
        counts[:] = running[-1]
        return running[rows, targets]

    breakdown, grads = stage.gradients(batch, count)
    parts = np.stack((breakdown.fg, breakdown.margin, breakdown.total), axis=1)
    # A running sum, as the loop added them: np.sum may add pairwise.
    sums[:] = np.cumsum(np.vstack((sums, parts)), axis=0)[-1]
    return grads


def _run_stage(model, dataset, config, number):
    """Fit stage ``number``; log each epoch's mean losses, train WAR, and lr.

    Counts restart every epoch, or every batch under ``count_scope =
    "batch"``.  Train WAR scores stage 1's held unit embeddings, or stage
    2's pooled (U, F) array encoded in one call (``evaluate``'s bits).
    """
    if len(dataset) == 0:
        raise ContractViolation("cannot train on an empty dataset")
    check_compatible(dataset, model)
    stage = _Stage(model, dataset.units(), number)
    n_units = len(stage.labels)
    counts = np.zeros((model.n_classes, model.n_subclasses), dtype=np.int64)
    sums = np.zeros(3)

    def gradients(batch):
        if config.count_scope == "batch":
            counts[:] = 0
        return _counted_gradients(stage, batch, counts, sums)

    trace: list[EpochStats] = []
    stream = (STREAM_SHUFFLE, config.seed, number)
    for epoch, lr in fit(stage.params, gradients, n_units, config, number, stream):
        fg, margin, total = sums / n_units
        embeddings = stage.embeddings if number == 1 else stage.embed(slice(None))
        report = _score(dataset, model, embeddings)
        trace.append(EpochStats(epoch, fg, margin, total, report.war, lr))
        sums[:] = 0.0
        counts[:] = 0
    return trace


def run_stage1(
    model: Model, dataset: EmbeddingDataset, config
) -> tuple[DescriptorBank, list[EpochStats]]:
    """Train the descriptor tokens by the stage-1 keys; all else stays bit-identical."""
    return model.bank, _run_stage(model, dataset, config, 1)


def run_stage2(
    model: Model, dataset: EmbeddingDataset, config
) -> tuple[ImageAdapter, list[EpochStats]]:
    """Train the adapter by the stage-2 keys, against the frozen descriptors."""
    return model.adapter, _run_stage(model, dataset, config, 2)


def central_difference(probe, score, array: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of a batched loss w.r.t. one array.

    Each entry is perturbed in place by +h, then by -h, and restored
    exactly; after each perturbation ``probe()`` records what the array
    changes.  ``score`` maps the (2 * entries, ...) stack of those probes,
    +h and -h alternating, to the loss of each, in one call.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ContractViolation(f"h must be > 0, got {h}")
    flat = array.reshape(-1)
    probes = None
    for idx in range(flat.size):
        original = flat[idx]
        for side, value in enumerate((original + h, original - h)):
            flat[idx] = value
            probed = probe()
            if probes is None:
                probes = np.empty((flat.size, 2, *np.shape(probed)))
            probes[idx, side] = probed
        flat[idx] = original
    values = np.asarray(score(probes.reshape(2 * flat.size, *probes.shape[2:])))
    if values.shape != (2 * flat.size,):
        raise ContractViolation(
            f"score gave shape {values.shape} for {2 * flat.size} probes"
        )
    plus, minus = values.reshape(flat.size, 2).T
    return ((plus - minus) / (2.0 * h)).reshape(array.shape)


# Entries whose analytic and FD values are both below this scale are
# compared against the floor instead, which absorbs the subtractive
# cancellation noise of the finite differences on near-flat directions.
FD_ERROR_FLOOR = 1e-3


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.abs(analytic - numeric) / np.maximum(scale, FD_ERROR_FLOOR)


def fd_check(
    model: Model,
    sample: Unit,
    h: float = 1e-5,
    *,
    target_counts=None,
    stage: int = 1,
    corrupt: bool = False,
) -> dict[str, tuple[int, float]]:
    """Compare one stage's training gradients with central differences.

    ``sample`` is a one-sample batch of the stage's training path, with
    ``target_counts`` as its counts.  Every entry the stage trains is
    perturbed by +/-h and the side it changes re-embedded by the real
    encoder; each array's perturbed losses are then scored in one batched
    call, row for row the bits of the one-sample loss.  Returns, per trained
    array name, its entry count and the largest relative error between
    the analytic and the numeric gradient.  ``corrupt`` deliberately
    breaks the first analytic entry (negative control: its error must
    be large).
    """
    if target_counts is None:
        target_counts = np.ones(model.n_subclasses, dtype=np.int64)
    counts = np.asarray(target_counts)[None]
    path = _Stage(model, [sample], stage)
    batch = np.array([0])

    def given(grid, targets):
        return np.repeat(counts, len(targets), axis=0)

    def probe():
        return path.embed(0)

    def score(probes):
        # Each probe scored as sample 0 alone, with its counts.
        targets = np.repeat(path.labels, len(probes))
        return path.score(0, probes, targets, given)[-1].total

    _, analytic = path.gradients(batch, given)
    if corrupt:
        first = sorted(analytic)[0]
        worst_scale = max(float(np.max(np.abs(g))) for g in analytic.values())
        analytic[first].reshape(-1)[0] += 0.05 * (1.0 + worst_scale)

    errors = {}
    for name in sorted(path.params):
        numeric = central_difference(probe, score, path.params[name], h)
        relative = _relative_errors(analytic[name], numeric)
        errors[name] = (int(relative.size), float(np.max(relative)))
    return errors


def fd_sweep(
    seed: int, instances: int, h: float, corrupt: bool = False
) -> list[tuple[int, str, int, float]]:
    """``fd_check`` on the random instances ``seed, seed + 1, ...`` of both stages.

    One ``(stage, name, entries, worst)`` row per trained array, in stage
    and then name order: the entries checked over all ``instances`` and
    the largest relative error among them, NaN if any error is NaN.
    """
    rows = []
    for stage in (1, 2):
        totals: dict[str, tuple[int, float]] = {}
        for instance in range(instances):
            model, sample, counts = random_fd_instance(seed=seed + instance, stage=stage)
            checked = fd_check(
                model, sample, h, target_counts=counts, stage=stage, corrupt=corrupt
            )
            for name, (entries, worst) in checked.items():
                so_far = totals.get(name, (0, 0.0))
                # np.maximum keeps a NaN error, which max() would drop.
                totals[name] = (so_far[0] + entries, float(np.maximum(so_far[1], worst)))
        rows += [(stage, name, *totals[name]) for name in sorted(totals)]
    return rows


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
